"""Performance snapshot for the experiment fleet.

Runs the whole quick-scale experiment sweep three ways -- serial
in-process, cold through a 4-worker fleet, and again warm from the
content-addressed cache -- and prints the three wall times, the
parallel speedup and the cache accounting.

Gates:

* every rendered report is byte-identical across the three executions
  (the fleet's core correctness claim);
* the warm re-run finishes in under 10 % of the cold parallel wall
  (and therefore "in seconds");
* the warm run serves >= 90 % of cells from the cache;
* on hosts with >= 4 CPUs, the 4-worker cold run is >= 2x faster than
  serial.  A process pool cannot beat serial on fewer cores, so the
  speedup floor is only asserted where the hardware can express it --
  the printed snapshot records the CPU count either way.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from repro.fleet import Fleet
from repro.harness.experiments import EXPERIMENTS, run_experiments

WORKERS = 4
SCALE = "quick"


def _sweep(fleet: Fleet) -> tuple[dict[str, str], float]:
    exp_ids = list(EXPERIMENTS)
    t0 = time.perf_counter()
    reports = run_experiments(exp_ids, SCALE, fleet)
    wall = time.perf_counter() - t0
    return {k: r.render() for k, r in reports.items()}, wall


def test_perf_snapshot_fleet():
    with tempfile.TemporaryDirectory() as td:
        serial_fleet = Fleet(workers=1, cache_dir=None)
        serial, wall_serial = _sweep(serial_fleet)

        cold_fleet = Fleet(workers=WORKERS, cache_dir=td)
        cold, wall_cold = _sweep(cold_fleet)

        warm_fleet = Fleet(workers=WORKERS, cache_dir=td)
        warm, wall_warm = _sweep(warm_fleet)

        warm_store = dict(warm_fleet.stats.store)
        warm_hit_rate = warm_store.get("hits", 0) / \
            max(1, warm_fleet.stats.runs)

    speedup = wall_serial / wall_cold
    snapshot = {
        "scale": SCALE,
        "experiments": len(EXPERIMENTS),
        "unique_runs": serial_fleet.stats.runs,
        "workers": WORKERS,
        "cpus": os.cpu_count() or 1,
        "wall_serial_s": round(wall_serial, 3),
        "wall_parallel_cold_s": round(wall_cold, 3),
        "wall_parallel_warm_s": round(wall_warm, 3),
        "speedup_parallel_over_serial": round(speedup, 2),
        "warm_over_cold_wall": round(wall_warm / wall_cold, 4),
        "warm_cache_hit_rate": round(warm_hit_rate, 4),
        "warm_store": warm_store,
        "reports_identical": serial == cold == warm,
    }
    print()
    print(json.dumps(snapshot, indent=2, sort_keys=True))

    # determinism: same bytes no matter how the sweep was executed
    assert serial == cold, "parallel aggregates diverge from serial"
    assert serial == warm, "warm-cache aggregates diverge from serial"
    # the warm sweep is a cache read, not a recomputation
    assert warm_hit_rate >= 0.9, snapshot
    assert wall_warm < 0.1 * wall_cold, snapshot
    # parallel speedup, where the host can physically provide it
    if (os.cpu_count() or 1) >= WORKERS:
        assert speedup >= 2.0, snapshot
