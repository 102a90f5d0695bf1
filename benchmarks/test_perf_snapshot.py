"""Performance snapshot: one fixed 100 Mbps scenario, measured.

Runs the pinned LAN transfer under the full observability stack and
prints the engine's events/sec, wall time, peak RSS and delivered
bytes/sec.  The asserted floors are deliberately loose (an order of
magnitude under observed numbers) -- they catch catastrophic slowdowns,
not noise; ``perfbench/run.py`` measures performance.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from benchmarks.conftest import (BANDWIDTH, N_RECEIVERS, NBYTES,
                                 PINNED_SCENARIO, SEED, SNDBUF)
from repro.harness.runner import run_transfer
from repro.obs import Observability
from repro.workloads.scenarios import build_lan


def _peak_rss_kb() -> int:
    """ru_maxrss is KiB on Linux, bytes on macOS."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss // 1024 if sys.platform == "darwin" else rss


def test_perf_snapshot():
    sc = build_lan(N_RECEIVERS, BANDWIDTH, seed=SEED)
    obs = Observability(profile=True)
    t0 = time.perf_counter()
    res = run_transfer(sc, nbytes=NBYTES, sndbuf=SNDBUF, obs=obs)
    wall_s = time.perf_counter() - t0
    assert res.ok

    engine_eps = res.sim_events / wall_s
    delivered = NBYTES * N_RECEIVERS
    snapshot = {
        "scenario": PINNED_SCENARIO,
        "sim_events": res.sim_events,
        "wall_s": round(wall_s, 3),
        "events_per_s": round(engine_eps, 1),
        "events_per_s_in_callbacks":
            round(obs.profiler.events_per_sec()),
        "delivered_bytes_per_wall_s": round(delivered / wall_s),
        "sim_throughput_mbps": round(res.throughput_mbps, 2),
        "sim_duration_s": round(res.duration_us / 1e6, 3),
        "peak_rss_kb": _peak_rss_kb(),
    }
    print()
    print(json.dumps(snapshot, indent=2, sort_keys=True))

    # loose floors: an order of magnitude below typical CI numbers
    assert engine_eps > 5_000, snapshot
    assert delivered / wall_s > 500_000, snapshot
    assert snapshot["peak_rss_kb"] < 2_000_000, snapshot
    # the observed run stays faithful to the protocol result
    assert res.throughput_mbps > 10, snapshot
