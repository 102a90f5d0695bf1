"""Performance snapshot for causal lineage tracing.

Runs the pinned 100 Mbps LAN transfer twice -- observability with
lineage off, then on -- and prints both engine events/sec figures and
their ratio.  The acceptance bar: lineage-enabled runs stay within
25 % of lineage-off throughput (ratio >= 0.75).  Each configuration is
measured best-of-2 to keep one noisy CI scheduling blip from failing
the gate.
"""

from __future__ import annotations

import json
import time

from benchmarks.conftest import (BANDWIDTH, N_RECEIVERS, NBYTES,
                                 PINNED_SCENARIO, SEED, SNDBUF)
from repro.harness.runner import run_transfer
from repro.obs import Observability
from repro.workloads.scenarios import build_lan

ROUNDS = 2


def _measure(lineage: bool) -> dict:
    """Best-of-ROUNDS events/sec for one configuration."""
    best = None
    for _ in range(ROUNDS):
        sc = build_lan(N_RECEIVERS, BANDWIDTH, seed=SEED)
        obs = Observability(profile=False, lineage=lineage)
        t0 = time.perf_counter()
        res = run_transfer(sc, nbytes=NBYTES, sndbuf=SNDBUF, obs=obs)
        wall_s = time.perf_counter() - t0
        assert res.ok
        sample = {
            "wall_s": round(wall_s, 3),
            "sim_events": res.sim_events,
            "events_per_s": round(res.sim_events / wall_s),
            "lineage_nodes": len(obs.lineage.nodes) if lineage else 0,
        }
        if best is None or sample["events_per_s"] > best["events_per_s"]:
            best = sample
    return best


def test_perf_snapshot_lineage():
    off = _measure(lineage=False)
    on = _measure(lineage=True)
    ratio = on["events_per_s"] / off["events_per_s"]
    snapshot = {
        "scenario": dict(PINNED_SCENARIO, rounds=ROUNDS),
        "lineage_off": off,
        "lineage_on": on,
        "events_per_s_ratio_on_over_off": round(ratio, 3),
    }
    print()
    print(json.dumps(snapshot, indent=2, sort_keys=True))

    # the lineage DAG actually recorded the run
    assert on["lineage_nodes"] > 1_000, snapshot
    # acceptance: lineage-on within 25% of lineage-off events/sec
    assert ratio >= 0.75, snapshot
    # same protocol outcome regardless of tracing
    assert on["sim_events"] == off["sim_events"], snapshot
