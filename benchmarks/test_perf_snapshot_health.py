"""Performance snapshot for the protocol-health observatory.

Runs the pinned 100 Mbps LAN transfer three ways -- bare, observed
with the health ledger OFF, and observed with it ON -- and prints all
three events/sec figures and the health payload.

The acceptance bar is the *marginal* cost of the health layer: the
health-on run vs the otherwise-identical health-off run (same scrape
loop, same span collector).  The ledger is plain ``Counters`` fields
the protocol keeps either way, read after the run, so turning it on
must be nearly free.  The bare figure is printed for context (the
observability base tax is gated by ``test_perf_snapshot_observatory``).

Gates:

* health-on keeps >= 0.90 of health-off events/s;
* the pinned lossless LAN reports a clean ledger (no NAKs, no
  retransmissions, nothing unresolved) without being vacuous
  (feedback still reached the sender).

Byte-identity of health-on vs unobserved runs is proven separately by
``tests/obs/test_zero_perturbation.py``.
"""

from __future__ import annotations

import json
import time

from benchmarks.conftest import (BANDWIDTH, N_RECEIVERS, NBYTES,
                                 PINNED_SCENARIO, SEED, SNDBUF,
                                 measure_events_per_s)
from repro.harness.runner import run_transfer
from repro.obs import Observability
from repro.workloads.scenarios import build_lan


def _observed_run(health: bool):
    """Best-of-2 observed pinned run; returns (events/s, wall, result,
    obs) of the faster repetition (wall noise only ever slows one)."""
    best = None
    for _ in range(2):
        sc = build_lan(N_RECEIVERS, BANDWIDTH, seed=SEED)
        obs = Observability(profile=False, health=health)
        t0 = time.perf_counter()
        res = run_transfer(sc, nbytes=NBYTES, sndbuf=SNDBUF, obs=obs)
        wall_s = time.perf_counter() - t0
        assert res.ok
        eps = res.sim_events / wall_s
        if best is None or eps > best[0]:
            best = (eps, wall_s, res, obs)
    return best


def test_perf_snapshot_health():
    bare = measure_events_per_s(repeats=2)
    off_eps, _, off_res, _ = _observed_run(health=False)
    on_eps, wall_s, res, obs = _observed_run(health=True)

    # identical simulated worlds before comparing their wall clocks
    assert res.sim_events == off_res.sim_events
    assert res.duration_us == off_res.duration_us

    ratio = on_eps / off_eps
    payload = obs.health.payload()
    snapshot = {
        "scenario": PINNED_SCENARIO,
        "sim_events": res.sim_events,
        "wall_s": round(wall_s, 3),
        "bare": bare,
        "observed_health_off_events_per_s": round(off_eps, 1),
        "observed_health_on_events_per_s": round(on_eps, 1),
        "health_on_over_health_off": round(ratio, 3),
        "health": payload,
    }
    print()
    print(json.dumps(snapshot, indent=2, sort_keys=True))

    assert ratio >= 0.90, snapshot
    # the pinned LAN is lossless: the ledger must be clean
    assert payload["suppression"]["naks_sent"] == 0
    assert payload["repair"]["retrans_pkts"] == 0
    assert payload["lag"]["unresolved"] == 0
    # ...but not vacuous: feedback still flowed to the sender
    assert payload["implosion"]["feedback_at_sender"] > 0
    assert payload["group_size"] == N_RECEIVERS
