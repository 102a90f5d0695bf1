"""Golden protocol-health payloads.

``health_golden.json`` holds :meth:`HealthMonitor.payload` for pinned
runs, captured from the hook-based ledger that preceded the
``Counters``-backed view.  Every cell must still come out exactly the
same: the two CI-pinned ``health report`` runs, the lossy WAN with
local recovery (peer and repair-cache columns), a chaos run whose
receiver 2 crashes and restarts, the RMC hazard run (223 gaps
abandoned to NAK_ERR), and the baseline protocols, which carry no
H-RMC endpoints and so report an empty ledger.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import HRMCConfig
from repro.harness.experiments import chaos_config
from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.obs import Observability
from repro.workloads.groups import GROUP_C, expand_test_case
from repro.workloads.scenarios import build_chaos, build_lan, build_wan

GOLDEN = json.loads(
    (Path(__file__).with_name("health_golden.json")).read_text())

LOSSY = GroupSpec("L", delay_us=20_000, loss_rate=0.02)

#: name -> (scenario factory, run_transfer keywords)
RUNS = {
    # health report lan --receivers 2 --nbytes 200000 --seed 7
    #   --bandwidth 100
    "lan_r2_seed7_100mbps": (
        lambda: build_lan(2, 100e6, seed=7),
        dict(nbytes=200_000, max_sim_s=300)),
    # health report wan --receivers 3 --nbytes 200000 --seed 21
    "wan_r3_seed21": (
        lambda: build_wan(expand_test_case(2, 3), 10e6, seed=21),
        dict(nbytes=200_000, max_sim_s=300)),
    "wan_lossy_seed21_local_recovery": (
        lambda: build_wan([LOSSY] * 3, 10e6, seed=21),
        dict(nbytes=250_000, sndbuf=128 * 1024, max_sim_s=300,
             cfg=replace(HRMCConfig(), local_recovery=True))),
    "chaos_seed10_crash_restart": (
        lambda: build_chaos(3, 10e6, seed=10, horizon_us=1_000_000,
                            allow_crash=True),
        dict(nbytes=200_000, sndbuf=128 * 1024, cfg=chaos_config(),
             invariants=True, max_sim_s=120)),
    "rmc_hazard_seed9": (
        lambda: build_wan([GROUP_C] * 5, 10e6, seed=9),
        dict(nbytes=400_000, protocol="rmc", sndbuf=64 * 1024,
             cfg=replace(HRMCConfig().as_rmc(), minbuf_rtts=1),
             max_sim_s=120)),
    **{f"baseline_{proto}": (
        lambda: build_lan(2, 100e6, seed=7),
        dict(nbytes=50_000, protocol=proto, max_sim_s=300))
       for proto in ("ack", "polling", "tcp")},
}


def test_every_golden_payload_has_a_run():
    assert sorted(RUNS) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_health_payload_matches_golden(name):
    build, kwargs = RUNS[name]
    obs = Observability(profile=False, health=True)
    run_transfer(build(), obs=obs, **kwargs)
    assert obs.health.payload() == GOLDEN[name]


def test_golden_runs_cover_the_ledger():
    """The fixture exercises the columns it is meant to pin."""
    lossy = GOLDEN["wan_lossy_seed21_local_recovery"]
    assert lossy["suppression"]["suppressed_peer"] > 0
    assert lossy["repair"]["cache"]["hits"] > 0
    assert GOLDEN["rmc_hazard_seed9"]["lag"]["abandoned"] == 223
    assert GOLDEN["chaos_seed10_crash_restart"]["repair"]["deflected"] > 0
    for proto in ("ack", "polling", "tcp"):
        assert GOLDEN[f"baseline_{proto}"]["group_size"] == 0
