"""Golden engine-profiler attribution.

``perf_golden.json`` holds the :class:`PerfProfiler` per-class and
per-site ``(events, sim_us)`` of six pinned runs: H-RMC on a LAN, a WAN
and a chaos plan, and the ack, polling and TCP baselines on a lossy
WAN (so their retransmission timers fire).  Both columns are
deterministic -- only wall time varies between executions -- so any
change to how callbacks are classified, or to which callbacks run,
shows up here as an exact mismatch.

Regenerate (only for a deliberate change, with the diff reviewed)::

    PYTHONPATH=src python -m tests.obs.test_perf_golden
"""

import json
from pathlib import Path

import pytest

from repro.harness.experiments import chaos_config
from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.obs import Observability
from repro.workloads.groups import expand_test_case
from repro.workloads.scenarios import build_chaos, build_lan, build_wan

GOLDEN_PATH = Path(__file__).with_name("perf_golden.json")

LOSSY = GroupSpec("L", delay_us=20_000, loss_rate=0.05)

#: name -> (scenario factory, run_transfer keywords)
RUNS = {
    "hrmc_lan_r3_seed7": (
        lambda: build_lan(3, 100e6, seed=7),
        dict(nbytes=200_000, max_sim_s=300)),
    "hrmc_wan_r3_seed21": (
        lambda: build_wan(expand_test_case(2, 3), 10e6, seed=21),
        dict(nbytes=200_000, max_sim_s=300)),
    "hrmc_chaos_seed10_crash_restart": (
        lambda: build_chaos(3, 10e6, seed=10, horizon_us=1_000_000,
                            allow_crash=True),
        dict(nbytes=200_000, sndbuf=128 * 1024, cfg=chaos_config(),
             invariants=True, max_sim_s=120)),
    **{f"baseline_{proto}_lossy_wan": (
        lambda: build_wan([LOSSY] * 2, 10e6, seed=21),
        dict(nbytes=100_000, protocol=proto, sndbuf=128 * 1024,
             max_sim_s=300))
       for proto in ("ack", "polling", "tcp")},
}


def attribution(name: str) -> dict:
    """Per-class and per-site ``[events, sim_us]`` of one pinned run."""
    build, kwargs = RUNS[name]
    obs = Observability(profile=True)
    run_transfer(build(), obs=obs, **kwargs)
    prof = obs.profiler
    return {
        "events": prof.events,
        "classes": {k: [s.events, s.sim_us]
                    for k, s in sorted(prof.classes.items())},
        "sites": {k: [s.events, s.sim_us]
                  for k, s in sorted(prof.sites.items())},
    }


def test_every_golden_attribution_has_a_run():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(RUNS) == sorted(golden)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_profiler_attribution_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert attribution(name) == golden[name]


def test_golden_runs_cover_the_timer_classes():
    """The baselines' timers land in both timer classes by name."""
    golden = json.loads(GOLDEN_PATH.read_text())
    for proto in ("ack", "polling", "tcp"):
        classes = golden[f"baseline_{proto}_lossy_wan"]["classes"]
        assert classes["jiffy-timer"][0] > 0
        assert "other" not in classes
    for proto in ("ack", "tcp"):
        classes = golden[f"baseline_{proto}_lossy_wan"]["classes"]
        assert classes["nak-repair-timer"][0] > 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: attribution(name) for name in sorted(RUNS)},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
