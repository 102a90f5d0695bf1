"""Seeded inputs for the benchmark workloads, and how to run one.

Every input is generated from ``(workload, seed)`` alone, so the same
seed always yields the same inputs and the program under test receives
nothing but those inputs.  Workloads are *stratified*: every run covers
the whole range of the property the workload is about (receiver count),
and the seed draws the order, the exact sizes and, where loss cannot
make them costly, the topology seeds.  That keeps run-to-run aggregates
steady across seeds while every seed still gets different inputs.

A transfer input runs through the public API
(``repro.workloads.scenarios.build_*`` + ``repro.harness.runner.
run_transfer``); a fleet input is a grid of ``RunSpec`` dicts for
``repro.fleet.Fleet.run_specs``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

__all__ = ["WORKLOADS", "TransferInput", "FleetGrid", "make_inputs",
           "probe_indices", "build_scenario", "run_input", "succeeded",
           "delivered_bytes", "outcome_digest", "summary_digest",
           "combined_digest"]

WORKLOADS = ("lan_bulk", "wan_lossy", "fleet_sweep")

MB = 1_000_000                      # decimal megabyte, used in every */MB
MBPS_10 = 10e6
MBPS_100 = 100e6
#: the fault horizon every chaos surface of the repo uses (the chaos
#: suite, ``--chaos-seed``, ``report chaos``)
CHAOS_HORIZON_US = 1_000_000
#: topology seeds of the probe inputs, and the probe's fault plan
PROBE_SEEDS = (1, 2)
#: wan_lossy: rounds over the receiver counts, and bytes per transfer;
#: the probe is larger, so that its opcode count covers a long repair
#: phase rather than a handful of losses
WAN_ROUNDS = 20
WAN_BYTES = 75_000
WAN_PROBE_BYTES = 300_000
#: wan_lossy: topology seed of round r's n-receiver slot is this + 10r + n
WAN_TOPO_BASE = 1000
CHAOS_PROBE_SEED = 3
#: topology seeds of fleet_sweep's two wan jobs that are not probes
FLEET_WAN_SEEDS = (3, 4)


@dataclass(frozen=True)
class TransferInput:
    """One multicast transfer (lan_bulk, wan_lossy)."""

    index: int
    kind: str                 # "lan" | "wan"
    receivers: int
    nbytes: int
    topo_seed: int            # seeds the topology
    bandwidth_bps: float
    sndbuf: int
    test_case: int = 0        # wan: Figure-14 test case
    max_sim_s: float = 600.0
    probe: bool = False       # run by the traced passes


@dataclass(frozen=True)
class FleetGrid:
    """One fleet sweep: a grid of small RunSpecs (as plain dicts)."""

    specs: tuple = field(default_factory=tuple)
    probes: tuple = field(default_factory=tuple)   # indices into specs


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds go through SHA-512: stable across processes and hash seeds
    return random.Random(f"perfbench:{workload}:{seed}")


def _jitter(rng: random.Random, base: int, frac: float = 0.05) -> int:
    """``base`` +/- ``frac``, rounded to whole KB."""
    return int(base * rng.uniform(1 - frac, 1 + frac)) // 1000 * 1000


def make_inputs(workload: str, seed: int) -> list:
    """The workload's input list for ``seed`` (a fleet list holds one grid).

    A few inputs are *probes*: the bytecode and span passes run them.
    Their size and topology/fault seeds are pinned (their place in the
    list still comes from ``seed``), so the opcode count measures the
    code, not one input's random loss pattern.
    """
    rng = _rng(workload, seed)
    if workload == "lan_bulk":
        # 2-8 receivers, each once per run, ~2 MB each, 512K buffers
        counts = list(range(2, 9))
        rng.shuffle(counts)
        return [TransferInput(i, "lan", n,
                              2_000_000 if n == 3 else _jitter(rng, 2_000_000),
                              rng.randrange(1 << 30), MBPS_100, 512 * 1024,
                              probe=n == 3)
                for i, n in enumerate(counts)]
    if workload == "wan_lossy":
        # Figure-14 test case 5; twenty rounds over 3-8 receivers.  One
        # transfer's cost follows its random losses, which its topology
        # seed draws, and 120 freely drawn seeds still moved the list's
        # retransmissions, goodput and time 6-9% from seed to seed.  So
        # each (round, receivers) slot has a fixed topology seed, and
        # the seed draws the order and the sizes.
        inputs = []
        for r in range(WAN_ROUNDS):
            counts = list(range(3, 9))
            rng.shuffle(counts)
            for n in counts:
                probe = r == 0 and n == 3
                inputs.append(TransferInput(
                    len(inputs), "wan", n,
                    WAN_PROBE_BYTES if probe else _jitter(rng, WAN_BYTES),
                    PROBE_SEEDS[0] if probe else WAN_TOPO_BASE + 10 * r + n,
                    MBPS_10, 256 * 1024, test_case=5, probe=probe))
        return inputs
    if workload == "fleet_sweep":
        # 12 lan + 4 wan jobs and one chaos job: per-job overhead is the
        # point, and a lan majority keeps the list's middle half (see
        # interquartile_mean in run.py) from straddling populations.
        # The lossless lan jobs' sizes vary a little and the lossy wan
        # jobs are pinned like probes (a small wan job's cost follows its
        # random losses), so the grid's simulation work, and with it a
        # sweep's time, varies little from seed to seed.
        specs = []
        for kind, counts in (("lan", (2, 3, 4, 5) * 3), ("wan", (2, 3, 4, 5))):
            for j, n in enumerate(counts):
                probe = j < 2                    # pinned 2- and 3-receiver
                base = 150_000 if kind == "lan" else 100_000
                spec = {"scenario": kind, "receivers": n, "probe": probe,
                        "nbytes": _jitter(rng, base, 0.1),
                        "seed": rng.randrange(1 << 30), "test": 5}
                if probe:
                    spec.update(nbytes=base, seed=PROBE_SEEDS[j])
                elif kind == "wan":
                    spec.update(nbytes=base, seed=FLEET_WAN_SEEDS[j - 2],
                                test=4)
                specs.append(spec)
        # the pinned chaos probe: plan 3 corrupts frames, crashes and
        # restarts a receiver mid-transfer, under the invariant checker
        specs.append({"scenario": "chaos", "receivers": 5, "probe": True,
                      "nbytes": 150_000, "seed": CHAOS_PROBE_SEED})
        # The pool takes jobs in order.  Longest first (chaos, wan, lan;
        # shuffled within each kind) keeps a long job from landing at
        # the end and leaving the other worker idle for however long it
        # runs, so the sweep's makespan does not follow the order.
        rng.shuffle(specs)
        specs.sort(key=lambda s: ("chaos", "wan", "lan").index(s["scenario"]))
        return [FleetGrid(tuple(_run_spec_dict(s) for s in specs),
                          tuple(i for i, s in enumerate(specs)
                                if s["probe"]))]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")


def probe_indices(inputs: list) -> list[int]:
    """Positions of the probe inputs (fleet: of the grid's specs)."""
    if isinstance(inputs[0], FleetGrid):
        return list(inputs[0].probes)
    return [i for i, inp in enumerate(inputs) if inp.probe]


def _run_spec_dict(s: dict) -> dict:
    from repro.fleet import RunSpec

    if s["scenario"] == "lan":
        spec = RunSpec.lan(s["receivers"], MBPS_100, seed=s["seed"],
                           nbytes=s["nbytes"], sndbuf=256 * 1024)
    elif s["scenario"] == "chaos":
        from repro.harness.experiments import chaos_config_delta
        spec = RunSpec.chaos(s["receivers"], MBPS_10, seed=s["seed"],
                             nbytes=s["nbytes"], horizon_us=CHAOS_HORIZON_US,
                             sndbuf=128 * 1024, cfg=chaos_config_delta(),
                             invariants=True, max_sim_s=120.0)
    else:
        spec = RunSpec.wan(bandwidth_bps=MBPS_10, seed=s["seed"],
                           nbytes=s["nbytes"], test=s["test"],
                           receivers=s["receivers"], sndbuf=256 * 1024)
    return spec.to_dict()


# -- transfers --------------------------------------------------------


def build_scenario(inp: TransferInput):
    from repro.workloads.groups import expand_test_case
    from repro.workloads.scenarios import build_lan, build_wan

    if inp.kind == "lan":
        return build_lan(inp.receivers, inp.bandwidth_bps,
                         seed=inp.topo_seed)
    return build_wan(expand_test_case(inp.test_case, inp.receivers),
                     inp.bandwidth_bps, seed=inp.topo_seed)


def run_input(inp: TransferInput, scenario):
    """Run one transfer on a freshly built ``scenario``.

    Returns the :class:`TransferResult`, or the exception the run raised
    (an ``InvariantViolation`` included): a failed input is counted, not
    dropped.
    """
    from repro.harness.runner import run_transfer

    try:
        return run_transfer(scenario, nbytes=inp.nbytes, sndbuf=inp.sndbuf,
                            max_sim_s=inp.max_sim_s)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed input
        return exc


def succeeded(result) -> bool:
    return not isinstance(result, Exception) and result.ok


def delivered_bytes(result) -> int:
    """Payload bytes delivered and verified, summed over receivers
    (a rejoined receiver's resumed suffix included)."""
    if isinstance(result, Exception):
        return 0
    apps = list(result.per_receiver) + list(result.rejoin_results)
    return sum(a.bytes_done for a in apps if a.verified)


def outcome_digest(result) -> str:
    """Digest of a transfer's deterministic outcome: event count,
    simulated duration, sender and receiver counters, drop summary."""
    if isinstance(result, Exception):
        doc = {"error": f"{type(result).__name__}: {result}"}
    else:
        doc = {"sim_events": result.sim_events,
               "duration_us": result.duration_us,
               "sender": result.sender_stats.as_dict(),
               "receivers": result.receiver_stats.as_dict(),
               "drops": result.drop_summary}
    return _hash(doc)


def summary_digest(summary_dict: dict) -> str:
    """Digest of a fleet job's canonical summary dict."""
    return _hash(summary_dict)


def combined_digest(digests: list[str]) -> str:
    return _hash(digests)


def _hash(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=12).hexdigest()
