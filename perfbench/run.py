"""H-RMC simulator benchmark: one seeded workload, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lan_bulk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a JSON run record
(digests, sample counts, accounting) precedes it.  See README.md.
"""

import time

_T0 = time.perf_counter()          # setup_s counts from here, before imports

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import calibration_s, normalise  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"     # fleet caches and span dumps

#: setup is measured this many times in fresh interpreters, normalised,
#: and reported as the median (this process's own set-up is recorded)
SETUP_PROBES = 6
#: calibration loops each set-up probe times after its set-up
SETUP_LOOPS = 3
#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10
#: per-layer self times must add up to the span-pass wall within this
SELF_TIME_TOLERANCE = 0.05


@dataclass
class Outcome:
    """The deterministic result of one input, plus what metrics need."""

    ok: bool
    digest: str
    payload_bytes: int
    delivered_bytes: int
    events: int
    throughput_bps: float
    counters: dict = field(default_factory=dict)


@dataclass
class Timed:
    """Everything the timed pass measured."""

    outcomes: list                          # first execution of each input
    walls: list = field(default_factory=list)        # per execution, s
    keys: list = field(default_factory=list)         # its input's position
    between: list = field(default_factory=list)      # the loop before it
    calibrations: list = field(default_factory=list)  # every loop, s
    norm_walls: list = field(default_factory=list)   # walls, normalised
    by_input: list = field(default_factory=list)     # norm_walls per input
    input_bytes: list = field(default_factory=list)  # delivered per input
    events: int = 0                         # over every execution
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0                     # repeat runs with another digest
    extra: dict = field(default_factory=dict)

    def calibrate(self) -> None:
        """Time a calibration loop, just before an execution."""
        self.calibrations.append(calibration_s())

    def record(self, k: int, wall: float) -> None:
        """Execution of input ``k`` took ``wall``."""
        self.walls.append(wall)
        self.keys.append(k)
        self.between.append(len(self.calibrations) - 1)

    def normalise(self, inputs: int) -> None:
        """Close the last gap with a loop, then fill ``norm_walls`` and
        ``by_input``."""
        self.calibrations.append(calibration_s())
        self.norm_walls = normalise(self.walls, self.between,
                                    self.calibrations)
        self.by_input = [[] for _ in range(inputs)]
        for k, norm in zip(self.keys, self.norm_walls):
            self.by_input[k].append(norm)


# -- transfers --------------------------------------------------------


def transfer_outcome(inp, scenario, result):
    import workloads as wl

    ok = wl.succeeded(result)
    counters = {}
    if not isinstance(result, Exception):
        s, r = result.sender_stats, result.receiver_stats
        counters = {
            "sent_pkts": s.data_pkts_sent + s.retrans_pkts,
            "retrans_pkts": s.retrans_pkts,
            "feedback": result.feedback_total,
            "naks_sent": r.naks_sent,
            "dup_pkts": r.dup_pkts_rcvd,
            "data_pkts_rcvd": r.data_pkts_rcvd,
            "ooo_pkts": r.out_of_order_pkts,
            "drops": sum(result.drop_summary.values()),
            "invariant_checks": result.invariant_checks,
            "fault_events": result.fault_events,
            "compactions": scenario.sim.compactions,
        }
    return Outcome(
        ok=ok, digest=wl.outcome_digest(result), payload_bytes=inp.nbytes,
        delivered_bytes=wl.delivered_bytes(result),
        events=0 if isinstance(result, Exception) else result.sim_events,
        throughput_bps=0.0 if isinstance(result, Exception)
        else result.throughput_bps,
        counters=counters)


def timed_transfers(inputs, seconds: float) -> Timed:
    """Closed loop, one transfer at a time: every input once, then keep
    cycling through them until ``seconds`` have passed."""
    import workloads as wl

    timed = Timed(outcomes=[])
    start = time.perf_counter()
    i = 0
    while (i < len(inputs) or len(timed.walls) <= TAIL_BEYOND
           or time.perf_counter() - start < seconds):
        k = i % len(inputs)
        inp = inputs[k]
        scenario = wl.build_scenario(inp)
        timed.calibrate()
        t_run = time.perf_counter()
        result = wl.run_input(inp, scenario)
        wall = time.perf_counter() - t_run
        out = transfer_outcome(inp, scenario, result)
        if i < len(inputs):
            timed.outcomes.append(out)
        elif out.digest != timed.outcomes[k].digest:
            timed.mismatches += 1
        timed.record(k, wall)
        timed.events += out.events
        timed.attempted += 1
        timed.failed += not out.ok
        i += 1
    timed.normalise(len(inputs))
    timed.input_bytes = [o.delivered_bytes for o in timed.outcomes]
    return timed


# -- fleet ------------------------------------------------------------


def fleet_workers() -> int:
    """At most ``nproc`` workers, and never more than two, so the sweep
    is the same workload on a bigger host."""
    return max(1, min(2, os.cpu_count() or 1))


def reap_children() -> None:
    """Wait for pool workers: ``Fleet`` shuts its pool down without
    waiting, and their peak RSS only counts once they are reaped."""
    for child in multiprocessing.active_children():
        child.join(30)


def fleet_outcome(spec_dict: dict, summary) -> Outcome:
    import workloads as wl

    canon = json.loads(json.dumps(summary.to_dict(), sort_keys=True))
    s, r = summary.sender_stats, summary.receiver_stats
    # a summary has no per-receiver byte counts: a successful job
    # counts its payload once per receiver
    return Outcome(
        ok=summary.surviving_ok, digest=wl.summary_digest(canon),
        payload_bytes=spec_dict["nbytes"],
        delivered_bytes=spec_dict["nbytes"] * summary.n_receivers
        if summary.surviving_ok else 0,
        events=summary.sim_events, throughput_bps=summary.throughput_bps,
        counters={"sent_pkts": s.data_pkts_sent + s.retrans_pkts,
                  "retrans_pkts": s.retrans_pkts,
                  "feedback": r.feedback_total, "naks_sent": r.naks_sent,
                  "dup_pkts": r.dup_pkts_rcvd,
                  "data_pkts_rcvd": r.data_pkts_rcvd,
                  "ooo_pkts": r.out_of_order_pkts, "drops": 0,
                  "invariant_checks": summary.invariant_checks,
                  "fault_events": summary.fault_events, "compactions": 0})


@contextlib.contextmanager
def fresh_fleet(workers: int):
    """A ``Fleet`` on a fresh cache under WORK_DIR, removed afterwards."""
    from repro.fleet import Fleet

    os.makedirs(WORK_DIR, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="fleet-", dir=WORK_DIR)
    try:
        yield Fleet(workers=workers, cache_dir=cache)
    finally:
        reap_children()
        shutil.rmtree(cache, ignore_errors=True)


def fleet_outcomes(specs, spec_dicts, served: dict) -> list:
    """Outcomes of a grid in spec order; a job the fleet gave up on is a
    failed outcome."""
    out = []
    for spec, d in zip(specs, spec_dicts):
        summary = served.get(spec.content_hash())
        out.append(Outcome(False, "missing", d["nbytes"], 0, 0, 0.0)
                   if summary is None else fleet_outcome(d, summary))
    return out


def run_sweep(specs, spec_dicts, outcomes: dict, timed: Timed):
    """One cold sweep on a fresh cache, recorded in ``timed``, then the
    same grid warm.  Returns ``(warm_s, cold_failed, mismatches,
    fleet_stats)``."""
    with fresh_fleet(fleet_workers()) as fleet:
        # the loop after this sweep is the one before the next: by then
        # the pool's workers are reaped and the host is the sweep's alone
        timed.calibrate()
        t = time.perf_counter()
        cold = fleet.run_specs(specs, strict=False)
        timed.record(0, time.perf_counter() - t)
        reap_children()
        t = time.perf_counter()
        warm = fleet.run_specs(specs, strict=False)
        warm_s = time.perf_counter() - t
    mismatches = cold_failed = 0
    for served in (cold, warm):
        for spec, out in zip(specs, fleet_outcomes(specs, spec_dicts,
                                                    served)):
            first = outcomes.setdefault(spec.content_hash(), out)
            mismatches += out.digest != first.digest
            cold_failed += served is cold and not out.ok
    return warm_s, cold_failed, mismatches, fleet.stats


def timed_fleet(grid, seconds: float) -> Timed:
    """Closed loop of sweeps: a cold sweep with at most ``nproc``
    workers, then the same grid served warm; repeat for ``seconds``."""
    from repro.fleet import RunSpec

    specs = [RunSpec.from_dict(d) for d in grid.specs]
    outcomes: dict = {}
    # the grid is the one input; each cold sweep is one execution of it
    timed = Timed(outcomes=[])
    warm_walls, stats = [], []
    start = time.perf_counter()
    while (len(timed.walls) <= TAIL_BEYOND
           or time.perf_counter() - start < seconds):
        warm_s, failed, mism, st = run_sweep(specs, grid.specs, outcomes,
                                             timed)
        warm_walls.append(warm_s)
        stats.append(st)
        timed.attempted += len(specs)
        timed.failed += failed
        timed.mismatches += mism
    timed.outcomes = [outcomes.get(s.content_hash()) or
                      Outcome(False, "missing", d["nbytes"], 0, 0, 0.0)
                      for s, d in zip(specs, grid.specs)]
    timed.normalise(1)
    timed.input_bytes = [sum(o.delivered_bytes for o in timed.outcomes)]
    timed.events = sum(o.events for o in timed.outcomes) * len(timed.walls)
    timed.extra = {
        "jobs": len(specs),
        "warm_walls": warm_walls,
        "cache_hits": sum(st.cached for st in stats),
        "retries": sum(st.retries for st in stats),
        "fleet_failed": sum(st.failed for st in stats),
    }
    return timed


# -- probes ------------------------------------------------------------


def probe_items(workload: str, inputs, probes: list[int]) -> list:
    if workload == "fleet_sweep":
        return [inputs[0].specs[i] for i in probes]
    return [inputs[i] for i in probes]


def probe_pass(workload: str, items, region=None):
    """Run the probes once in this process; returns (outcomes, wall s).

    ``region(i)`` is a context manager around input ``i`` -- the opcode
    counter, a root span, or nothing for the untraced baseline.  Fleet
    probes run as one in-process (``workers=1``) grid, cold (``i=0``)
    and then warm (``i=1``).
    """
    import workloads as wl

    region = region or (lambda i: contextlib.nullcontext())
    wall = 0.0
    if workload == "fleet_sweep":
        from repro.fleet import RunSpec

        specs = [RunSpec.from_dict(d) for d in items]
        with fresh_fleet(workers=1) as fleet:
            for i in range(2):
                t = time.perf_counter()
                with region(i):
                    served = fleet.run_specs(specs, strict=False)
                wall += time.perf_counter() - t
        return fleet_outcomes(specs, items, served), wall
    outs = []
    for i, inp in enumerate(items):
        t = time.perf_counter()
        with region(i):
            scenario = wl.build_scenario(inp)
            result = wl.run_input(inp, scenario)
        wall += time.perf_counter() - t
        outs.append(transfer_outcome(inp, scenario, result))
    return outs, wall


def bytecode_pass(workload: str, items):
    """Exact opcode counts per layer over the probes."""
    from layers import OpcodeCounter

    counter = OpcodeCounter()
    outs, wall = probe_pass(workload, items, lambda i: counter)
    return counter, outs, wall


def span_pass(workload: str, items):
    """Spans around every layer entry point, over the probes."""
    from layers import SpanRecorder, install_spans

    rec = SpanRecorder()
    uninstall = install_spans(rec)
    try:
        outs, wall = probe_pass(workload, items, rec.root)
    finally:
        uninstall()
    return rec, outs, wall


# -- metrics -----------------------------------------------------------


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with at
    least TAIL_BEYOND samples beyond it (the maximum when too few)."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def input_times(timed: Timed) -> list:
    """Each input's time: the median of its normalised walls."""
    return [statistics.median(ws) for ws in timed.by_input]


def tail_samples(timed: Timed) -> list:
    """The inputs' times; a one-input list's normalised executions."""
    return timed.norm_walls if len(timed.by_input) == 1 \
        else input_times(timed)


def interquartile_mean(values) -> float:
    """Mean of the middle half: steadier than the median on a skewed
    list, and unmoved by the few inputs in its heavy tail."""
    xs = sorted(values)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(timed: Timed, bytecodes_per_mb: float, setup_s: float,
               rss_mb: float) -> dict:
    """Times are normalised walls (see calibrate.py).  An input's time is
    the median over its repeats.  The speed is the list's delivered
    bytes over the sum of those times, and the mean latency is their
    mean, so an input counts once however many times it came round
    before the time was up.  (A median over a lossy list is not steady:
    one transfer's time follows its losses, the list's times spread
    twofold around the middle, and the middle input moves with the
    seed.)  The tail is a percentile over the inputs' times, or over the
    executions of a list of one input (the fleet grid).  Protocol
    counts
    are interquartile means over the input list: loss costs are
    heavy-tailed, and a middle-half mean neither follows one extreme
    input nor jumps between two modes the way a median can."""
    med = statistics.median
    iqm = interquartile_mean
    outs = timed.outcomes
    per_input = input_times(timed)

    def per_mb(key):
        return iqm(o.counters.get(key, 0) * 1e6 / o.payload_bytes
                   for o in outs if o.delivered_bytes)

    return {
        "sim_mb_per_s": _metric(
            sum(timed.input_bytes) / 1e6 / sum(per_input), "MB/s"),
        "transfer_ms_mean": _metric(
            statistics.fmean(per_input) * 1e3, "ms"),
        "transfer_ms_tail": _metric(tail(tail_samples(timed))[0] * 1e3,
                                    "ms"),
        "bytecodes_per_mb": _metric(bytecodes_per_mb, "opcodes/MB"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "sim_goodput_mbps": _metric(
            iqm(o.throughput_bps for o in outs) / 1e6, "Mb/s"),
        "sent_pkts_per_mb": _metric(per_mb("sent_pkts"), "pkts/MB"),
    }


def per_layer(workload, timed: Timed, counter, bc_outs, bc_wall, rec,
              span_outs, span_wall, plain_wall: float,
              fingerprint_ms: float) -> tuple[dict, dict]:
    """Per-layer metrics and the accounting record behind them."""
    from layers import LAYERS

    outs = timed.outcomes
    payload_mb = sum(o.payload_bytes for o in outs) / 1e6
    delivered_mb = sum(o.delivered_bytes for o in outs) / 1e6

    def csum(key):
        return sum(o.counters.get(key, 0) for o in outs)

    sub_mb = sum(o.delivered_bytes for o in span_outs) / 1e6 or 1e-9
    by_layer = counter.by_layer()
    total_ops = counter.total
    opcodes_per_event = total_ops / max(sum(o.events for o in bc_outs), 1)
    list_events = sum(o.events for o in outs)
    self_ns = rec.self_ns_by_layer()
    m: dict = {}

    def put(name, value, unit):
        m[name] = _metric(value, unit)

    def ms_per_mb(ns):
        return ns / 1e6 / sub_mb

    # sim
    put("sim.events_per_mb", list_events / max(delivered_mb, 1e-9),
        "events/MB")
    put("sim.events_per_s", timed.events / sum(timed.walls), "events/s")
    calls = rec.count("sim.call_at")
    put("sim.schedules_per_mb", calls / sub_mb, "calls/MB")
    put("sim.cancel_ratio", rec.count("sim.cancel") / max(calls, 1), "ratio")
    put("sim.timer_rearms_per_mb", rec.count("sim.mod_timer") / sub_mb,
        "calls/MB")
    put("sim.compactions", csum("compactions"), "count")
    # net
    tx = rec.count("net.try_transmit")
    put("net.tx_pkts_per_mb", tx / sub_mb, "pkts/MB")
    put("net.tx_refused_ratio", rec.refused / max(tx, 1), "ratio")
    deliveries = sum(rec.count(n) for n in (
        "net.medium_deliver", "net.link_broadcast", "net.pipe_send",
        "net.pipe_broadcast", "net.router_ingress"))
    put("net.deliveries_per_mb", deliveries / sub_mb, "calls/MB")
    put("net.drops_per_mb", csum("drops") / payload_mb, "pkts/MB")
    # kernel
    put("kernel.ip_sends_per_mb", rec.count("kernel.ip_send") / sub_mb,
        "calls/MB")
    put("kernel.cpu_runs_per_mb", rec.count("kernel.cpu_run") / sub_mb,
        "calls/MB")
    put("kernel.skb_queue_ops_per_mb",
        (rec.count("kernel.skb_enqueue") + rec.count("kernel.skb_dequeue"))
        / sub_mb, "calls/MB")
    recv_calls = rec.count("kernel.sock_recv")
    put("kernel.recv_calls_per_mb", recv_calls / sub_mb, "calls/MB")
    # core
    put("core.sender_rx_ms", ms_per_mb(rec.time_ns("core.sender_rx")),
        "ms/MB")
    put("core.receiver_rx_ms", ms_per_mb(rec.time_ns("core.receiver_rx")),
        "ms/MB")
    put("core.nak_list_ms", ms_per_mb(sum(rec.time_ns(n) for n in (
        "core.nak_add_gap", "core.nak_fill", "core.nak_fill_below",
        "core.nak_due"))), "ms/MB")
    put("core.nak_add_gap_per_mb", rec.count("core.nak_add_gap") / sub_mb,
        "calls/MB")
    put("core.naks_sent_per_mb", csum("naks_sent") / payload_mb, "pkts/MB")
    put("core.feedback_per_mb", csum("feedback") / max(delivered_mb, 1e-9),
        "pkts/MB")
    put("core.retrans_pkts_per_mb", csum("retrans_pkts") / payload_mb,
        "pkts/MB")
    put("core.dup_rx_ratio", csum("dup_pkts") / max(csum("data_pkts_rcvd"),
                                                    1), "ratio")
    put("core.ooo_pkts_per_mb", csum("ooo_pkts") / payload_mb, "pkts/MB")
    # apps
    sub_bytes = sum(o.delivered_bytes for o in span_outs)
    put("apps.bytes_per_recv_call", sub_bytes / max(recv_calls, 1),
        "bytes/call")
    # faults / trace
    put("faults.check_ms", ms_per_mb(sum(rec.time_ns(n) for n in (
        "faults.check_event", "faults.check_release",
        "faults.final_check"))), "ms/MB")
    put("faults.invariant_checks_per_mb",
        csum("invariant_checks") / max(delivered_mb, 1e-9), "checks/MB")
    put("faults.fault_events", csum("fault_events"), "count")
    # fleet
    fleet_m = {"fleet.job_overhead_ms": 0.0, "fleet.hash_us": 0.0,
               "fleet.hash_calls_per_job": 0.0, "fleet.store_get_us": 0.0,
               "fleet.store_put_us": 0.0, "fleet.fingerprint_ms": 0.0,
               "fleet.cache_hit_ratio": 0.0, "fleet.cold_jobs_per_s": 0.0,
               "fleet.warm_jobs_per_s": 0.0,
               "fleet.retries": 0.0, "fleet.failed": 0.0}
    if workload == "fleet_sweep":
        jobs = rec.count("fleet.job")
        hashes = rec.count("fleet.hash")
        gets = rec.count("fleet.store_get")
        puts = rec.count("fleet.store_put")
        ex = timed.extra
        fleet_m.update({
            "fleet.job_overhead_ms": (rec.time_ns("fleet.job")
                                      - rec.time_ns("harness.run_transfer"))
            / 1e6 / max(jobs, 1),
            "fleet.hash_us": rec.time_ns("fleet.hash") / 1e3
            / max(hashes, 1),
            # the span pass runs the probes cold, then warm
            "fleet.hash_calls_per_job": hashes / max(2 * jobs, 1),
            "fleet.store_get_us": rec.time_ns("fleet.store_get") / 1e3
            / max(gets, 1),
            "fleet.store_put_us": rec.time_ns("fleet.store_put") / 1e3
            / max(puts, 1),
            "fleet.fingerprint_ms": fingerprint_ms,
            "fleet.cache_hit_ratio": ex["cache_hits"]
            / (ex["jobs"] * len(timed.walls)),
            "fleet.cold_jobs_per_s": ex["jobs"]
            / statistics.median(timed.norm_walls),
            "fleet.warm_jobs_per_s": ex["jobs"]
            / statistics.median(ex["warm_walls"]),
            "fleet.retries": ex["retries"],
            "fleet.failed": ex["fleet_failed"],
        })
    units = {"fleet.job_overhead_ms": "ms", "fleet.hash_us": "us",
             "fleet.hash_calls_per_job": "calls/job",
             "fleet.store_get_us": "us", "fleet.store_put_us": "us",
             "fleet.fingerprint_ms": "ms", "fleet.cache_hit_ratio": "ratio",
             "fleet.cold_jobs_per_s": "jobs/s",
             "fleet.warm_jobs_per_s": "jobs/s", "fleet.retries": "count",
             "fleet.failed": "count"}
    for name, value in fleet_m.items():
        put(name, value, units[name])
    # harness
    builds = rec.count("harness.build")
    put("harness.build_ms", rec.time_ns("harness.build") / 1e6
        / max(builds, 1), "ms")
    # every layer: self time and opcodes (they add up to the totals)
    for layer in LAYERS:
        put(f"{layer}.self_ms", ms_per_mb(self_ns[layer]), "ms/MB")
        put(f"{layer}.bytecodes_per_mb", by_layer[layer] / sub_mb,
            "opcodes/MB")
    # accounting
    self_total = sum(self_ns.values())
    coverage = self_total / (span_wall * 1e9) if span_wall else 0.0
    put("acct.self_time_coverage", coverage, "ratio")
    put("acct.span_overhead", span_wall / plain_wall, "ratio")
    put("acct.bytecode_overhead", bc_wall / plain_wall, "ratio")
    put("acct.opcodes_per_event", opcodes_per_event, "opcodes/event")
    acct = {
        "opcodes_total": total_ops,
        "opcodes_by_layer": by_layer,
        "opcodes_partition_ok": sum(by_layer.values()) == total_ops,
        "self_ms_by_layer": {k: v / 1e6 for k, v in self_ns.items()},
        "self_time_sum_ms": self_total / 1e6,
        "span_wall_ms": span_wall * 1e3,
        "self_time_ok": abs(coverage - 1.0) <= SELF_TIME_TOLERANCE,
        "self_time_tolerance": SELF_TIME_TOLERANCE,
        "spans": len(rec.spans),
    }
    return m, acct


# -- setup -------------------------------------------------------------


def prepare(workload: str, seed: int):
    """Generate the inputs and make the first one ready to run."""
    import workloads as wl

    inputs = wl.make_inputs(workload, seed)
    if workload == "fleet_sweep":
        from repro.fleet import Fleet
        Fleet(workers=fleet_workers())     # computes the code fingerprint
    else:
        wl.build_scenario(inputs[0])
    return inputs


def probe_setup(workload: str, seed: int) -> tuple[list, list]:
    """Setup time measured in fresh interpreters: ``(raw, normalised)``
    seconds.  Each interpreter times calibration loops right after its
    set-up; their median is the host's speed for it."""
    times, norm = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"])
        loop = statistics.median(probe["loops_s"])
        norm += normalise([probe["setup_s"]], [0], [loop, loop])
    return times, norm


def peak_rss_mb(workload: str) -> float:
    who = (resource.RUSAGE_CHILDREN if workload == "fleet_sweep"
           else resource.RUSAGE_SELF)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, resource.getrusage(who).ru_maxrss) / 1024.0


def fingerprint_ms() -> float:
    """Median uncached ``code_fingerprint`` wall over five calls."""
    import repro
    from repro.fleet import code_fingerprint

    root = os.path.dirname(repro.__file__)
    walls = []
    for _ in range(5):
        t = time.perf_counter()
        code_fingerprint(root)
        walls.append(time.perf_counter() - t)
    return statistics.median(walls) * 1e3


# -- main --------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="measure set-up only and print it (internal)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = prepare(args.workload, args.seed)
    setup_here = time.perf_counter() - _T0
    if args.setup_probe:
        # the host's speed, timed in this process right after its set-up
        loops = [calibration_s() for _ in range(SETUP_LOOPS)]
        print(json.dumps({"setup_s": setup_here, "loops_s": loops}))
        return 0

    workload = args.workload
    phases = {"setup": setup_here}
    t = time.perf_counter()
    if workload == "fleet_sweep":
        timed = timed_fleet(inputs[0], args.seconds)
    else:
        timed = timed_transfers(inputs, args.seconds)
    rss = peak_rss_mb(workload)
    phases["timed"] = time.perf_counter() - t
    probes = wl.probe_indices(inputs)
    items = probe_items(workload, inputs, probes)
    expected = [timed.outcomes[i].digest for i in probes]

    t = time.perf_counter()
    counter, bc_outs, bc_wall = bytecode_pass(workload, items)
    phases["bytecode"] = time.perf_counter() - t
    digests = {"timed": expected, "bytecode": [o.digest for o in bc_outs]}
    record = {"workload": workload, "seed": args.seed,
              "inputs": len(timed.outcomes), "probes": probes,
              "digest": wl.combined_digest(
                  [o.digest for o in timed.outcomes]),
              "repeat_mismatches": timed.mismatches,
              "fewest_repeats": min(len(ws) for ws in timed.by_input),
              "calibration_ms": {
                  "median": statistics.median(timed.calibrations) * 1e3,
                  "min": min(timed.calibrations) * 1e3,
                  "max": max(timed.calibrations) * 1e3},
              "failed_inputs": [i for i, o in enumerate(timed.outcomes)
                                if not o.ok]}
    bytecodes_per_mb = counter.total / max(
        sum(o.delivered_bytes for o in bc_outs) / 1e6, 1e-9)
    t = time.perf_counter()
    if args.trace == 0:
        setup_raw, setup_norm = probe_setup(workload, args.seed)
        metrics = end_to_end(timed, bytecodes_per_mb,
                             statistics.median(setup_norm), rss)
        p, n = tail(tail_samples(timed))[1:]
        record.update({"setup_samples_s": setup_raw,
                       "setup_normalised_s": setup_norm,
                       "tail_percentile": p, "samples": n,
                       "probe_opcodes": counter.total})
        accounting_ok = (sum(counter.by_layer().values()) == counter.total)
    else:
        plain_outs, plain_wall = probe_pass(workload, items)
        rec, span_outs, span_wall = span_pass(workload, items)
        digests["plain"] = [o.digest for o in plain_outs]
        digests["span"] = [o.digest for o in span_outs]
        rec.write(str(WORK_DIR / f"spans-{workload}.txt"))
        fp = fingerprint_ms() if workload == "fleet_sweep" else 0.0
        metrics, acct = per_layer(workload, timed, counter, bc_outs, bc_wall,
                                  rec, span_outs, span_wall, plain_wall, fp)
        record["accounting"] = acct
        accounting_ok = acct["opcodes_partition_ok"] and acct["self_time_ok"]
    phases["rest"] = time.perf_counter() - t
    record["phases_s"] = phases
    passes_agree = all(d == expected for d in digests.values())
    record["passes_agree"] = passes_agree
    record["accounting_ok"] = accounting_ok
    # a successful input delivered at least one verified full copy
    sane = all(o.delivered_bytes >= o.payload_bytes
               for o in timed.outcomes if o.ok)
    correct = (passes_agree and accounting_ok and sane
               and timed.mismatches == 0)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": timed.attempted,
                      "failed": timed.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
