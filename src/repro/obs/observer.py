"""The observability facade: wire metrics, spans and the profiler into
a scenario without perturbing it.

``Observability`` attaches three read-only instruments to a built
scenario:

* a **scrape process** that samples registered gauges (window
  occupancy, socket-buffer usage, repair-cache bytes, advertised rate,
  NAK/UPDATE/retransmission rates, engine queue depth, per-link
  utilisation) into time series every :data:`SCRAPE_INTERVAL_US` of
  simulated time,
* a **span collector** riding the packet tap as a listener
  (packet-lifecycle latency histograms and protocol-phase spans), and
* optionally the **engine profiler** (simulated-time and wall-clock
  attribution per callback site and event class, with an optional
  flamegraph sampler) and the **allocation tracker**
  (:mod:`repro.obs.perf`).

Zero-perturbation guarantee: every gauge is a pure read, the span
collector never copies or mutates segments, and the scrape events only
interleave with -- never reorder -- protocol events (engine FIFO order
among same-time events is preserved, and no RNG stream is consumed).
A run with observability attached therefore produces a byte-identical
packet trace and final counters to an unobserved run; the regression
test in ``tests/obs`` holds this line.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.core.seq import seq_sub
from repro.obs.export import (summary_text, write_chrome_trace,
                              write_series_csv, write_series_jsonl)
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf.alloc import AllocTracker
from repro.obs.perf.flame import StackSampler
from repro.obs.perf.profiler import PerfProfiler
from repro.obs.spans import SpanCollector

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.tracer import PacketTracer
    from repro.workloads.scenarios import Scenario

__all__ = ["Observability", "SCRAPE_INTERVAL_US"]

#: simulated time between gauge samples (50 ms -- five jiffies, fine
#: enough to see rate-control dynamics without bloating dumps)
SCRAPE_INTERVAL_US = 50_000


class Observability:
    """One observed run: construct, pass to ``run_transfer(obs=...)``.

    Parameters
    ----------
    profile:
        Attach the engine profiler (adds a few percent of wall-clock
        overhead; simulated behaviour is unaffected either way).
    sample_every:
        With ``profile``, trace every Nth executed engine event into
        the flamegraph (0, the default, samples nothing).
    alloc:
        Track allocations and GC pauses per protocol phase
        (tracemalloc; heavy).
    lineage:
        Record the causal lineage DAG and run the stall watchdog.
    health:
        Attach the protocol-health views.
    """

    def __init__(self, *, profile: bool = False, sample_every: int = 0,
                 alloc: bool = False, lineage: bool = False,
                 health: bool = False):
        if sample_every < 0 or (sample_every and not profile):
            raise ValueError("sample_every must be >= 0 and needs "
                             "profile=True")
        self.registry = MetricsRegistry()
        # the protocol-health observatory (repro.obs.health): ledger
        # views live in this registry so they ride every export
        self.health = None
        if health:
            from repro.obs.health import HealthMonitor
            self.health = HealthMonitor(self.registry)
        self.profiler: Optional[PerfProfiler] = None
        if profile:
            self.profiler = PerfProfiler(
                sampler=StackSampler(sample_every) if sample_every
                else None)
        self.alloc: Optional[AllocTracker] = \
            AllocTracker() if alloc else None
        self.spans: Optional[SpanCollector] = None
        self._sim = None
        self.attached = False
        self.finalized_at_us: Optional[int] = None
        # causal lineage + diagnosis (repro.obs.causal / .diag): pure
        # bookkeeping riding the same attach, preserving the
        # zero-perturbation guarantee
        self._want_lineage = bool(lineage)
        self.lineage = None
        self.watchdog = None
        self.tracer = None

    # -- wiring ---------------------------------------------------------

    def attach(self, scenario: "Scenario", tracer: "PacketTracer", *,
               ssock=None, rsocks=()) -> "Observability":
        """Register gauges over the scenario's layers, hook the span
        collector onto the tracer and start the scrape loop.  Call
        after sockets exist and before the simulation runs (the harness
        does this when given ``obs=``)."""
        if self.attached:
            raise RuntimeError("Observability instance already attached")
        self.attached = True
        self._sim = sim = scenario.sim
        self.tracer = tracer
        reg = self.registry

        self.spans = SpanCollector(scenario.sender.addr)
        tracer.add_listener(self.spans.on_event)

        if self.health is not None:
            self.health.watch(ssock, rsocks)

        if self._want_lineage:
            from repro.obs.causal import LineageRecorder
            from repro.obs.diag import Watchdog
            self.lineage = LineageRecorder(sim)
            sim.lineage = self.lineage
            self.watchdog = Watchdog(
                sim, self._progress_signature(ssock, list(rsocks)))

        # engine
        reg.gauge("engine.queue_depth", sim.pending)
        reg.rate_gauge("engine.events_per_s",
                       lambda: sim.events_processed)

        # sender endpoint (roles are created lazily at connect/join; a
        # gauge returning None simply skips the sample)
        if ssock is not None:
            t = ssock.transport
            reg.gauge("sender.sndbuf_used_bytes",
                      lambda: self._sock_bytes(t, "write_queue"))
            reg.gauge("sender.window_bytes", lambda: self._window_bytes(t))
            reg.gauge("sender.rate_adv_bps", lambda: self._rate_bps(t))
            reg.gauge("sender.members", lambda: self._members(t))
            stats = t.stats
            reg.rate_gauge("sender.naks_per_s", lambda: stats.naks_rcvd)
            reg.rate_gauge("sender.updates_per_s",
                           lambda: stats.updates_rcvd)
            reg.rate_gauge("sender.retrans_per_s",
                           lambda: stats.retrans_pkts)
            reg.rate_gauge("sender.data_bytes_per_s",
                           lambda: stats.data_bytes_sent)

        # receiver endpoints, aggregated (per-host series would explode
        # for the 100-receiver scaling scenarios)
        rsocks = list(rsocks)
        if rsocks:
            reg.gauge("recv.rcvbuf_used_bytes",
                      lambda: self._sum(rsocks, self._rcvbuf_used))
            reg.gauge("recv.repair_cache_bytes",
                      lambda: self._sum(rsocks, self._repair_cache))
            reg.gauge("recv.nak_ranges",
                      lambda: self._sum(rsocks, self._nak_ranges))

        # network fabric
        for name, medium in self._link_surfaces(scenario.network):
            bw = float(getattr(medium, "bandwidth_bps", 0.0) or
                       scenario.bandwidth_bps)
            reg.rate_gauge(f"link.{name}.util_pct",
                           (lambda m: lambda: m.bytes_carried)(medium),
                           unit="%", scale=800.0 / bw)
        reg.rate_gauge("net.drops_per_s",
                       lambda: sum(scenario.network.drop_summary()
                                   .values()))

        if self.profiler is not None:
            sim.profiler = self.profiler
        if self.alloc is not None:
            self.alloc.start()

        self._tick()   # scrape t=0, then self-schedule
        return self

    def _tick(self) -> None:
        self.registry.scrape(self._sim.now)
        if self.alloc is not None and self.spans is not None:
            # heap/GC sampling rides the scrape tick: no extra events
            self.alloc.sample(self._sim.now, self.spans.current_phase())
        if self.watchdog is not None:
            # passive mid-run stall detection: piggybacks on the scrape
            # tick instead of scheduling its own events (two
            # pending-gated loops would keep each other alive forever)
            self.watchdog.check(self._sim.now)
        # re-arm only while other work is scheduled: when the protocol
        # drains, the scrape loop stops instead of ticking to the run's
        # time horizon
        if self._sim.pending() > 0:
            self._sim.call_after(SCRAPE_INTERVAL_US, self._tick)

    def finalize(self, now_us: int) -> None:
        """Final scrape and span close-out; the harness calls this when
        the simulation stops."""
        if self.finalized_at_us is not None:
            return
        self.finalized_at_us = now_us
        self.registry.scrape(now_us)
        if self.spans is not None:
            self.spans.finalize(now_us)
        if self.alloc is not None:
            phase = self.spans.current_phase() if self.spans else "idle"
            self.alloc.sample(now_us, phase)
            self.alloc.stop()
        if self.health is not None:
            self.health.finalize()

    @staticmethod
    def _progress_signature(ssock, rsocks):
        """A pure-read signature of transport progress for the
        watchdog: the sender's next-to-send plus every receiver's
        next-expected sequence.  Frozen signature + pending events =
        the run is burning simulated time without moving data."""
        def signature() -> tuple:
            parts = []
            sender = getattr(getattr(ssock, "transport", None),
                             "sender", None)
            parts.append(getattr(sender, "snd_nxt", None))
            for sock in rsocks:
                receiver = getattr(getattr(sock, "transport", None),
                                   "receiver", None)
                parts.append(getattr(receiver, "rcv_nxt", None))
            return tuple(parts)
        return signature

    def diag(self):
        """A :class:`~repro.obs.diag.Diagnoser` over this run's causal
        DAG (requires ``lineage=True``)."""
        if self.lineage is None:
            raise RuntimeError("Observability(lineage=True) required "
                               "for diagnosis")
        from repro.obs.diag import Diagnoser
        return Diagnoser(self.lineage, spans=self.spans,
                         watchdog=self.watchdog)

    # -- gauge helpers (pure reads, defensive against role lifecycles) --

    @staticmethod
    def _sock_bytes(transport, queue: str) -> Optional[int]:
        sock = getattr(transport, "sock", None)
        q = getattr(sock, queue, None)
        return None if q is None else q.bytes

    @staticmethod
    def _window_bytes(transport) -> Optional[int]:
        sender = getattr(transport, "sender", None)
        if sender is not None:
            return seq_sub(sender.snd_nxt, sender.snd_wnd)
        if hasattr(transport, "snd_nxt") and hasattr(transport, "snd_una"):
            return seq_sub(transport.snd_nxt, transport.snd_una)
        if hasattr(transport, "snd_nxt") and hasattr(transport, "snd_wnd"):
            return seq_sub(transport.snd_nxt, transport.snd_wnd)
        return None

    @staticmethod
    def _rate_bps(transport) -> Optional[int]:
        sender = getattr(transport, "sender", None)
        rate = getattr(sender, "rate", None)
        return None if rate is None else rate.rate_bps

    @staticmethod
    def _members(transport) -> Optional[int]:
        sender = getattr(transport, "sender", None)
        members = getattr(sender, "members", None)
        return None if members is None else len(members)

    @staticmethod
    def _sum(socks, fn) -> Optional[float]:
        values = [v for v in (fn(s.transport) for s in socks)
                  if v is not None]
        return sum(values) if values else None

    @staticmethod
    def _rcvbuf_used(transport) -> Optional[int]:
        sock = getattr(transport, "sock", None)
        return None if sock is None else sock.receive_queue.bytes

    @staticmethod
    def _repair_cache(transport) -> Optional[int]:
        receiver = getattr(transport, "receiver", None)
        return getattr(receiver, "_repair_cache_bytes", None)

    @staticmethod
    def _nak_ranges(transport) -> Optional[int]:
        receiver = getattr(transport, "receiver", None)
        naks = getattr(receiver, "naks", None)
        return None if naks is None else len(naks)

    @staticmethod
    def _link_surfaces(network) -> list[tuple[str, object]]:
        """Media worth a utilisation series: the LAN segment, or the
        WAN's per-group downlinks (per-receiver tail pipes would bloat
        scaling runs)."""
        out: list[tuple[str, object]] = []
        link = getattr(network, "link", None)
        if link is not None:
            out.append((link.name, link))
        for pipe in getattr(network, "_group_down", {}).values():
            out.append((pipe.name, pipe))
        return out

    # -- views / export -------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Latest value of every series and counter (attached to
        :class:`~repro.faults.invariants.InvariantViolation`)."""
        snap = self.registry.snapshot()
        if self.spans is not None:
            for hist in self.spans.histograms():
                if hist.count:
                    snap[f"{hist.name}.p50"] = hist.quantile(0.5)
                    snap[f"{hist.name}.count"] = hist.count
        return snap

    def summary_tables(self) -> list[tuple[str, list, list]]:
        """(title, headers, rows) tables for harness reports."""
        tables = []
        rows = self.registry.summary_rows()
        if rows:
            tables.append(("observed metric series",
                           ["series", "samples", "min", "mean", "max",
                            "last"], rows))
        if self.spans is not None:
            hist_rows = [[h.name, h.count, round(h.mean, 0),
                          round(h.quantile(0.5), 0),
                          round(h.quantile(0.9), 0), round(h.max, 0)]
                         for h in self.spans.histograms() if h.count]
            if hist_rows:
                tables.append(("packet-lifecycle latency (us)",
                               ["histogram", "n", "mean", "p50", "p90",
                                "max"], hist_rows))
        tables.extend(self.perf_tables())
        if self.health is not None:
            tables.extend(self.health.summary_tables())
        return tables

    def perf_tables(self) -> list[tuple[str, list, list]]:
        """The profiler's tax table and the allocation tables, as far
        as those instruments are on."""
        tables = []
        prof = self.profiler
        if prof is not None and prof.events:
            tables.append((
                f"event-class tax table (coverage "
                f"{100.0 * prof.coverage():.1f}%)",
                ["class", "events", "ev%", "wall_ms", "wall%",
                 "avg_us", "sim_ms"], prof.tax_rows()))
        if self.alloc is not None:
            phase_rows = self.alloc.phase_rows()
            if phase_rows:
                tables.append(("heap by phase",
                               ["phase", "samples", "max_cur_kb",
                                "max_peak_kb", "gc_runs", "gc_pause_ms"],
                               phase_rows))
            growth_rows = self.alloc.growth_rows()
            if growth_rows:
                tables.append(("top allocation growth",
                               ["site", "kb", "blocks"], growth_rows))
        return tables

    def summary(self) -> str:
        """The text timeline/summary (see :func:`repro.obs.export.summary_text`)."""
        return summary_text(self)

    def write_artifacts(self, outdir: str, *, prefix: str = "run",
                        html: bool = False) -> dict[str, str]:
        """Write every export into ``outdir``: JSONL + CSV series, the
        Perfetto trace and the text summary; with lineage enabled also
        the packet trace + causal DAG (the inputs ``hrmc diff`` and
        ``hrmc why`` align), and optionally the self-contained HTML
        report.  Returns name -> path."""
        os.makedirs(outdir, exist_ok=True)
        paths = {
            "series_jsonl": os.path.join(outdir, f"{prefix}.series.jsonl"),
            "series_csv": os.path.join(outdir, f"{prefix}.series.csv"),
            "perfetto": os.path.join(outdir, f"{prefix}.perfetto.json"),
            "summary": os.path.join(outdir, f"{prefix}.summary.txt"),
        }
        write_series_jsonl(self.registry, paths["series_jsonl"])
        write_series_csv(self.registry, paths["series_csv"])
        write_chrome_trace(self, paths["perfetto"])
        with open(paths["summary"], "w") as fh:
            fh.write(self.summary())
            fh.write("\n")
        sampler = self.profiler.sampler if self.profiler else None
        if sampler is not None:
            paths["collapsed"] = os.path.join(outdir,
                                              f"{prefix}.collapsed.txt")
            sampler.write_collapsed(paths["collapsed"])
        if self.tracer is not None and self.lineage is not None:
            paths["trace"] = os.path.join(outdir, f"{prefix}.trace.jsonl")
            self.tracer.save(paths["trace"])
            paths["lineage"] = os.path.join(outdir,
                                            f"{prefix}.lineage.jsonl")
            self.lineage.save(paths["lineage"])
        if html:
            from repro.obs.html import write_report
            paths["html"] = os.path.join(outdir, f"{prefix}.report.html")
            write_report(paths["html"], self,
                         title=f"H-RMC run report: {prefix}",
                         diagnoser=self.diag() if self.lineage is not None
                         else None)
        return paths
