"""Unified observability layer.

``repro.obs`` instruments a scenario without perturbing it:

* :mod:`repro.obs.metrics` -- deterministic counters, gauges, fixed-
  bucket histograms and time series, sampled on simulated time,
* :mod:`repro.obs.spans` -- packet-lifecycle latency histograms and
  protocol-phase spans stitched from the packet tap,
* :mod:`repro.obs.perf` -- the engine profiler (simulated-time and
  wall-clock attribution per callback site and event class), its
  flamegraph sampler and the allocation tracker,
* :mod:`repro.obs.causal` -- the per-run causal lineage DAG (who
  caused what, from fault action to repaired byte),
* :mod:`repro.obs.diag` -- root-cause queries over the DAG
  (``why(seq)``, ``explain_worst``, stall watchdog),
* :mod:`repro.obs.diffing` -- run-divergence alignment (first causally
  significant split between two runs),
* :mod:`repro.obs.html` -- dependency-free self-contained HTML report,
* :mod:`repro.obs.export` -- JSONL/CSV series dumps, text summaries
  and Chrome Trace Event Format JSON for Perfetto,
* :mod:`repro.obs.observer` -- the :class:`Observability` facade that
  wires the above into ``run_transfer(obs=...)``; its five switches
  (``profile``, ``sample_every``, ``alloc``, ``lineage``, ``health``)
  choose the instruments.
"""

from repro.obs.causal import (CauseNode, LineageRecorder, load_lineage,
                              walk_chain)
from repro.obs.diag import (Diagnoser, StallReport, Watchdog, WhyReport,
                            format_chain)
from repro.obs.diffing import DiffResult, RunArtifacts, diff_runs, load_run
from repro.obs.export import (chrome_trace, summary_text,
                              write_chrome_trace, write_series_csv,
                              write_series_jsonl)
from repro.obs.html import render_report, sparkline_svg, write_report
from repro.obs.metrics import (LATENCY_BOUNDS_US, Counter, Histogram,
                               MetricsRegistry, TimeSeries)
from repro.obs.observer import Observability
from repro.obs.perf.profiler import PerfProfiler, SiteStats, site_of
from repro.obs.spans import Span, SpanCollector

__all__ = [
    "Observability",
    "MetricsRegistry", "Counter", "Histogram", "TimeSeries",
    "LATENCY_BOUNDS_US",
    "Span", "SpanCollector",
    "PerfProfiler", "SiteStats", "site_of",
    "CauseNode", "LineageRecorder", "load_lineage", "walk_chain",
    "Diagnoser", "Watchdog", "WhyReport", "StallReport", "format_chain",
    "DiffResult", "RunArtifacts", "diff_runs", "load_run",
    "render_report", "sparkline_svg", "write_report",
    "chrome_trace", "summary_text", "write_chrome_trace",
    "write_series_csv", "write_series_jsonl",
]
