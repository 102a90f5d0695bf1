"""Allocation and GC-pause tracking (strictly opt-in).

``tracemalloc`` costs real memory and slows every allocation while
tracing, so this tracker only ever exists when the user passes
``--alloc`` (or ``Observability(alloc=True)``); a disabled run makes
no tracemalloc or gc call at all -- the zero-perturbation tests pin
that down.

When enabled the tracker:

* samples ``tracemalloc.get_traced_memory()`` on every observability
  scrape tick, attributing current/peak heap bytes to the run's
  *protocol phase* (join / transfer / recovery / close, from the PR 2
  span collector) with per-phase peaks isolated via ``reset_peak``;
* counts collector runs and sums collection pause wall time per phase
  through ``gc.callbacks``;
* on stop, diffs a final snapshot against the attach-time baseline and
  keeps the top allocation sites by net growth.

Heap numbers are *measurement artifacts, not simulation state*: they
never feed back into the run (simlint's R1 boundary keeps tracemalloc
and gc calls fenced inside ``repro.obs.perf``).
"""

from __future__ import annotations

import gc
import tracemalloc
from time import perf_counter_ns

__all__ = ["AllocTracker", "PhaseAlloc"]

#: allocation-growth sites kept in the report
TOP_SITES = 10


class PhaseAlloc:
    """Per-phase aggregate of heap samples and GC activity."""

    __slots__ = ("samples", "last_current", "max_current", "max_peak",
                 "gc_collections", "gc_collected", "gc_pause_ns")

    def __init__(self) -> None:
        self.samples = 0
        self.last_current = 0
        self.max_current = 0
        self.max_peak = 0
        self.gc_collections = 0
        self.gc_collected = 0
        self.gc_pause_ns = 0


class AllocTracker:
    """tracemalloc + gc accounting for one observed run."""

    def __init__(self) -> None:
        self.phases: dict[str, PhaseAlloc] = {}
        self.phase_order: list[str] = []
        self.growth_sites: list[tuple[str, int, int]] = []  # (site, bytes, blocks)
        self.total_gc_collections = 0
        self.total_gc_pause_ns = 0
        self._phase = ""
        self._baseline = None
        self._owns_tracing = False
        self._running = False
        self._gc_t0 = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._owns_tracing = not tracemalloc.is_tracing()
        if self._owns_tracing:
            tracemalloc.start()
        self._baseline = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        gc.callbacks.append(self._gc_hook)

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        try:
            gc.callbacks.remove(self._gc_hook)
        except ValueError:
            pass
        end = tracemalloc.take_snapshot()
        if self._owns_tracing:
            tracemalloc.stop()
        diffs = end.compare_to(self._baseline, "lineno")
        self._baseline = None
        top = sorted(diffs, key=lambda d: (-d.size_diff, str(d.traceback)))
        sites = []
        for stat in top[:TOP_SITES]:
            frame = stat.traceback[0]
            name = frame.filename.replace("\\", "/")
            if "/src/" in name:
                name = name.split("/src/")[-1]
            else:
                name = "/".join(name.rsplit("/", 2)[-2:])
            sites.append((f"{name}:{frame.lineno}",
                          stat.size_diff, stat.count_diff))
        self.growth_sites = sites

    # -- sampling --------------------------------------------------------

    def _phase_stats(self, phase: str) -> PhaseAlloc:
        stats = self.phases.get(phase)
        if stats is None:
            stats = self.phases[phase] = PhaseAlloc()
            self.phase_order.append(phase)
        return stats

    def sample(self, now_us: int, phase: str) -> None:
        """Record one heap sample, attributed to ``phase`` (called from
        the observability scrape tick)."""
        if not self._running:
            return
        if phase != self._phase:
            # per-phase peaks: a new phase starts with a fresh peak mark
            tracemalloc.reset_peak()
            self._phase = phase
        current, peak = tracemalloc.get_traced_memory()
        stats = self._phase_stats(phase)
        stats.samples += 1
        stats.last_current = current
        if current > stats.max_current:
            stats.max_current = current
        if peak > stats.max_peak:
            stats.max_peak = peak

    def _gc_hook(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter_ns()
            return
        pause = perf_counter_ns() - self._gc_t0
        stats = self._phase_stats(self._phase or "idle")
        stats.gc_collections += 1
        stats.gc_collected += int(info.get("collected", 0))
        stats.gc_pause_ns += pause
        self.total_gc_collections += 1
        self.total_gc_pause_ns += pause

    # -- views -----------------------------------------------------------

    def phase_rows(self) -> list[list]:
        """``[phase, samples, max_current_kb, max_peak_kb, gc_runs,
        gc_pause_ms]`` in first-seen phase order."""
        rows = []
        for phase in self.phase_order:
            s = self.phases[phase]
            rows.append([phase, s.samples,
                         round(s.max_current / 1024, 1),
                         round(s.max_peak / 1024, 1),
                         s.gc_collections,
                         round(s.gc_pause_ns / 1e6, 2)])
        return rows

    def growth_rows(self) -> list[list]:
        """Top net-growth allocation sites: ``[site, kb, blocks]``."""
        return [[site, round(nbytes / 1024, 1), blocks]
                for site, nbytes, blocks in self.growth_sites]
