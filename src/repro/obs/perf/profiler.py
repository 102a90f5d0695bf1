"""The engine profiler.

Attached as ``Simulator.profiler``, the engine routes every callback
through :meth:`PerfProfiler.execute`, which attributes two clocks --
the virtual-clock advance that reached each firing and the callback's
wall time -- per callback *site* (module-qualified function name) and
per **event class** (see :mod:`repro.obs.perf.taxonomy`; rendered as
the "tax table" of events/s and self-wall share per class).

* Site labels and classes are memoized by underlying function object
  (bound methods are recreated per schedule, so caching by callback
  identity would never hit -- the key is ``callback.__func__``); timer
  classes are memoized by timer name.
* With a :class:`~repro.obs.perf.flame.StackSampler`, every Nth
  executed callback is traced into the flamegraph; sampling is keyed
  to the deterministic event counter, never to wall time.
* Attribution is exact: cancelled entries never reach ``execute`` and
  heap compaction only touches entries that will never fire.

The profiler only exists when asked for (``Observability(profile=True)``);
otherwise ``Simulator.profiler`` stays ``None`` and the engine takes
the bare path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Optional

from repro.obs.perf.flame import StackSampler
from repro.obs.perf.taxonomy import EVENT_CLASSES, TIMER_FIRE, classify

__all__ = ["PerfProfiler", "SiteStats", "site_of"]


def site_of(callback: Callable) -> str:
    """Stable label for a callback site, e.g. ``nic.NetworkInterface._tx_done``."""
    fn = getattr(callback, "__func__", callback)
    module = getattr(fn, "__module__", "") or ""
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    # drop the common package prefix; keep the leaf module for context
    module = module.rsplit(".", 1)[-1]
    return f"{module}.{qualname}" if module else qualname


@dataclass
class SiteStats:
    """Per-site (or per-class) attribution."""

    events: int = 0
    sim_us: int = 0      # virtual-clock advance attributed here
    wall_ns: int = 0     # real time spent inside the callbacks


@dataclass
class PerfProfiler:
    """Engine profiler; assign to ``Simulator.profiler`` before running."""

    sites: dict[str, SiteStats] = field(default_factory=dict)
    classes: dict[str, SiteStats] = field(default_factory=dict)
    events: int = 0
    wall_ns_total: int = 0
    sampler: Optional[StackSampler] = None
    _fn_site: dict = field(default_factory=dict, repr=False)
    _class_of: dict = field(default_factory=dict, repr=False)

    def execute(self, callback: Callable, args: tuple, sim_dt_us: int) -> None:
        """Run ``callback(*args)`` under the profiler (called by the
        engine for every non-cancelled entry)."""
        fn = getattr(callback, "__func__", callback)
        site = self._fn_site.get(fn)
        if site is None:
            site = self._fn_site[fn] = site_of(callback)
        # every timer fires through Timer._fire and is classed by its
        # name; any other callback by its function
        key = getattr(callback, "__self__").name if fn is TIMER_FIRE \
            else fn
        ev_class = self._class_of.get(key)
        if ev_class is None:
            ev_class = self._class_of[key] = classify(callback)
        sstats = self.sites.get(site)
        if sstats is None:
            sstats = self.sites[site] = SiteStats()
        cstats = self.classes.get(ev_class)
        if cstats is None:
            cstats = self.classes[ev_class] = SiteStats()
        sampler = self.sampler
        t0 = perf_counter_ns()
        try:
            if sampler is not None and self.events % sampler.sample_every == 0:
                sampler.run(ev_class, site, callback, args)
            else:
                callback(*args)
        finally:
            wall = perf_counter_ns() - t0
            sstats.events += 1
            sstats.sim_us += sim_dt_us
            sstats.wall_ns += wall
            cstats.events += 1
            cstats.sim_us += sim_dt_us
            cstats.wall_ns += wall
            self.events += 1
            self.wall_ns_total += wall

    # -- views ----------------------------------------------------------

    def events_per_sec(self) -> float:
        """Engine throughput: callbacks executed per wall-clock second
        of callback time (the engine's own loop overhead excluded)."""
        if self.wall_ns_total <= 0:
            return 0.0
        return self.events * 1e9 / self.wall_ns_total

    def top(self, n: int = 10, key: str = "wall") -> list[list]:
        """``n`` hottest sites as table rows
        ``[site, events, sim_ms, wall_ms, wall_share]``."""
        if key not in ("wall", "sim", "events"):
            raise ValueError(f"unknown sort key {key!r}")
        idx = {"events": lambda s: s.events, "sim": lambda s: s.sim_us,
               "wall": lambda s: s.wall_ns}[key]
        ranked = sorted(self.sites.items(),
                        key=lambda kv: (-idx(kv[1]), kv[0]))
        total_wall = self.wall_ns_total or 1
        return [[site, s.events, round(s.sim_us / 1000, 1),
                 round(s.wall_ns / 1e6, 2),
                 f"{100.0 * s.wall_ns / total_wall:.1f}%"]
                for site, s in ranked[:n]]

    def coverage(self) -> float:
        """Fraction of executed callbacks attributed to a named class
        (1 - other/total); the acceptance bar is >= 0.95."""
        if self.events <= 0:
            return 1.0
        other = self.classes.get("other")
        return 1.0 - (other.events if other is not None else 0) / self.events

    def tax_rows(self) -> list[list]:
        """The tax table: one row per observed event class, in taxonomy
        order, ``[class, events, event_share, wall_ms, wall_share,
        avg_us, sim_ms]``."""
        total_events = self.events or 1
        total_wall = self.wall_ns_total or 1
        rows = []
        known = [c for c in EVENT_CLASSES if c in self.classes]
        extra = sorted(c for c in self.classes if c not in EVENT_CLASSES)
        for name in known + extra:
            s = self.classes[name]
            rows.append([
                name, s.events,
                f"{100.0 * s.events / total_events:.1f}%",
                round(s.wall_ns / 1e6, 2),
                f"{100.0 * s.wall_ns / total_wall:.1f}%",
                round(s.wall_ns / 1e3 / (s.events or 1), 2),
                round(s.sim_us / 1000, 1),
            ])
        return rows
