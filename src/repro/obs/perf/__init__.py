"""Hot-path performance observatory (``repro.obs.perf``).

Explains where one run's wall time goes (performance itself is measured
by ``perfbench/``).  Three instruments ride the ``Simulator.profiler``
hook and the observability scrape tick:

* **event-class tax table** -- every executed callback attributed to a
  stable taxonomy (:mod:`~repro.obs.perf.taxonomy`), reported as
  events/s and self-wall share per class;
* **deterministic flamegraphs** -- every Nth event traced to a
  collapsed-stack profile (:mod:`~repro.obs.perf.flame`), rendered
  into the self-contained HTML report;
* **allocation & GC tracking** -- tracemalloc phase snapshots and
  gc-pause counters (:mod:`~repro.obs.perf.alloc`), strictly opt-in.

:class:`~repro.obs.observer.Observability` owns all three::

    obs = Observability(profile=True, sample_every=16, alloc=True)
    res = run_transfer(build_lan(...), obs=obs)
    print(obs.profiler.tax_rows())
    obs.write_artifacts("out")     # ... plus <prefix>.collapsed.txt

Wall-clock reads (``perf_counter_ns``, tracemalloc, gc) are measurement
artifacts that never feed back into simulated behaviour; simlint's R1
rule fences them inside this package.  When profiling is off the hot
path pays nothing: ``Simulator.profiler`` stays ``None`` and no perf
object exists (the disabled-path tests assert byte-identical traces and
a zero tracemalloc diff).
"""

from __future__ import annotations

from repro.obs.perf.alloc import AllocTracker
from repro.obs.perf.flame import StackSampler, flamegraph_svg
from repro.obs.perf.profiler import PerfProfiler, SiteStats, site_of
from repro.obs.perf.taxonomy import EVENT_CLASSES, classify, timer_class

__all__ = ["PerfProfiler", "SiteStats", "site_of", "StackSampler",
           "AllocTracker", "EVENT_CLASSES", "classify", "timer_class",
           "flamegraph_svg"]
