"""R1: no wall-clock reads on the simulation path.

Simulated time comes from ``Simulator.now()``; a host-clock read in
protocol or model code makes behaviour depend on the machine's load and
breaks byte-identical replay.  The harness/profiler/executor
carve-outs live in :mod:`repro.analysis.policy`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import policy
from repro.analysis.astutil import ImportMap
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

#: fully-qualified callables that read the host clock -- including the
#: process-level measurement machinery (tracemalloc, gc control): heap
#: and collector state vary with the hosting machine exactly like a
#: clock read, so they are fenced to the same boundary modules (the
#: perf observatory, repro.obs.perf)
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "tracemalloc.start", "tracemalloc.stop",
    "tracemalloc.take_snapshot", "tracemalloc.get_traced_memory",
    "tracemalloc.reset_peak", "tracemalloc.is_tracing",
    "gc.collect", "gc.enable", "gc.disable", "gc.freeze",
    "gc.set_threshold", "gc.set_debug",
})


@register
class WallClockRule(Rule):
    id = "R1"
    title = "wall-clock read on the simulation path"
    hint = ("use the simulator's clock (sim.now()) or move the code "
            "behind a policy carve-out (repro.analysis.policy."
            "WALLCLOCK_ALLOWED) if it is genuinely harness-side")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not policy.wallclock_allowed(ctx)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if isinstance(node.ctx if hasattr(node, "ctx") else None,
                          (ast.Store, ast.Del)):
                continue
            resolved = imports.resolve(node)
            if resolved in WALLCLOCK_CALLS:
                # report the outermost matching expression only: for
                # `time.time` the Name node `time` also resolves, but
                # to "time" which is not in the set, so no double fire
                yield self.found(
                    ctx, node,
                    f"wall-clock read '{resolved}' in simulation-path "
                    f"module {ctx.module}")
