"""R7: fork/signal machinery stays inside ``repro.fleet``.

Signal handlers are process-global: one installed from protocol code
would fire inside whichever run the worker happens to be executing.
Fork/subprocess reachability outside the fleet likewise breaks the
"a worker computes a pure function of its RunSpec" contract that the
content-addressed cache depends on.  Policy: ``os.fork``/``multi-
processing``/``subprocess`` only under ``repro.fleet``; handler
installation (``signal.signal``, ``setitimer``, ``alarm``) only in
``repro.fleet.worker``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import policy
from repro.analysis.astutil import ImportMap, dotted_name
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

_FORK_CALLS = frozenset({
    "os.fork", "os.forkpty", "os.kill", "os.waitpid", "os.wait",
    "os.system", "os.popen", "os.execv", "os.execve", "os.spawnv",
})
_FORK_MODULES = ("multiprocessing", "subprocess", "concurrent.futures",
                 "signal")
_HANDLER_CALLS = frozenset({
    "signal.signal", "signal.setitimer", "signal.alarm",
    "signal.sigaction", "signal.pthread_kill", "signal.raise_signal",
})


@register
class ForkSignalRule(Rule):
    id = "R7"
    title = "fork/signal machinery outside repro.fleet"
    hint = ("process management belongs to the fleet layer "
            "(repro.fleet.worker for handlers); protocol and model "
            "code must stay fork- and signal-free")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        fork_ok = policy.fork_allowed(ctx)
        handler_ok = policy.signal_handler_allowed(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    not fork_ok:
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.Call):
                resolved = imports.resolve(node.func) or \
                    dotted_name(node.func)
                if resolved in _FORK_CALLS and not fork_ok:
                    yield self.found(
                        ctx, node,
                        f"'{resolved}(...)' outside repro.fleet")
                elif resolved in _HANDLER_CALLS and not handler_ok:
                    yield self.found(
                        ctx, node,
                        f"'{resolved}(...)' installs process-global "
                        f"signal state outside repro.fleet.worker")

    def _check_import(self, ctx: ModuleContext,
                      node: ast.Import | ast.ImportFrom) -> \
            Iterator[Finding]:
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            if node.level or node.module is None:
                return
            modules = [node.module]
        for mod in modules:
            if any(mod == m or mod.startswith(m + ".")
                   for m in _FORK_MODULES):
                yield self.found(
                    ctx, node,
                    f"import of '{mod}' (fork/subprocess reachability) "
                    f"outside repro.fleet")
