"""Per-layer instrumentation installed from outside the program.

Two passes, each run separately from the timed pass because both
distort timing:

* :class:`OpcodeCounter` -- the bytecode pass.  ``sys.settrace`` with
  ``f_trace_opcodes`` counts every CPython opcode executed and charges
  it to the layer of its code object's file (``src/repro/<layer>/``).
  Counts are exact and host-independent.
* :class:`SpanRecorder` + :func:`install_spans` -- the span pass.  It
  wraps each layer's public entry points (class attributes and the
  engine's ``Simulator.profiler`` hook), records one span per call with
  its parent and input id, and derives each layer's self time: a span's
  duration minus the time its child spans cover.

Nothing under ``src/`` is edited; wrappers are removed when the pass
ends.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
import time
from collections import defaultdict

__all__ = ["LAYERS", "layer_of_file", "OpcodeCounter", "SpanRecorder",
           "install_spans"]

#: the layers a per-layer metric is reported for; ``other`` takes the
#: standard library and the remaining repro packages (obs, stats, ...)
LAYERS = ("sim", "net", "kernel", "core", "apps", "faults", "trace",
          "fleet", "harness", "other")

_PACKAGE_LAYER = {name: name for name in LAYERS}
_PACKAGE_LAYER["workloads"] = "harness"
_repro_dir: str = ""
_file_layer: dict[str, str] = {}


def layer_of_file(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside repro)."""
    layer = _file_layer.get(filename)
    if layer is None:
        global _repro_dir
        if not _repro_dir:
            import repro
            _repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
        layer = "other"
        path = os.path.abspath(filename)
        if path.startswith(_repro_dir + os.sep):
            package = path[len(_repro_dir) + 1:].split(os.sep)[0]
            layer = _PACKAGE_LAYER.get(package, "other")
        _file_layer[filename] = layer
    return layer


# -- bytecode pass ----------------------------------------------------


class OpcodeCounter:
    """Count opcodes per code object while active (a context manager).

    The garbage collector is off inside the pass so that no finalizer
    runs at an allocation-dependent moment; the counts then repeat
    exactly from run to run.
    """

    def __init__(self) -> None:
        self._cells: dict = {}
        self._tracers: dict = {}

    def _global(self, frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        tracer = self._tracers.get(code)
        if tracer is None:
            cell = self._cells[code] = [0]

            def tracer(frame, event, arg, cell=cell):
                if event == "opcode":
                    cell[0] += 1
                return tracer

            self._tracers[code] = tracer
        return tracer

    def __enter__(self) -> "OpcodeCounter":
        gc.collect()
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        if self._gc_was_enabled:
            gc.enable()

    @property
    def total(self) -> int:
        return sum(cell[0] for cell in self._cells.values())

    def by_layer(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for code, cell in self._cells.items():
            out[layer_of_file(code.co_filename)] += cell[0]
        return out


# -- span pass --------------------------------------------------------


class SpanRecorder:
    """In-memory spans: ``(label, start_ns, end_ns, parent, input_id)``.

    ``parent`` is the index of the enclosing span in :attr:`spans` (-1
    for a root).  Self time is accumulated as spans close, per label.
    """

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.label_layer: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        # open spans: [label, start_ns, child_ns, own index, parent index]
        self._stack: list[list] = []
        self.input_id = -1
        self.calls: dict[int, int] = defaultdict(int)
        self.total_ns: dict[int, int] = defaultdict(int)
        self.self_ns: dict[int, int] = defaultdict(int)
        self.refused = 0                 # try_transmit returned False
        self.gen_calls: dict[int, int] = defaultdict(int)

    def label(self, name: str, layer: str) -> int:
        lid = self._label_ids.get(name)
        if lid is None:
            lid = self._label_ids[name] = len(self.labels)
            self.labels.append(name)
            self.label_layer.append(layer)
        return lid

    def enter(self, lid: int) -> None:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        # reserve the span's slot now so children can name their parent
        self.spans.append(None)
        stack.append([lid, time.perf_counter_ns(), 0,
                      len(self.spans) - 1, parent])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        lid, start, child_ns, pos, parent = self._stack.pop()
        dur = end - start
        self.spans[pos] = (lid, start, end, parent, self.input_id)
        self.calls[lid] += 1
        self.total_ns[lid] += dur
        self.self_ns[lid] += dur - child_ns
        if self._stack:
            self._stack[-1][2] += dur

    # -- summaries ---------------------------------------------------

    def count(self, name: str) -> int:
        """Calls of a function span; invocations of a generator span."""
        lid = self._label_ids.get(name)
        if lid is None:
            return 0
        return self.gen_calls.get(lid) or self.calls[lid]

    def time_ns(self, name: str) -> int:
        lid = self._label_ids.get(name)
        return self.total_ns[lid] if lid is not None else 0

    def self_ns_by_layer(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for lid, ns in self.self_ns.items():
            out[self.label_layer[lid]] += ns
        return out

    @contextlib.contextmanager
    def root(self, input_id: int):
        """A root span around one probe input (``harness.input``)."""
        self.input_id = input_id
        self.enter(self.label("harness.input", "harness"))
        try:
            yield
        finally:
            self.exit()

    def write(self, path: str) -> None:
        """Spans as text: a label table, then one span per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            fh.write("# label layer\n")
            for name, layer in zip(self.labels, self.label_layer):
                fh.write(f"L {name} {layer}\n")
            fh.write("# S label start_ns end_ns parent input\n")
            for lid, start, end, parent, inp in self.spans:
                fh.write(f"S {lid} {start - t0} {end - t0} {parent} {inp}\n")


def _span_function(rec: SpanRecorder, fn, name: str, layer: str):
    lid = rec.label(name, layer)
    enter, exit_ = rec.enter, rec.exit

    def wrapper(*args, **kwargs):
        enter(lid)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    wrapper.__wrapped__ = fn
    return wrapper


def _span_generator(rec: SpanRecorder, fn, name: str, layer: str):
    """Wrap a generator function: one span per resumption."""
    lid = rec.label(name, layer)
    enter, exit_ = rec.enter, rec.exit

    def wrapper(*args, **kwargs):
        rec.gen_calls[lid] += 1
        gen = fn(*args, **kwargs)
        value, error = None, None
        while True:
            enter(lid)
            try:
                yielded = gen.send(value) if error is None \
                    else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                exit_()
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                value, error = None, exc

    wrapper.__wrapped__ = fn
    return wrapper


class _CallbackSpans:
    """The engine's ``Simulator.profiler`` hook: one span per event,
    charged to the layer whose code the event dispatches to (a timer or
    process trampoline is resolved to the function or generator it
    drives)."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._lids: dict = {}

    def _label(self, callback) -> int:
        target = callback
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            inner = getattr(owner, "_callback", None)      # sim Timer
            gen = getattr(owner, "_gen", None)             # sim Process
            if inner is not None and callback.__name__ == "_fire":
                target = inner
            elif gen is not None and callback.__name__ == "_resume":
                target = gen
        code = (getattr(target, "gi_code", None)
                or getattr(getattr(target, "__func__", target), "__code__",
                           None))
        key = code if code is not None else type(target)
        lid = self._lids.get(key)
        if lid is None:
            layer = layer_of_file(code.co_filename) if code else "other"
            lid = self._lids[key] = self.rec.label(f"event:{layer}", layer)
        return lid

    def execute(self, callback, args, sim_dt_us) -> None:
        rec = self.rec
        rec.enter(self._label(callback))
        try:
            callback(*args)
        finally:
            rec.exit()


#: (module, class or None, attribute, span name, layer, kind)
_ENTRY_POINTS = [
    ("repro.sim.engine", "Simulator", "call_at", "sim.call_at", "sim", "f"),
    ("repro.sim.engine", "Simulator", "cancel", "sim.cancel", "sim", "f"),
    ("repro.sim.timer", "Timer", "mod_timer", "sim.mod_timer", "sim", "f"),
    ("repro.net.nic", "NetworkInterface", "medium_deliver",
     "net.medium_deliver", "net", "f"),
    ("repro.net.link", "SharedLink", "broadcast", "net.link_broadcast",
     "net", "f"),
    ("repro.net.router", "Pipe", "send", "net.pipe_send", "net", "f"),
    ("repro.net.router", "Pipe", "broadcast", "net.pipe_broadcast",
     "net", "f"),
    ("repro.net.router", "Router", "ingress", "net.router_ingress",
     "net", "f"),
    ("repro.kernel.host", "Host", "ip_send", "kernel.ip_send", "kernel",
     "f"),
    ("repro.kernel.host", "Host", "cpu_run", "kernel.cpu_run", "kernel",
     "f"),
    ("repro.kernel.host", "Host", "_packet_arrived", "kernel.rx",
     "kernel", "f"),
    ("repro.kernel.skbuff", "SkbQueue", "enqueue", "kernel.skb_enqueue",
     "kernel", "f"),
    ("repro.kernel.skbuff", "SkbQueue", "dequeue", "kernel.skb_dequeue",
     "kernel", "f"),
    ("repro.kernel.socket_api", "Socket", "send", "kernel.sock_send",
     "kernel", "g"),
    ("repro.kernel.socket_api", "Socket", "recv_payloads",
     "kernel.sock_recv", "kernel", "g"),
    ("repro.kernel.socket_api", "Socket", "close", "kernel.sock_close",
     "kernel", "g"),
    ("repro.core.sender", "HRMCSender", "segment_received",
     "core.sender_rx", "core", "f"),
    ("repro.core.sender", "HRMCSender", "sendmsg_some", "core.sendmsg",
     "core", "f"),
    ("repro.core.receiver", "HRMCReceiver", "segment_received",
     "core.receiver_rx", "core", "f"),
    ("repro.core.receiver", "HRMCReceiver", "recvmsg", "core.recvmsg",
     "core", "f"),
    ("repro.core.nak", "NakList", "add_gap", "core.nak_add_gap", "core",
     "f"),
    ("repro.core.nak", "NakList", "fill", "core.nak_fill", "core", "f"),
    ("repro.core.nak", "NakList", "fill_below", "core.nak_fill_below",
     "core", "f"),
    ("repro.core.nak", "NakList", "due", "core.nak_due", "core", "f"),
    ("repro.trace.tracer", "PacketTracer", "_make_tap", "trace.tap",
     "trace", "tap"),
    ("repro.faults.invariants", "InvariantChecker", "_on_event",
     "faults.check_event", "faults", "f"),
    ("repro.faults.invariants", "InvariantChecker", "_on_release",
     "faults.check_release", "faults", "f"),
    ("repro.faults.invariants", "InvariantChecker", "final_check",
     "faults.final_check", "faults", "f"),
    ("repro.faults.injector", "FaultInjector", "arm", "faults.arm",
     "faults", "f"),
    ("repro.fleet.spec", "RunSpec", "content_hash", "fleet.hash", "fleet",
     "f"),
    ("repro.fleet.store", "ResultStore", "get", "fleet.store_get", "fleet",
     "f"),
    ("repro.fleet.store", "ResultStore", "put", "fleet.store_put", "fleet",
     "f"),
    ("repro.fleet.executor", None, "execute_spec", "fleet.job", "fleet",
     "f"),
    ("repro.harness.runner", None, "run_transfer", "harness.run_transfer",
     "harness", "f"),
    ("repro.workloads.scenarios", None, "build_lan", "harness.build",
     "harness", "f"),
    ("repro.workloads.scenarios", None, "build_wan", "harness.build",
     "harness", "f"),
]


def install_spans(rec: SpanRecorder):
    """Wrap every entry point; returns an ``uninstall()`` callable.

    Install before building a scenario: several components capture
    bound methods (NIC handlers, pipe destinations) at build time.
    """
    import importlib

    from repro.sim.engine import Simulator

    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]
                     if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    for module, cls, attr, name, layer, kind in _ENTRY_POINTS:
        mod = importlib.import_module(module)
        owner = getattr(mod, cls) if cls else mod
        fn = owner.__dict__[attr] if cls else getattr(mod, attr)
        if kind == "g":
            patch(owner, attr, _span_generator(rec, fn, name, layer))
        elif kind == "tap":
            patch(owner, attr, _tap_maker(rec, fn, name, layer))
        else:
            patch(owner, attr, _span_function(rec, fn, name, layer))
    from repro.net.nic import NetworkInterface
    patch(NetworkInterface, "try_transmit",
          _try_transmit(rec, NetworkInterface.__dict__["try_transmit"]))

    hook = _CallbackSpans(rec)
    run_lid = rec.label("sim.run", "sim")
    orig_run = Simulator.__dict__["run"]

    def run(self, *args, **kwargs):
        self.profiler = hook
        rec.enter(run_lid)
        try:
            return orig_run(self, *args, **kwargs)
        finally:
            rec.exit()
            self.profiler = None

    patch(Simulator, "run", run)

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def _try_transmit(rec: SpanRecorder, fn):
    lid = rec.label("net.try_transmit", "net")
    enter, exit_ = rec.enter, rec.exit

    def wrapper(self, pkt):
        enter(lid)
        try:
            accepted = fn(self, pkt)
        finally:
            exit_()
        if not accepted:
            rec.refused += 1
        return accepted

    return wrapper


def _tap_maker(rec: SpanRecorder, make_tap, name: str, layer: str):
    """``PacketTracer._make_tap`` returns a per-host closure; span it."""

    def wrapper(self, host):
        return _span_function(rec, make_tap(self, host), name, layer)

    return wrapper
