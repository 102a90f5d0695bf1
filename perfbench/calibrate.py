"""Host-speed calibration: a fixed pure-Python event loop, timed.

The benchmark runs on a few vCPUs of a shared host.  Other tenants slow
those vCPUs down by up to about 1.8x, in spells that last from a few
milliseconds to well over a run's length, so raw wall times of the same
code move by more than any useful regression bound from run to run.

The loop below does the kind of work the simulator does (a heap of
timestamped events, bound-method callbacks, small objects, dict and list
updates) but uses no code of the program.  The timed pass runs it before
every execution and once at the end.  The loops around an execution tell
how fast the host was while it ran, and ``normalise`` rescales its wall
time to the speed of the reference host, on which one loop takes
``REF_S``.  A change to the program moves the normalised time as it
moves the wall time; a change in the host's speed moves the loop as well
and mostly cancels.  A set-up probe, a fresh interpreter, times its own
loops right after its set-up instead.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

__all__ = ["REF_S", "calibration_s", "normalise"]

#: one calibration loop on the reference host: a 2-vCPU Xeon VM, while
#: its vCPUs were not contended
REF_S = 0.024
#: events per calibration loop
EVENTS = 16_000


class _Event:
    __slots__ = ("t", "fn", "args")

    def __init__(self, t, fn, args):
        self.t = t
        self.fn = fn
        self.args = args

    def __lt__(self, other):
        return self.t < other.t


class _Node:
    def __init__(self):
        self.queue = []
        self.count = 0
        self.seen = {}

    def rx(self, key, value):
        self.count += 1
        self.seen[key & 255] = value
        if len(self.queue) < 32:
            self.queue.append((key, value))
        else:
            self.queue.pop(0)


def _loop(n: int) -> int:
    heap = []
    nodes = [_Node() for _ in range(4)]
    for i in range(64):
        heapq.heappush(heap, _Event(i, nodes[i & 3].rx, (i, i * 2)))
    for i in range(n):
        ev = heapq.heappop(heap)
        ev.fn(*ev.args)
        heapq.heappush(heap, _Event(ev.t + (i * 7919) % 97 + 1,
                                    nodes[i & 3].rx, (i, str(i))))
    return sum(node.count for node in nodes)


def calibration_s() -> float:
    """Wall time of one calibration loop, in seconds.

    The collector is off while it runs: the loop makes no cycles, and a
    collection would walk the program's heap and time that instead.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _loop(EVENTS)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def normalise(walls: list, between: list, loops: list) -> list:
    """``walls`` at reference speed.

    Execution ``i`` ran between calibration loops ``between[i]`` and
    ``between[i] + 1``; the mean of those two is the host's speed over
    that gap.  A short spell of contention can catch a loop and miss the
    executions next to it, so an execution's speed is the median over
    its gap and the gaps either side.
    """
    gaps = [(a + b) / 2 for a, b in zip(loops, loops[1:])]
    return [wall * REF_S / statistics.median(gaps[max(0, j - 1):j + 2])
            for wall, j in zip(walls, between)]
