"""Core discrete-event engine.

Time is kept as an integer number of microseconds.  Integer time makes
simulations exactly reproducible (no floating-point drift in event
ordering) and is fine-grained enough for the paper's constants (the
smallest delay in the paper is the 10 us per-packet protocol cost; the
coarsest is the 2 s keepalive cap).

Events scheduled for the same instant fire in FIFO order of scheduling,
which gives deterministic traces for a fixed seed.

A scheduled event is a plain list ``[time, order, callback, args,
cause]``.  ``(time, order)`` is unique, so ``heapq`` orders entries in C
and never compares past ``order``.  ``cause`` is the causal-lineage node
id of the event that scheduled this one (0 when lineage is off or the
scheduler had no lineage; see :mod:`repro.obs.causal`).  Cancelling an
entry sets its callback slot to ``None``; it stays in the heap until
popped or compacted away.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, NamedTuple

__all__ = ["Simulator", "SimulationError", "PendingEvent",
           "US_PER_MS", "US_PER_SEC"]

US_PER_MS = 1_000
US_PER_SEC = 1_000_000

#: heap entry slots
_TIME, _ORDER, _CALLBACK, _ARGS, _CAUSE = range(5)


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. scheduling into the past)."""


class PendingEvent(NamedTuple):
    """One live entry, as :meth:`Simulator.pending_entries` reports it."""

    time: int
    callback: Callable
    cause: int


class Simulator:
    """Event-driven simulator with an integer microsecond clock.

    Usage::

        sim = Simulator()
        sim.call_at(100, print, "hello")
        sim.call_after(50, print, "first")
        sim.run()
    """

    #: heap compaction threshold: rebuild once more than half the heap
    #: is cancelled entries (and it is big enough to matter)
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self._now: int = 0
        self._heap: list[list] = []
        self._order: int = 0     # entries ever scheduled
        self._dead: int = 0      # cancelled entries still in the heap
        self._cancels: int = 0   # entries ever cancelled
        self.compactions: int = 0
        # optional instrumentation hook (see repro.obs.perf.profiler): when
        # set, every executed callback is routed through
        # ``profiler.execute(callback, args, sim_dt_us)`` where
        # ``sim_dt_us`` is the virtual-clock advance that firing caused.
        # Cancelled entries never reach the hook and compaction only
        # discards entries that will never fire, so attribution is exact.
        self.profiler = None
        # optional causal-lineage recorder (see repro.obs.causal): when
        # set, every scheduled entry captures the lineage of the event
        # scheduling it, and the recorder's ``current`` is restored to
        # that captured cause while the entry executes.  Pure
        # bookkeeping -- no events, no RNG, no reordering.
        self.lineage = None
        # per-simulator packet-id allocator: ids restart at 1 for every
        # run, so results never depend on what else the hosting process
        # has simulated before (fleet workers run many jobs each)
        self._next_packet_id = 0

    def new_packet_id(self) -> int:
        """Allocate the next :class:`~repro.net.packet.NetPacket` id."""
        self._next_packet_id += 1
        return self._next_packet_id

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now

    def now_seconds(self) -> float:
        return self._now / US_PER_SEC

    @property
    def events_processed(self) -> int:
        """Callbacks fired so far (one that raised included): every
        entry ever scheduled is fired, cancelled or still pending."""
        return self._order - self._cancels - self.pending()

    # -- scheduling ---------------------------------------------------

    def call_at(self, when: int, callback: Callable, *args: Any) -> list:
        """Schedule ``callback(*args)`` at absolute time ``when`` (us)."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} (now is {self._now})"
            )
        lineage = self.lineage
        entry = [int(when), self._order, callback, args,
                 0 if lineage is None else lineage.current]
        self._order += 1
        heappush(self._heap, entry)
        return entry

    def call_after(self, delay: int, callback: Callable, *args: Any) -> list:
        """Schedule ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + int(delay), callback, *args)

    def cancel(self, entry: list) -> None:
        """Cancel a scheduled entry that has not fired yet (idempotent).

        Cancellation is lazy (the entry stays in the heap until popped),
        but the heap is compacted once cancelled entries outnumber live
        ones: restartable timers re-armed every jiffy would otherwise
        accumulate dead entries for the whole run.
        """
        if entry[_CALLBACK] is not None:
            entry[_CALLBACK] = None
            self._cancels += 1
            self._dead += 1
            if (self._dead > self.COMPACT_MIN
                    and 2 * self._dead > len(self._heap)):
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify."""
        self._heap = [e for e in self._heap if e[_CALLBACK] is not None]
        heapify(self._heap)
        self._dead = 0
        self.compactions += 1

    # -- execution ----------------------------------------------------

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run until the event list drains, ``until`` (us) is reached, or
        ``max_events`` callbacks have fired.  Returns the final time.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier.
        """
        budget = max_events if max_events is not None else -1
        horizon = until if until is not None else float("inf")
        profiler = self.profiler
        lineage = self.lineage
        try:
            # NOTE: self._heap must be re-read every iteration -- a
            # callback may cancel enough entries to trigger _compact(),
            # which rebinds the list.
            while self._heap:
                entry = heappop(self._heap)
                time, _, callback, args, cause = entry
                if callback is None:
                    self._dead -= 1
                    continue
                if time > horizon:
                    # same (time, order) key: it keeps its FIFO place
                    heappush(self._heap, entry)
                    break
                if lineage is not None:
                    lineage.current = cause
                if profiler is None:
                    self._now = time
                    callback(*args)
                else:
                    prev, self._now = self._now, time
                    profiler.execute(callback, args, time - prev)
                if budget > 0:
                    budget -= 1
                    if budget == 0:
                        break
        finally:
            if lineage is not None:
                lineage.current = 0
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def step(self) -> bool:
        """Execute a single event.  Returns ``False`` when none remain."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return len(self._heap) - self._dead

    def peek_time(self) -> int | None:
        """Time of the next live event, or ``None`` if drained."""
        heap = self._heap
        while heap and heap[0][_CALLBACK] is None:
            heappop(heap)
            self._dead -= 1
        return heap[0][_TIME] if heap else None

    def pending_entries(self, limit: int = 32) -> list[PendingEvent]:
        """The next ``limit`` live entries in firing order, without
        disturbing the heap.  Diagnostic only (stall-frontier snapshots
        -- see repro.obs.diag); O(n log n) in the heap size."""
        live = sorted(e for e in self._heap if e[_CALLBACK] is not None)
        return [PendingEvent(e[_TIME], e[_CALLBACK], e[_CAUSE])
                for e in live[:limit]]
