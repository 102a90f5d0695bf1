"""Receiver-side NAK bookkeeping with local suppression.

The receiver keeps a list of missing byte ranges (the "Pending NAK
list" of paper Figure 9).  A NAK is sent when a range is first
detected; the NAK manager (``nak_timer``) re-sends NAKs for ranges that
remain missing, but never before the sender has had ample opportunity
to respond -- the *local NAK suppression* interval, a multiple of the
receiver's RTT estimate.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.core.seq import (seq_geq, seq_gt, seq_leq, seq_lt, seq_max,
                            seq_min, seq_sub)

__all__ = ["NakRange", "NakList"]


class NakRange:
    """One missing byte range [start, end)."""

    __slots__ = ("start", "end", "last_sent_us", "tries", "created_us",
                 "local_tries")

    def __init__(self, start: int, end: int, now_us: int):
        self.start = start
        self.end = end
        self.created_us = now_us
        self.last_sent_us = -(10 ** 12)
        self.tries = 0
        self.local_tries = 0  # multicast repair requests (local recovery)

    @property
    def length(self) -> int:
        return seq_sub(self.end, self.start)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NakRange([{self.start},{self.end}) tries={self.tries})"


class NakList:
    """Ordered, disjoint set of missing ranges."""

    def __init__(self):
        self._ranges: list[NakRange] = []

    def __len__(self) -> int:
        return len(self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __iter__(self) -> Iterator[NakRange]:
        return iter(self._ranges)

    def total_missing(self) -> int:
        return sum(r.length for r in self._ranges)

    def add_gap(self, start: int, end: int, now_us: int) -> list[NakRange]:
        """Record that [start, end) is missing.  Returns the newly
        created ranges (portions not already tracked)."""
        if seq_geq(start, end):
            return []
        new: list[NakRange] = []
        cursor = start
        merged: list[NakRange] = []
        for rng in self._ranges:
            if seq_leq(rng.end, cursor) or seq_geq(rng.start, end):
                merged.append(rng)
                continue
            # overlap: keep existing range, emit any uncovered prefix
            if seq_lt(cursor, rng.start):
                fresh = NakRange(cursor, rng.start, now_us)
                new.append(fresh)
                merged.append(fresh)
            merged.append(rng)
            cursor = seq_max(cursor, rng.end)
        if seq_lt(cursor, end):
            fresh = NakRange(cursor, end, now_us)
            new.append(fresh)
            merged.append(fresh)
        merged.sort(key=lambda r: seq_sub(r.start, start))
        # normalize ordering by absolute position relative to first element
        base = merged[0].start if merged else 0
        merged.sort(key=lambda r: seq_sub(r.start, base))
        self._ranges = merged
        return new

    def fill(self, start: int, end: int) -> list[NakRange]:
        """Data [start, end) arrived; shrink/split/remove covered ranges.
        Returns the ranges removed outright."""
        removed: list[NakRange] = []
        if seq_geq(start, end):
            return removed
        out: list[NakRange] = []
        for rng in self._ranges:
            if seq_leq(end, rng.start) or seq_geq(start, rng.end):
                out.append(rng)  # disjoint
                continue
            covered = True
            if seq_lt(rng.start, start):
                left = NakRange(rng.start, seq_min(start, rng.end),
                                rng.created_us)
                left.last_sent_us = rng.last_sent_us
                left.tries = rng.tries
                out.append(left)
                covered = False
            if seq_lt(end, rng.end):
                right = NakRange(seq_max(end, rng.start), rng.end,
                                 rng.created_us)
                right.last_sent_us = rng.last_sent_us
                right.tries = rng.tries
                out.append(right)
                covered = False
            if covered:
                removed.append(rng)
        self._ranges = out
        return removed

    def fill_below(self, seq: int) -> Sequence[NakRange]:
        """Everything below ``seq`` is now in order.  Returns the ranges
        removed outright.

        The in-order data path calls this per segment, almost always
        with nothing below ``seq``; that case returns a constant and
        allocates nothing.  The ranges are ordered, so the removed ones
        are a prefix and at most the next one is trimmed.
        """
        ranges = self._ranges
        if not ranges or seq_leq(seq, ranges[0].start):
            return ()
        done = 0
        for rng in ranges:
            if seq_gt(rng.end, seq):
                if seq_lt(rng.start, seq):
                    rng.start = seq
                break
            done += 1
        removed = ranges[:done]
        del ranges[:done]
        return removed

    #: re-NAK interval growth per unanswered try, and its cap
    BACKOFF = 2.0
    MAX_INTERVAL_US = 2_000_000

    def due(self, now_us: int, suppress_interval_us: int) -> list[NakRange]:
        """Ranges whose NAK may be (re)sent under local suppression.

        The suppression interval backs off exponentially with the number
        of unanswered tries (capped), so a slow retransmission path is
        not pounded with duplicate NAKs.
        """
        out = []
        for r in self._ranges:
            interval = min(
                suppress_interval_us * (self.BACKOFF ** min(r.tries, 8)),
                self.MAX_INTERVAL_US)
            if now_us - r.last_sent_us >= interval:
                out.append(r)
        return out

    def mark_sent(self, rng: NakRange, now_us: int) -> None:
        rng.last_sent_us = now_us
        rng.tries += 1

    def overlapping(self, start: int, end: int) -> int:
        """How many pending ranges overlap [start, end)."""
        return sum(1 for r in self._ranges
                   if seq_lt(r.start, end) and seq_gt(r.end, start))

    def first(self) -> Optional[NakRange]:
        return self._ranges[0] if self._ranges else None
