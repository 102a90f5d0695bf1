"""Packet-lifecycle and protocol-phase spans.

The :class:`SpanCollector` rides the packet tap as a *raw* listener
(it sees the :class:`~repro.trace.tracer.TraceEvent` and the live
``SKBuff``) and stitches per-packet timelines out of three observable
instants:

* ``t_enqueue`` -- the sender's tx tap fires when ``ip_send`` accepts
  the segment (before CPU + device queueing),
* ``t_wire`` -- the NIC stamps ``skb.last_sent_us`` when the last bit
  leaves the card,
* ``t_rx`` -- a receiver's rx tap fires after interrupt + IP + protocol
  processing delivered the packet to the transport.

From those it fills three histograms (one-way latency, sender-side
queueing delay, NAK-to-repair recovery latency) and emits protocol-phase
spans per host (join handshake, steady-state transfer, recovery bursts,
close) plus one span per recovered NAK range.  Everything is
observational: segments are never copied or mutated, and no simulator
events are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.types import FIN, PacketType
from repro.obs.metrics import Histogram, LATENCY_BOUNDS_US

__all__ = ["Span", "SpanCollector"]

_DATA = int(PacketType.DATA)
_NAK = int(PacketType.NAK)
_NAK_ERR = int(PacketType.NAK_ERR)
_JOIN = int(PacketType.JOIN)
_JOIN_RESPONSE = int(PacketType.JOIN_RESPONSE)
_LEAVE = int(PacketType.LEAVE)
_UPDATE = int(PacketType.UPDATE)


@dataclass
class Span:
    """One named interval on a host's timeline."""

    name: str
    cat: str            # "phase" | "recovery"
    host: str
    start_us: int
    end_us: Optional[int] = None

    @property
    def dur_us(self) -> int:
        return (self.end_us - self.start_us) if self.end_us is not None else 0


@dataclass
class _Mark:
    """A notable instant, exported as a Perfetto instant event."""

    name: str
    host: str
    t_us: int


class SpanCollector:
    """Stitch spans and latency histograms from tap events."""

    #: outstanding (seq, tries) -> enqueue-time entries kept for latency
    #: matching; bounded so a pathological run cannot grow without limit
    TX_CAP = 4096
    #: cap on exported instant marks (retransmissions, NAKs, UPDATEs)
    MARK_CAP = 20_000

    def __init__(self, sender_addr: str):
        self.sender_addr = sender_addr
        self.one_way_us = Histogram("span.one_way_us", LATENCY_BOUNDS_US)
        self.queueing_us = Histogram("span.queueing_us", LATENCY_BOUNDS_US)
        self.recovery_us = Histogram("span.recovery_us", LATENCY_BOUNDS_US)
        self.spans: list[Span] = []
        self.marks: list[_Mark] = []
        self.events_seen = 0
        self.last_event_us = 0
        self._tx: dict[tuple[int, int], int] = {}   # (seq, tries) -> t_us
        self._pending_naks: dict[str, dict[int, tuple[int, int]]] = {}
        self._bursts: dict[str, Span] = {}          # open recovery bursts
        self._join: dict[str, Span] = {}            # open join spans
        self._transfer: dict[str, Span] = {}        # open steady-state spans
        self._close: dict[str, Span] = {}           # open close spans

    # -- tap pump -------------------------------------------------------

    def on_event(self, ev, skb) -> None:
        """Tracer listener: ``ev`` is the TraceEvent, ``skb`` the
        live segment (read-only here)."""
        self.events_seen += 1
        self.last_event_us = ev.t_us
        if ev.direction == "tx":
            self._on_tx(ev, skb)
        else:
            self._on_rx(ev, skb)

    def _on_tx(self, ev, skb) -> None:
        if ev.ptype == _DATA:
            if ev.host == self.sender_addr:
                if len(self._tx) >= self.TX_CAP:
                    # evict the oldest outstanding entry (insertion order)
                    self._tx.pop(next(iter(self._tx)))
                self._tx[(ev.seq, ev.tries)] = ev.t_us
                if ev.tries > 1:
                    self._mark("retransmit", ev.host, ev.t_us)
        elif ev.ptype == _NAK:
            self._mark("nak", ev.host, ev.t_us)
            pending = self._pending_naks.setdefault(ev.host, {})
            if ev.seq not in pending:
                pending[ev.seq] = (ev.t_us, ev.seq + ev.length)
            if ev.host not in self._bursts:
                burst = Span("recovery-burst", "phase", ev.host, ev.t_us)
                self._bursts[ev.host] = burst
                self.spans.append(burst)
        elif ev.ptype == _UPDATE:
            self._mark("update", ev.host, ev.t_us)
        elif ev.ptype == _JOIN:
            if ev.host not in self._join:
                span = Span("join", "phase", ev.host, ev.t_us)
                self._join[ev.host] = span
                self.spans.append(span)
        elif ev.ptype == _LEAVE:
            close = self._close.get(ev.host)
            if close is not None and close.end_us is None:
                close.end_us = ev.t_us

    def _on_rx(self, ev, skb) -> None:
        host = ev.host
        if ev.ptype == _DATA:
            join = self._join.get(host)
            if join is not None and join.end_us is None:
                join.end_us = ev.t_us
            if host not in self._transfer:
                span = Span("transfer", "phase", host, ev.t_us)
                self._transfer[host] = span
                self.spans.append(span)
            else:
                self._transfer[host].end_us = ev.t_us
            self._observe_latency(ev, skb)
            self._resolve_naks(host, ev.t_us, ev.seq, ev.seq + ev.length,
                               recovered=True)
            if ev.flags & FIN and host not in self._close:
                span = Span("close", "phase", host, ev.t_us)
                self._close[host] = span
                self.spans.append(span)
        elif ev.ptype == _JOIN_RESPONSE:
            join = self._join.get(host)
            if join is not None and join.end_us is None:
                join.end_us = ev.t_us
        elif ev.ptype == _NAK_ERR:
            # the sender refused everything below its window edge: those
            # ranges will never be repaired -- close them unrecovered
            self._resolve_naks(host, ev.t_us, 0, ev.seq, recovered=False,
                               below=True)

    # -- latency stitching ----------------------------------------------

    def _observe_latency(self, ev, skb) -> None:
        t_tx = self._tx.get((ev.seq, ev.tries))
        if t_tx is None or ev.t_us < t_tx:
            return
        self.one_way_us.observe(ev.t_us - t_tx)
        t_wire = getattr(skb, "last_sent_us", -1)
        if t_tx <= t_wire <= ev.t_us:
            self.queueing_us.observe(t_wire - t_tx)

    def _resolve_naks(self, host: str, now_us: int, seq: int, end: int,
                      *, recovered: bool, below: bool = False) -> None:
        pending = self._pending_naks.get(host)
        if not pending:
            return
        done = [start for start in pending
                if (start < end if below else seq <= start < end)]
        for start in done:
            t_nak, _range_end = pending.pop(start)
            if recovered and now_us >= t_nak:
                self.recovery_us.observe(now_us - t_nak)
                self.spans.append(
                    Span(f"repair@{start}", "recovery", host, t_nak, now_us))
        if done and not pending:
            burst = self._bursts.pop(host, None)
            if burst is not None:
                burst.end_us = now_us

    def _mark(self, name: str, host: str, t_us: int) -> None:
        if len(self.marks) < self.MARK_CAP:
            self.marks.append(_Mark(name, host, t_us))

    # -- lifecycle ------------------------------------------------------

    def finalize(self, now_us: int) -> None:
        """Close every still-open span at end of run.  Spans are tap
        phenomena, so the close-out instant is the last tap event, not
        ``now_us`` -- ``run(until=...)`` advances the clock to the time
        horizon even when traffic drained long before it."""
        end = min(now_us, self.last_event_us) if self.last_event_us \
            else now_us
        for span in self.spans:
            if span.end_us is None:
                span.end_us = max(end, span.start_us)

    def histograms(self) -> list[Histogram]:
        return [self.one_way_us, self.queueing_us, self.recovery_us]

    def recovery_by_host(self) -> list[tuple[str, int, int, int]]:
        """Per-host recovery-span aggregation: (host, episodes,
        total_us, max_us), sorted by host.  The span-derived
        cross-check of the health observatory's gap-fill lag ledger:
        spans measure NAK-send -> repair-arrival on the wire, the
        ledger measures gap-open -> gap-fill in the reassembly state."""
        agg: dict[str, list[int]] = {}
        for span in self.spans:
            if span.cat != "recovery" or span.end_us is None:
                continue
            entry = agg.get(span.host)
            if entry is None:
                agg[span.host] = [1, span.dur_us, span.dur_us]
            else:
                entry[0] += 1
                entry[1] += span.dur_us
                if span.dur_us > entry[2]:
                    entry[2] = span.dur_us
        return [(host, e[0], e[1], e[2])
                for host, e in sorted(agg.items())]

    def current_phase(self) -> str:
        """Coarse aggregate protocol phase right now, for attributing
        point-in-time samples (the perf observatory's heap snapshots).
        Recovery wins while any burst is open; otherwise the run is in
        close once any receiver saw FIN, in transfer once data flows,
        in join while handshakes are outstanding, else idle."""
        for span in self._bursts.values():
            if span.end_us is None:
                return "recovery"
        if self._close:
            return "close"
        if self._transfer:
            return "transfer"
        if self._join:
            return "join"
        return "idle"
