"""Protocol-health observatory (``repro.obs.health``).

First-class protocol-semantic measurements over an H-RMC run.  The
core keeps every count as a plain :class:`~repro.stats.metrics.Counters`
field, incremented where the event happens (like ``naks_sent``), and
each receiver records the lag of every NAK range it recovers;
:class:`HealthMonitor` is a read-only view over the H-RMC endpoints of
one run.  Nothing is installed into the protocol, so a health-on run is
trivially byte-identical to a health-off one.

Four measurement families, chosen so the paper's evaluation quantities
(Fig. 11 feedback traffic, Fig. 14 group-size sweep, the section 5.2
flat-feedback claim) and the "SRM at 30" scaling lessons become
directly comparable across runs:

* **NAK-suppression ledger** -- every re-NAK opportunity at a NAK-
  manager tick is accounted to exactly one outcome: *sent*,
  *suppressed-by-timer* (the local suppression interval withheld it)
  or *suppressed-by-peer* (a peer's multicast repair made the pending
  NAK moot); duplicate data arrivals are the ledger's error term.
* **Feedback-implosion index** -- NAKs arriving at the sender per
  rate-cut loss event.  Suppression working means this stays flat as
  the group grows; it blowing up with group size is the implosion
  failure mode SRM's scaling post-mortem warns about.
* **Repair economics** -- requested vs useful vs redundant
  retransmissions, redundant repair bytes on the wire, repair-cache
  pressure (hits / misses / evictions / overwrite-skips), peer-repair
  suppression, and sender-side deflection of duplicate requests.
* **Recovery lag** -- per-receiver gap-open -> gap-fill latency
  (histogram + per-host aggregates), the worst receiver, and
  abandoned (NAK_ERR) / unresolved gaps.
"""

from __future__ import annotations

from typing import Optional

from repro.core.protocol import HRMCTransport
from repro.obs.metrics import Histogram
from repro.stats.metrics import Counters

__all__ = ["HealthMonitor"]

#: recovery-lag bucket edges (us): gap detected -> gap filled spans a
#: couple of RTTs on a healthy path and whole back-off cycles on a sick
#: one, so the buckets run wider than the packet-lifecycle bounds
LAG_BOUNDS_US = (1_000, 5_000, 10_000, 25_000, 50_000, 100_000,
                 250_000, 500_000, 1_000_000, 2_000_000, 5_000_000)

#: every ledger cell -> (role whose ``Counters`` keep it, field), in
#: fixed order so the ``health.*`` registry exports stay deterministic;
#: update-period adjustments live on the receiver's ``UpdatePolicy``
_CELLS = {
    "gap_opened": ("rx", "gaps_opened"),
    "gap_bytes": ("rx", "gap_bytes"),
    "gap_filled": ("rx", "gaps_filled"),
    "gap_abandoned": ("rx", "gaps_abandoned"),
    "nak_sent": ("rx", "naks_sent"),
    "nak_resent": ("rx", "naks_resent"),
    "nak_suppressed_timer": ("rx", "naks_suppressed_timer"),
    "nak_suppressed_peer": ("rx", "naks_suppressed_peer"),
    "dup_data": ("rx", "dup_pkts_rcvd"),
    "repair_useful": ("rx", "repairs_useful"),
    "repair_redundant": ("rx", "repairs_redundant"),
    "repair_redundant_bytes": ("rx", "repair_redundant_bytes"),
    "cache_insert": ("rx", "repair_cache_inserts"),
    "cache_evict": ("rx", "repair_cache_evictions"),
    "cache_overwrite": ("rx", "repair_cache_overwrites"),
    "cache_hit": ("rx", "repair_cache_hits"),
    "cache_miss": ("rx", "repair_cache_misses"),
    "repair_suppressed": ("rx", "local_repairs_suppressed"),
    "sender_naks_rcvd": ("tx", "naks_rcvd"),
    "sender_nak_errs": ("tx", "nak_errs_sent"),
    "sender_loss_events": ("tx", "loss_events"),
    "repair_deflected": ("tx", "repairs_deflected"),
    "update_up": ("update", "adjust_ups"),
    "update_down": ("update", "adjust_downs"),
}


class HealthMonitor:
    """One run's protocol-health view over its H-RMC endpoints.

    :meth:`watch` names the endpoints (``Observability.attach`` passes
    the sockets it is given; baseline-protocol transports are skipped).
    With a :class:`~repro.obs.metrics.MetricsRegistry` supplied, every
    ledger cell is also a ``health.*`` counter reading the endpoints'
    ``Counters`` on demand, so it rides every existing export and the
    metrics-at-failure snapshot; :meth:`finalize` fills the
    ``health.recovery_lag_us`` histogram.
    """

    def __init__(self, registry=None):
        self._sender = None
        self._receivers: list = []
        self._registry_lags: Optional[Histogram] = None
        if registry is not None:
            for key in _CELLS:
                registry.counter_view(f"health.{key}",
                                      lambda key=key: self.cell(key))
            self._registry_lags = registry.histogram(
                "health.recovery_lag_us", LAG_BOUNDS_US)

    def watch(self, ssock=None, rsocks=()) -> None:
        """Observe the H-RMC transports behind these sockets."""
        t = getattr(ssock, "transport", None)
        if isinstance(t, HRMCTransport):
            self._sender = t
        self._receivers = [s.transport for s in rsocks
                           if isinstance(s.transport, HRMCTransport)]

    # -- reads --------------------------------------------------------------

    def cell(self, key: str) -> int:
        """Current value of one ledger cell, summed over the endpoints."""
        role, attr = _CELLS[key]
        if role == "tx":
            return getattr(self._sender_stats(), attr)
        if role == "rx":
            return sum(getattr(t.stats, attr) for t in self._receivers)
        return sum(getattr(r.update, attr) for r in self._roles())

    def _sender_stats(self) -> Counters:
        return self._sender.stats if self._sender is not None \
            else Counters()

    def _roles(self) -> list:
        """The receiver roles that came up (joined the group)."""
        return [t.receiver for t in self._receivers
                if t.receiver is not None]

    def _lags(self, hist: Histogram) -> Histogram:
        for r in self._roles():
            for lag in r.recovery_lags_us:
                hist.observe(lag)
        return hist

    @property
    def group_size(self) -> int:
        return len(self._roles())

    def finalize(self) -> None:
        """The run is over: fill the registry's lag histogram (once)."""
        if self._registry_lags is not None:
            self._lags(self._registry_lags)
            self._registry_lags = None

    def unresolved_gaps(self) -> int:
        return sum(len(r.naks) for r in self._roles())

    @staticmethod
    def suppression_effectiveness(sent: int, timer: int, peer: int) -> float:
        opportunities = sent + timer + peer
        return (timer + peer) / opportunities if opportunities else 0.0

    def payload(self) -> dict:
        """The compact JSON-safe health document: what crosses the
        fleet worker boundary and what ``health report --json`` and the
        sweep analytics consume."""
        v = {key: self.cell(key) for key in _CELLS}
        eff = self.suppression_effectiveness(
            v["nak_sent"], v["nak_suppressed_timer"],
            v["nak_suppressed_peer"])
        losses = v["sender_loss_events"]
        useful, redundant = v["repair_useful"], v["repair_redundant"]
        sstats = self._sender_stats()
        feedback = (sstats.naks_rcvd + sstats.updates_rcvd +
                    sstats.rate_requests_rcvd + sstats.urgent_requests_rcvd)
        #: host -> [filled, total_lag_us, max_lag_us]
        by_host: dict[str, list] = {}
        for r in self._roles():
            if not r.recovery_lags_us:
                continue
            agg = by_host.setdefault(r.host.addr, [0, 0, 0])
            agg[0] += len(r.recovery_lags_us)
            agg[1] += sum(r.recovery_lags_us)
            agg[2] = max(agg[2], max(r.recovery_lags_us))
        per_host = [
            {"host": host, "filled": agg[0],
             "mean_us": round(agg[1] / agg[0], 1), "max_us": agg[2]}
            for host, agg in sorted(by_host.items())]
        worst = max(per_host, key=lambda r: r["max_us"]) if per_host \
            else None
        h = self._lags(Histogram("health.recovery_lag_us", LAG_BOUNDS_US))
        return {
            "group_size": self.group_size,
            "suppression": {
                "gaps_opened": v["gap_opened"],
                "gap_bytes": v["gap_bytes"],
                "naks_sent": v["nak_sent"],
                "naks_resent": v["nak_resent"],
                "suppressed_timer": v["nak_suppressed_timer"],
                "suppressed_peer": v["nak_suppressed_peer"],
                "duplicate_data": v["dup_data"],
                "effectiveness": round(eff, 4),
            },
            "implosion": {
                "naks_at_sender": v["sender_naks_rcvd"],
                "loss_events": losses,
                "nak_errs": v["sender_nak_errs"],
                "feedback_at_sender": feedback,
                "index": round(v["sender_naks_rcvd"] / losses, 3)
                if losses else 0.0,
            },
            "repair": {
                "retrans_pkts": sstats.retrans_pkts,
                "retrans_bytes": sstats.retrans_bytes,
                "useful": useful,
                "redundant": redundant,
                "redundant_bytes": v["repair_redundant_bytes"],
                "redundant_ratio": round(
                    redundant / (useful + redundant), 4)
                if useful + redundant else 0.0,
                "deflected": v["repair_deflected"],
                "cache": {
                    "inserts": v["cache_insert"],
                    "evictions": v["cache_evict"],
                    "overwrite_skips": v["cache_overwrite"],
                    "hits": v["cache_hit"],
                    "misses": v["cache_miss"],
                    "peer_suppressed": v["repair_suppressed"],
                },
            },
            "lag": {
                "filled": v["gap_filled"],
                "abandoned": v["gap_abandoned"],
                "unresolved": self.unresolved_gaps(),
                "mean_us": round(h.mean, 1) if h.count else 0.0,
                "p50_us": round(h.quantile(0.5), 1) if h.count else 0.0,
                "p90_us": round(h.quantile(0.9), 1) if h.count else 0.0,
                "max_us": h.max if h.count else 0,
                "worst_host": worst["host"] if worst else None,
                "worst_max_us": worst["max_us"] if worst else 0,
                "per_host": per_host,
            },
            "update": {"ups": v["update_up"], "downs": v["update_down"]},
        }

    def summary_tables(self) -> list[tuple[str, list, list]]:
        """(title, headers, rows) tables in the harness-report shape."""
        doc = self.payload()
        sup, imp, rep = doc["suppression"], doc["implosion"], doc["repair"]
        ledger = [
            ["NAKs sent", sup["naks_sent"]],
            ["  of which re-sends", sup["naks_resent"]],
            ["suppressed by timer", sup["suppressed_timer"]],
            ["suppressed by peer repair", sup["suppressed_peer"]],
            ["duplicate data arrivals", sup["duplicate_data"]],
            ["suppression effectiveness",
             f"{sup['effectiveness']:.1%}"],
        ]
        econ = [
            ["NAKs at sender", imp["naks_at_sender"]],
            ["loss events (rate cuts)", imp["loss_events"]],
            ["implosion index (NAKs/loss event)", imp["index"]],
            ["feedback pkts at sender", imp["feedback_at_sender"]],
            ["retransmissions", rep["retrans_pkts"]],
            ["useful repairs", rep["useful"]],
            ["redundant repairs", rep["redundant"]],
            ["redundant repair bytes", rep["redundant_bytes"]],
            ["redundant-repair ratio", f"{rep['redundant_ratio']:.1%}"],
            ["requests deflected (in flight)", rep["deflected"]],
            ["cache hit/miss/evict",
             f"{rep['cache']['hits']}/{rep['cache']['misses']}"
             f"/{rep['cache']['evictions']}"],
        ]
        tables = [
            ("protocol health: NAK-suppression ledger",
             ["outcome", "count"], ledger),
            ("protocol health: implosion & repair economics",
             ["metric", "value"], econ),
        ]
        lag = doc["lag"]
        if lag["per_host"]:
            rows = [[r["host"], r["filled"], r["mean_us"], r["max_us"]]
                    for r in lag["per_host"]]
            rows.append(["(all)", lag["filled"], lag["mean_us"],
                         lag["max_us"]])
            tables.append(("protocol health: recovery lag (us)",
                           ["receiver", "filled", "mean", "max"], rows))
        return tables
