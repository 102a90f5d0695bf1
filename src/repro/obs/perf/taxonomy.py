"""Stable event-class taxonomy for engine callbacks.

The tax table of the performance observatory attributes every executed
engine callback to one of a small, *stable* set of event classes -- the
vocabulary in which ROADMAP item 1 (the engine hot-path overhaul) makes
its scheduler decisions.  Classes must not churn between PRs or tax
tables from different revisions stop being comparable, so they live
here as a frozen tuple:

``jiffy-timer``
    Periodic protocol ticks driven off the 10 ms jiffy machinery
    (transmit, update, keepalive, liveness, polling rounds).  The
    dominant class in steady state and the candidate for a timing-wheel
    scheduler.
``nak-repair-timer``
    Loss-recovery timers and repair emission (NAK backoff, RTO,
    retransmission ticks, repair subcasts).
``nic-tx`` / ``nic-rx``
    Device-model work: transmit-ring completions and host-side
    transmit CPU on the way down; RX-ring enqueue/drain/protocol
    delivery on the way up.
``link``
    Medium propagation: the per-receiver fan-out events a broadcast
    schedules, plus router/pipe store-and-forward hops.
``process-wake``
    :class:`~repro.sim.process.SimEvent` wake-ups (blocked process
    rendezvous).
``app``
    Application generator resumes (file-transfer sender/receiver
    loops, disk model).
``fleet-harness``
    Everything the harness itself schedules around a run: fault
    injection, observability scrape ticks, watchdogs.
``other``
    Anything neither rule below can place.  The profiler reports
    coverage = 1 - other/total; the acceptance bar is >= 95 %.

Classification is two rules, both kept in this module:

1. **Timers by name** -- a :class:`~repro.sim.timer.Timer` firing is
   placed by :data:`TIMER_CLASSES` under the timer's ``name`` (the
   label the protocol code already gives it for causal lineage).
2. **Everything else by callsite** -- :func:`infer` pattern-matches
   the callback's module/qualname against :data:`_INFER_RULES`, so new
   callbacks degrade to a sensible class instead of ``other``.

The sim, core and baseline layers carry no profiler vocabulary.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.timer import Timer

__all__ = ["EVENT_CLASSES", "classify", "infer", "timer_class",
           "TIMER_CLASSES", "TIMER_FIRE"]

#: the frozen vocabulary of the tax table (order = report order)
EVENT_CLASSES = (
    "jiffy-timer", "nak-repair-timer", "nic-tx", "nic-rx", "link",
    "process-wake", "app", "fleet-harness", "other",
)

#: timer name -> event class (rule 1)
TIMER_CLASSES = {
    "transmit": "jiffy-timer",
    "update": "jiffy-timer",
    "keepalive": "jiffy-timer",
    "liveness": "jiffy-timer",
    "poll": "jiffy-timer",
    "poll-tx": "jiffy-timer",
    "ack-tx": "jiffy-timer",
    "tcp-tx": "jiffy-timer",
    "linger": "jiffy-timer",
    "leave-timeout": "jiffy-timer",
    "nak": "nak-repair-timer",
    "retrans": "nak-repair-timer",
    "join-retry": "nak-repair-timer",
    "rto": "nak-repair-timer",
    "ack-rto": "nak-repair-timer",
    "tcp-rto": "nak-repair-timer",
}


def timer_class(name: str) -> str:
    """Event class of a :class:`~repro.sim.timer.Timer` by its name
    (unnamed or unknown timers are periodic ticks)."""
    return TIMER_CLASSES.get(name, "jiffy-timer")


#: (module prefix, qualname substring or "", class) -- first match wins
#: (rule 2)
_INFER_RULES = (
    ("repro.net.nic", "_tx", "nic-tx"),
    ("repro.net.nic", "medium_deliver", "link"),
    ("repro.net.nic", "", "nic-rx"),
    ("repro.net.link", "", "link"),
    ("repro.net.router", "", "link"),
    ("repro.kernel.host", "_xmit", "nic-tx"),
    ("repro.kernel.host", "", "nic-rx"),
    ("repro.sim.process", "Process.", "app"),
    ("repro.sim.process", "", "process-wake"),
    ("repro.apps", "", "app"),
    ("repro.core.receiver", "_emit_repairs", "nak-repair-timer"),
    ("repro.obs", "", "fleet-harness"),
    ("repro.faults", "", "fleet-harness"),
    ("repro.harness", "", "fleet-harness"),
    ("repro.fleet", "", "fleet-harness"),
)


def infer(module: str, qualname: str) -> str:
    """Place a callback by its defining module and qualified name.
    Returns ``"other"`` when nothing matches."""
    for prefix, fragment, ev_class in _INFER_RULES:
        if module == prefix or module.startswith(prefix + "."):
            if not fragment or fragment in qualname:
                return ev_class
    return "other"


#: the engine callback every armed timer schedules
TIMER_FIRE = Timer._fire


def classify(callback: Callable) -> str:
    """Classify one engine callback (slow path; the profiler memoizes):
    a timer firing by its name, anything else by its callsite."""
    fn = getattr(callback, "__func__", callback)
    if fn is TIMER_FIRE:
        return timer_class(getattr(callback, "__self__").name)
    return infer(getattr(fn, "__module__", "") or "",
                 getattr(fn, "__qualname__", "") or "")
