"""Unit tests for the discrete-event engine."""

from types import SimpleNamespace

import pytest

from repro.sim.engine import Simulator, SimulationError


def test_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending() == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_at(30, order.append, "c")
    sim.call_at(10, order.append, "a")
    sim.call_at(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.call_at(100, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_call_after_relative():
    sim = Simulator()
    seen = []
    sim.call_after(5, lambda: sim.call_after(7, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [12]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    entry = sim.call_at(10, fired.append, 1)
    sim.call_at(20, fired.append, 2)
    sim.cancel(entry)
    sim.run()
    assert fired == [2]


def test_cancel_is_idempotent():
    sim = Simulator()
    entry = sim.call_at(10, lambda: None)
    sim.cancel(entry)
    sim.cancel(entry)
    assert sim.pending() == 0
    sim.run()


def test_run_until_advances_clock_exactly():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    sim.call_at(100, lambda: None)
    sim.run(until=50)
    assert sim.now == 50
    assert sim.pending() == 1


def test_run_until_includes_boundary_events():
    sim = Simulator()
    fired = []
    sim.call_at(50, fired.append, 1)
    sim.run(until=50)
    assert fired == [1]


def test_max_events_budget():
    cases = [
        # (event times, run() kwargs, fired, clock after that run)
        (range(10), {"max_events": 3}, [0, 1, 2], 2),
        # a budget stop leaves the clock at the last fired event, not at
        # ``until``, so the pending event at 20 is not left in the past
        ((10, 20), {"until": 1000, "max_events": 1}, [10], 10),
        # the horizon stops the run before the budget does
        ((10, 20), {"until": 15, "max_events": 5}, [10], 15),
        # a zero budget fires nothing and leaves the clock alone
        ((10, 20), {"max_events": 0}, [], 0),
        ((10, 20), {"until": 1000, "max_events": 0}, [], 0),
    ]
    for times, kwargs, fired_first, now_first in cases:
        sim = Simulator()
        fired = []
        for t in times:
            sim.call_at(t, fired.append, t)
        assert sim.run(**kwargs) == now_first, kwargs
        assert fired == fired_first, kwargs
        # the rest fires in order on a later run; time never goes back
        assert sim.run() == max(times), kwargs
        assert fired == sorted(times), kwargs


def test_step_single_event():
    sim = Simulator()
    fired = []
    sim.call_at(5, fired.append, "x")
    assert sim.step() is True
    assert fired == ["x"]
    assert sim.step() is False


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            sim.call_after(1, chain, n + 1)

    sim.call_at(0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5


def test_pending_counts_live_entries():
    sim = Simulator()
    e1 = sim.call_at(10, lambda: None)
    sim.call_at(20, lambda: None)
    assert sim.pending() == 2
    sim.cancel(e1)
    assert sim.pending() == 1


def test_peek_time_skips_cancelled():
    sim = Simulator()
    e1 = sim.call_at(10, lambda: None)
    sim.call_at(20, lambda: None)
    sim.cancel(e1)
    assert sim.peek_time() == 20


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.call_at(i, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_compaction_purges_cancelled_entries():
    """Cancelling most of a large heap triggers compaction, and the
    surviving events still fire in order."""
    sim = Simulator()
    fired = []
    entries = [sim.call_at(i + 1, fired.append, i + 1) for i in range(500)]
    # cancel everything but every 10th event: dead quickly outnumbers
    # live past COMPACT_MIN, so the heap must rebuild at least once
    for i, e in enumerate(entries):
        if (i + 1) % 10:
            sim.cancel(e)
    assert sim.compactions > 0
    # the heap holds the 50 live entries plus only the few cancelled
    # since the last rebuild -- not all 450 dead ones
    assert sim.pending() == 50
    assert len(sim._heap) == 50 + sim._dead < 500
    sim.run()
    assert fired == list(range(10, 501, 10))


def test_no_compaction_below_threshold():
    """Tiny heaps are not worth rebuilding."""
    sim = Simulator()
    entries = [sim.call_at(i + 1, lambda: None) for i in range(20)]
    for e in entries:
        sim.cancel(e)
    assert sim.compactions == 0
    sim.run()


def test_compaction_counters_consistent_after_run():
    sim = Simulator()
    fired = []
    for round_ in range(5):
        entries = [sim.call_at(sim.now + i + 1, fired.append, round_)
                   for i in range(200)]
        for e in entries[:150]:
            sim.cancel(e)
        sim.run()
    assert len(fired) == 5 * 50
    assert sim.pending() == 0
    assert sim._dead == 0



def test_entry_past_until_keeps_its_fifo_place():
    """An entry just past ``until`` stays pending, and the next run fires
    it before an entry scheduled later for the same instant."""
    sim = Simulator()
    fired = []
    sim.call_at(51, fired.append, "first")
    sim.run(until=50)
    assert fired == [] and sim.now == 50 and sim.pending() == 1
    sim.call_at(51, fired.append, "second")
    sim.run()
    assert fired == ["first", "second"]


def test_raising_callback_is_counted_and_run_resumes():
    """Without a profiler, a callback that raises still counts as
    processed, the pending count stays exact, and a second run carries
    on in order."""
    def boom():
        raise RuntimeError("x")

    sim = Simulator()
    assert sim.profiler is None
    fired = []
    sim.call_at(10, fired.append, 1)
    sim.call_at(20, boom)
    sim.call_at(30, fired.append, 3)
    late = sim.call_at(40, fired.append, 4)
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.now == 20
    assert sim.events_processed == 2
    assert sim.pending() == 2
    sim.cancel(late)
    assert sim.pending() == 1
    sim.run()
    assert fired == [1, 3]
    assert sim.events_processed == 3
    assert sim.pending() == 0


def test_pending_entries_in_firing_order_without_cancelled():
    def a():
        pass

    def b():
        pass

    def c():
        pass

    sim = Simulator()
    sim.call_at(30, c)
    gone = sim.call_at(10, b)
    sim.call_at(20, a)
    sim.lineage = SimpleNamespace(current=7)   # captured as the cause
    sim.call_at(20, b)
    sim.lineage = None
    sim.cancel(gone)
    assert sim.pending_entries() == [(20, a, 0), (20, b, 7), (30, c, 0)]
    (first,) = sim.pending_entries(limit=1)
    assert (first.time, first.callback, first.cause) == (20, a, 0)
    # a snapshot only: the heap still fires everything, in order
    fired = []
    sim.profiler = SimpleNamespace(
        execute=lambda cb, args, dt: fired.append(cb))
    sim.run()
    assert fired == [a, b, c]

# -- profiler instrumentation hook -----------------------------------------

def test_profiler_receives_every_executed_callback():
    from repro.obs.perf.profiler import PerfProfiler
    sim = Simulator()
    sim.profiler = PerfProfiler()
    for i in range(5):
        sim.call_at(i * 10, lambda: None)
    sim.run()
    assert sim.profiler.events == 5 == sim.events_processed


def test_profiler_attribution_exact_under_cancel():
    """Cancelled entries never reach the profiler, so per-site counts
    equal callbacks actually executed."""
    from repro.obs.perf.profiler import PerfProfiler, site_of

    def victim():
        pass

    def survivor():
        pass

    sim = Simulator()
    sim.profiler = PerfProfiler()
    victims = [sim.call_at(i + 1, victim) for i in range(10)]
    for e in victims[:7]:
        sim.cancel(e)
    for i in range(4):
        sim.call_at(i + 20, survivor)
    sim.run()
    sites = sim.profiler.sites
    assert sites[site_of(victim)].events == 3
    assert sites[site_of(survivor)].events == 4
    assert sim.profiler.events == 7


def test_profiler_attribution_exact_under_compaction():
    """Heap compaction discards only never-to-fire entries: attribution
    is unchanged by however many rebuilds happen."""
    from repro.obs.perf.profiler import PerfProfiler, site_of

    def kept():
        pass

    sim = Simulator()
    sim.profiler = PerfProfiler()
    entries = [sim.call_at(i + 1, kept) for i in range(500)]
    for i, e in enumerate(entries):
        if (i + 1) % 10:
            sim.cancel(e)
    assert sim.compactions > 0
    sim.run()
    assert sim.profiler.sites[site_of(kept)].events == 50
    assert sim.profiler.events == 50


def test_profiler_sim_time_attribution_sums_to_final_clock():
    """Each firing is charged the virtual-clock advance it caused, so
    the per-site sim_us totals partition the run's final time."""
    from repro.obs.perf.profiler import PerfProfiler
    sim = Simulator()
    sim.profiler = PerfProfiler()
    sim.call_at(100, lambda: None)
    sim.call_at(100, lambda: None)   # same instant: zero advance
    sim.call_at(250, lambda: None)
    sim.call_at(1000, lambda: None)
    sim.run()
    total = sum(s.sim_us for s in sim.profiler.sites.values())
    assert total == sim.now == 1000


def test_profiler_step_parity_with_run():
    from repro.obs.perf.profiler import PerfProfiler
    sim = Simulator()
    sim.profiler = PerfProfiler()
    sim.call_at(5, lambda: None)
    sim.call_at(15, lambda: None)
    while sim.step():
        pass
    assert sim.profiler.events == 2
    total = sum(s.sim_us for s in sim.profiler.sites.values())
    assert total == 15


def test_profiler_attributes_raising_callbacks():
    """A callback that raises is still attributed (try/finally), so the
    profile stays exact even when a run dies mid-flight."""
    from repro.obs.perf.profiler import PerfProfiler

    def boom():
        raise RuntimeError("x")

    sim = Simulator()
    sim.profiler = PerfProfiler()
    sim.call_at(10, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.profiler.events == 1
    assert sim.profiler.wall_ns_total > 0


def test_no_profiler_no_overhead_path():
    """The default (profiler=None) path still runs everything."""
    sim = Simulator()
    assert sim.profiler is None
    fired = []
    sim.call_at(1, fired.append, 1)
    sim.run()
    assert fired == [1]
