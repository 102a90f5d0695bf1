"""Performance observatory: taxonomy, tax table, flamegraph sampling.

The observatory's promises are (a) every callback lands in a stable
event class with >= 95 % coverage on real workloads, (b) the
flamegraph sampler is driven by the deterministic event counter -- two
identical seeded runs sample the same events and emit the same
collapsed stacks (only the wall-time weights differ), and (c) the
whole thing rides the existing profiler hook without touching the
protocol (zero-perturbation is proven in test_perf_disabled.py).
"""

import pytest

from repro.harness.runner import run_transfer
from repro.obs import Observability
from repro.obs.perf import EVENT_CLASSES, classify, flamegraph_svg
from repro.obs.perf.taxonomy import infer, timer_class
from repro.sim.engine import Simulator
from repro.sim.timer import Timer
from repro.workloads.scenarios import build_lan


def _profiled_run(sample_every=16, alloc=False, nbytes=200_000):
    obs = Observability(profile=True, sample_every=sample_every,
                        alloc=alloc)
    sc = build_lan(3, 100e6, seed=7)
    res = run_transfer(sc, nbytes=nbytes, sndbuf=128 * 1024,
                       max_sim_s=120, obs=obs)
    assert res.ok
    return obs, res


def _collapsed(obs):
    return obs.profiler.sampler.collapsed_lines()


# -- taxonomy ----------------------------------------------------------


def test_timers_classify_by_name():
    sim = Simulator()
    assert classify(Timer(sim, lambda: None, name="nak")._fire) \
        == "nak-repair-timer"
    assert classify(Timer(sim, lambda: None, name="transmit")._fire) \
        == "jiffy-timer"
    # the class follows the timer's name, not the callback it wraps
    from repro.net.nic import NetworkInterface
    t = Timer(sim, NetworkInterface._tx_done, name="retrans")
    assert classify(t._fire) == "nak-repair-timer"


def test_timer_class_names():
    assert timer_class("transmit") == "jiffy-timer"
    assert timer_class("retrans") == "nak-repair-timer"
    assert timer_class("tcp-rto") == "nak-repair-timer"
    # unknown timer names degrade to the periodic-tick class
    assert timer_class("mystery") == "jiffy-timer"


def test_infer_rules():
    assert infer("repro.net.nic", "NetworkInterface._tx_done") == "nic-tx"
    assert infer("repro.net.link", "Pipe.deliver") == "link"
    assert infer("repro.sim.process", "Process._resume") == "app"
    assert infer("repro.obs.metrics", "Registry.scrape") == "fleet-harness"
    assert infer("some.third.party", "Thing.cb") == "other"


# -- tax table on a real run ------------------------------------------


def test_tax_table_coverage_meets_bar():
    obs, res = _profiled_run(sample_every=0)
    assert obs.profiler.events == res.sim_events
    # the acceptance bar: >= 95 % of callbacks placed in a named class
    assert obs.profiler.coverage() >= 0.95
    rows = obs.profiler.tax_rows()
    classes = [r[0] for r in rows]
    assert set(classes) <= set(EVENT_CLASSES)
    # the LAN transfer exercises the full stack
    for expected in ("jiffy-timer", "nic-tx", "nic-rx", "link", "app"):
        assert expected in classes
    # events add up to the engine's count
    assert sum(r[1] for r in rows) == res.sim_events


def test_tax_table_rows_in_taxonomy_order():
    obs, _ = _profiled_run(sample_every=0)
    order = {c: i for i, c in enumerate(EVENT_CLASSES)}
    positions = [order[r[0]] for r in obs.profiler.tax_rows()]
    assert positions == sorted(positions)


# -- deterministic flamegraph sampling --------------------------------


def test_sampler_counts_and_stacks_deterministic():
    obs_a, res_a = _profiled_run(sample_every=16)
    obs_b, res_b = _profiled_run(sample_every=16)
    # identical runs: identical event streams, so identical samples
    assert res_a.sim_events == res_b.sim_events
    assert obs_a.profiler.sampler.samples == obs_b.profiler.sampler.samples
    # and identical collapsed stacks -- the *keys* are deterministic
    # (weights are wall time and may differ between executions)
    stacks_a = [line.rsplit(" ", 1)[0] for line in _collapsed(obs_a)]
    stacks_b = [line.rsplit(" ", 1)[0] for line in _collapsed(obs_b)]
    assert stacks_a == stacks_b


def test_sampler_immune_to_foreign_gc_callbacks():
    """A process-wide gc.callbacks entry (hypothesis registers one) must
    never leak its frames into the sampled stack keys: GC cycles land at
    wall-clock-dependent points, so one run would record the callback's
    frames where the other doesn't.  The sampler defers automatic GC for
    the duration of each sample."""
    import gc

    def nosy_gc_callback(phase, info):
        pass

    thresholds = gc.get_threshold()
    gc.callbacks.append(nosy_gc_callback)
    gc.set_threshold(1)          # collect (and fire callbacks) constantly
    try:
        obs_a, _ = _profiled_run(sample_every=16)
        obs_b, _ = _profiled_run(sample_every=16)
    finally:
        gc.callbacks.remove(nosy_gc_callback)
        gc.set_threshold(*thresholds)
    for key in (list(obs_a.profiler.sampler.stacks)
                + list(obs_b.profiler.sampler.stacks)):
        assert not any("nosy_gc_callback" in label for label in key), key
    stacks_a = [ln.rsplit(" ", 1)[0] for ln in _collapsed(obs_a)]
    stacks_b = [ln.rsplit(" ", 1)[0] for ln in _collapsed(obs_b)]
    assert stacks_a == stacks_b
    assert gc.isenabled()        # the sampler restored GC afterwards


def test_collapsed_lines_format():
    obs, _ = _profiled_run(sample_every=16)
    lines = _collapsed(obs)
    assert lines
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        assert stack.startswith("engine;")
        assert int(weight) >= 1
    # sorted output: stable diffs between runs
    assert lines == sorted(lines)


def test_sample_every_zero_disables_sampling(tmp_path):
    obs, _ = _profiled_run(sample_every=0)
    assert obs.profiler.sampler is None
    paths = obs.write_artifacts(str(tmp_path), html=True)
    assert "collapsed" not in paths
    assert "flamegraph" not in (tmp_path / "run.report.html").read_text()


def test_sample_every_needs_the_profiler():
    with pytest.raises(ValueError, match="sample_every"):
        Observability(sample_every=16)
    with pytest.raises(ValueError, match="sample_every"):
        Observability(profile=True, sample_every=-1)


def test_flame_svg_renders(tmp_path):
    obs, _ = _profiled_run(sample_every=16)
    svg = flamegraph_svg(obs.profiler.sampler.stacks)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "engine" in svg
    paths = obs.write_artifacts(str(tmp_path), prefix="lan", html=True)
    assert (tmp_path / "lan.collapsed.txt").read_text().splitlines() \
        == _collapsed(obs)
    html = (tmp_path / "lan.report.html").read_text()
    assert "flamegraph" in html and "event-class tax table" in html
    assert paths["collapsed"].endswith("lan.collapsed.txt")


# -- allocation tracking ----------------------------------------------


def test_alloc_tracker_phases_and_growth():
    obs, _ = _profiled_run(alloc=True)
    alloc = obs.alloc
    assert alloc is not None
    phases = [r[0] for r in alloc.phase_rows()]
    assert "transfer" in phases
    # the run allocates *something*; growth sites are attributed
    assert alloc.growth_rows()
    tables = dict((t[0], t[2]) for t in obs.perf_tables())
    assert "heap by phase" in tables
    assert "top allocation growth" in tables


def test_summary_tables_without_alloc():
    obs, _ = _profiled_run(sample_every=0)
    tables = obs.perf_tables()
    assert len(tables) == 1
    # the tax table also rides the full observability summary
    assert tables[0] in obs.summary_tables()
    title, headers, rows = tables[0]
    assert title.startswith("event-class tax table")
    assert "coverage" in title
    assert headers[0] == "class"
    assert rows
