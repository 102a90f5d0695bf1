"""Self-tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = wl.TransferInput(0, "lan", 2, 100_000, 11, wl.MBPS_100, 64 * 1024)


def test_bytecode_pass_repeats_exactly():
    run.timed_transfers([SMALL], 0)          # warm lazy imports first
    first, outs_a, _ = run.bytecode_pass("lan_bulk", [SMALL])
    second, outs_b, _ = run.bytecode_pass("lan_bulk", [SMALL])
    assert first.total > 0
    assert first.by_layer() == second.by_layer()
    assert sum(first.by_layer().values()) == first.total
    assert [o.digest for o in outs_a] == [o.digest for o in outs_b]


def test_same_seed_same_inputs_and_digest():
    for workload in wl.WORKLOADS:
        assert wl.make_inputs(workload, 7) == wl.make_inputs(workload, 7)
    inputs = wl.make_inputs("wan_lossy", 7)[:2]
    a = run.timed_transfers(inputs, 0)
    b = run.timed_transfers(inputs, 0)
    assert [o.digest for o in a.outcomes] == [o.digest for o in b.outcomes]
    assert a.mismatches == b.mismatches == 0


def test_other_seed_other_inputs():
    for workload in wl.WORKLOADS:
        assert wl.make_inputs(workload, 1) != wl.make_inputs(workload, 2)


def test_forced_failure_is_counted_not_dropped():
    doomed = dataclasses.replace(SMALL, max_sim_s=0.001)
    timed = run.timed_transfers([SMALL, doomed], 0)
    assert timed.attempted == len(timed.walls) > run.TAIL_BEYOND
    assert timed.failed == timed.attempted // 2
    assert [o.ok for o in timed.outcomes] == [True, False]


def test_normalisation_cancels_the_host_speed():
    walls, between = [0.10, 0.25, 0.04, 0.30], [0, 0, 1, 2]
    loops = [0.024, 0.031, 0.026, 0.040]
    here = calibrate.normalise(walls, between, loops)
    slower = calibrate.normalise([w * 1.7 for w in walls], between,
                                 [x * 1.7 for x in loops])
    assert all(abs(a - b) < 1e-12 for a, b in zip(here, slower))
    ref = calibrate.REF_S
    assert calibrate.normalise([0.1], [0], [ref, ref]) == [0.1]


def test_spans_nest_and_account_for_the_wall():
    rec, outs, wall = run.span_pass("lan_bulk", [SMALL])
    assert outs[0].ok
    assert all(span is not None for span in rec.spans)
    assert rec.count("sim.call_at") > 0 and rec.count("kernel.sock_recv") > 0
    coverage = sum(rec.self_ns_by_layer().values()) / (wall * 1e9)
    assert abs(coverage - 1.0) <= run.SELF_TIME_TOLERANCE


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lan_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
