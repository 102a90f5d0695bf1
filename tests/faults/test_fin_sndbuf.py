"""Regression: closing the sender must not overcommit the send buffer.

The FIN is a one-byte skb (truesize ``SKB_OVERHEAD + 1``).  A close that
found less free send-buffer space than that used to queue it anyway, so
the invariant checker saw ``wmem_free`` go negative (-41, -5).  These
fault plans each close into an almost-full buffer.
"""

import pytest

from repro.harness.experiments import chaos_config
from repro.harness.runner import run_transfer
from repro.workloads.scenarios import build_chaos

pytestmark = pytest.mark.chaos


@pytest.mark.parametrize("seed,horizon_us,nbytes", [
    (46060948, 1_000_000, 143_000),
    (166635522, 1_000_000, 245_000),
    (775213049, 114_400, 143_000),
    (663698435, 114_400, 143_000),
])
def test_close_waits_for_room_for_the_fin(seed, horizon_us, nbytes):
    sc = build_chaos(5, 10e6, seed=seed, horizon_us=horizon_us)
    res = run_transfer(sc, nbytes=nbytes, sndbuf=128 * 1024,
                       cfg=chaos_config(), invariants=True, max_sim_s=120)
    assert res.invariant_checks > 0
    assert res.surviving_ok
