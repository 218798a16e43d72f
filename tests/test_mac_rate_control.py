"""Unit tests for rate control."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.rate_control import EsnrRateControl, MinstrelLite
from repro.phy.mcs import MCS_TABLE


def make_minstrel(seed=0, **kw):
    return MinstrelLite(np.random.default_rng(seed), **kw)


class TestMinstrel:
    def test_converges_up_on_perfect_channel(self):
        rc = make_minstrel()
        for _ in range(200):
            mcs = rc.choose()
            rc.on_result(mcs, 10, 10)
        # Non-probe choices should be the top rate.
        picks = [rc.choose().index for _ in range(20)]
        assert max(picks) == 7
        assert sorted(picks)[10] == 7  # median pick is MCS7

    def test_converges_down_when_high_rates_fail(self):
        rc = make_minstrel()
        for _ in range(300):
            mcs = rc.choose()
            ok = 10 if mcs.index <= 2 else 0
            rc.on_result(mcs, 10, ok)
        picks = [rc.choose().index for _ in range(20)]
        assert sorted(picks)[10] <= 2

    def test_probing_explores_other_rates(self):
        rc = make_minstrel(probe_interval=5)
        for _ in range(100):
            mcs = rc.choose()
            rc.on_result(mcs, 10, 10)
        tried = {i for i, n in enumerate(rc._attempts) if n > 0}
        assert len(tried) >= 3

    def test_retry_level_steps_down(self):
        rc = make_minstrel(probe_interval=0)
        for _ in range(100):
            rc.on_result(MCS_TABLE[7], 10, 10)
        best = rc.choose().index
        assert rc.choose(retry_level=2).index == max(0, best - 2)
        assert rc.choose(retry_level=100).index == 0

    def test_success_estimate_tracks_results(self):
        rc = make_minstrel()
        for _ in range(50):
            rc.on_result(MCS_TABLE[3], 10, 0)
        assert rc.success_estimate(MCS_TABLE[3]) < 0.01

    def test_zero_sent_ignored(self):
        rc = make_minstrel()
        before = rc.success_estimate(MCS_TABLE[0])
        rc.on_result(MCS_TABLE[0], 0, 0)
        assert rc.success_estimate(MCS_TABLE[0]) == before

    def test_invalid_ewma_rejected(self):
        with pytest.raises(ValueError):
            make_minstrel(ewma_weight=1.0)


class TestEsnrRateControl:
    def test_defaults_to_most_robust_without_reports(self):
        rc = EsnrRateControl()
        assert rc.choose().index == 0

    def test_tracks_reported_esnr(self):
        rc = EsnrRateControl()
        rc.on_esnr(40.0)
        assert rc.choose().index == 7
        rc.on_esnr(5.0)
        assert rc.choose().index <= 1

    def test_retry_fallback(self):
        rc = EsnrRateControl()
        rc.on_esnr(40.0)
        assert rc.choose(retry_level=3).index == 4


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                          st.floats(0.0, 1.0)),
                min_size=len(MCS_TABLE), max_size=len(MCS_TABLE)))
def test_best_index_equals_argmax_including_ties(success):
    rc = make_minstrel()
    rc._success = list(success)
    throughput = [e.phy_rate_mbps * s for e, s in zip(rc.table, success)]
    assert rc._best_index() == int(np.argmax(throughput))


def test_best_index_tie_goes_to_first():
    rc = make_minstrel()
    rate = [e.phy_rate_mbps for e in rc.table]
    # MCS 3 and MCS 5 at the same expected throughput.
    rc._success = [0.0] * len(rate)
    rc._success[3] = 1.0
    rc._success[5] = rate[3] / rate[5]
    assert rate[5] * rc._success[5] == rate[3]
    assert rc._best_index() == 3
    rc._success = [0.0] * len(rate)
    assert rc._best_index() == 0
