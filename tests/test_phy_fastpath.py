"""Equivalence tests for the vectorized PHY fast path.

The fast path (stacked fading kernels, LUT BER inversion, link-level
memoization) is only admissible because it is *bit-identical* to the
scalar reference implementation.  These tests lock that in:

* vectorized tap/subcarrier kernels == the per-tap scalar reference,
  exactly, across seeds, Doppler spreads, Rician K and timestamps;
* LUT ``invert_ber`` == bisection, exactly (and therefore trivially
  within ``tol_db``), across all constellations;
* batched ESNR == scalar ESNR, exactly;
* memoized links return bit-identical values to unmemoized links;
* the in-place ESNR kernel and the RSSI proxy == the allocating formulas;
* a default drive reproduces the pre-PR golden delivery/trace digests.
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from repro.phy.channel import Link, RadioParams
from repro.phy.antenna import ParabolicAntenna
from repro.phy.esnr import (
    BerInversionTable,
    effective_snr_db,
    effective_snr_db_batch,
    esnr_db_from_csi,
    invert_ber,
    invert_ber_batch,
    invert_ber_bisect,
    subcarrier_snr_db_from_csi,
)
from repro.phy.fading import (
    TappedDelayChannel,
    ht20_subcarrier_freqs,
    steering_matrix,
)
from repro.phy.modulation import BER_FUNCTIONS, Constellation, db_to_linear

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "drive_digests.json")

SEEDS = (0, 1, 7, 42, 1234)
DOPPLERS = (0.0, 11.0, 92.0, 310.0)
TIMESTAMPS = np.concatenate(
    [np.linspace(-2.0, 40.0, 101), [0.0, 1e-9, 1e-3, 123.456, 9876.5]]
)


def _reference_tap_gains(channel, t):
    """The pre-PR scalar path: a Python loop over RayleighTap.gain."""
    return np.array([tap.gain(float(t)) for tap in channel.taps], dtype=complex)


class TestVectorizedFadingKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("doppler", DOPPLERS)
    def test_tap_gains_exact(self, seed, doppler):
        ch = TappedDelayChannel(np.random.default_rng(seed), doppler, rician_k=4.0)
        for t in TIMESTAMPS[::7]:
            ref = _reference_tap_gains(ch, t)
            assert np.array_equal(ch.tap_gains(float(t)), ref)
        batch = ch.tap_gains_at(TIMESTAMPS)
        ref = np.stack([_reference_tap_gains(ch, t) for t in TIMESTAMPS])
        assert np.array_equal(batch, ref)

    @pytest.mark.parametrize("rician_k", (0.0, 4.0, 12.0))
    def test_tap_gains_exact_rician(self, rician_k):
        ch = TappedDelayChannel(
            np.random.default_rng(3), 92.0, rician_k=rician_k
        )
        batch = ch.tap_gains_at(TIMESTAMPS)
        ref = np.stack([_reference_tap_gains(ch, t) for t in TIMESTAMPS])
        assert np.array_equal(batch, ref)

    def test_subcarrier_gains_exact(self):
        for seed in SEEDS:
            ch = TappedDelayChannel(np.random.default_rng(seed), 92.0, rician_k=4.0)
            ref = np.stack(
                [ch._steering @ _reference_tap_gains(ch, t) for t in TIMESTAMPS]
            )
            scalar = np.stack([ch.subcarrier_gains(float(t)) for t in TIMESTAMPS])
            batch = ch.subcarrier_gains_at(TIMESTAMPS)
            assert np.array_equal(scalar, ref)
            assert np.array_equal(batch, ref)

    def test_flat_gains_exact(self):
        ch = TappedDelayChannel(np.random.default_rng(5), 92.0, rician_k=4.0)
        ref = np.array(
            [complex(np.sum(_reference_tap_gains(ch, t))) for t in TIMESTAMPS]
        )
        assert np.array_equal(ch.flat_gains_at(TIMESTAMPS), ref)
        assert ch.flat_gain(1.25) == complex(np.sum(_reference_tap_gains(ch, 1.25)))

    def test_chunked_batch_matches_unchunked(self):
        ch = TappedDelayChannel(np.random.default_rng(0), 92.0, rician_k=4.0)
        small = TappedDelayChannel(np.random.default_rng(0), 92.0, rician_k=4.0)
        small.BATCH_CHUNK = 13  # force many partial chunks
        ts = np.linspace(0.0, 5.0, 1001)
        assert np.array_equal(ch.tap_gains_at(ts), small.tap_gains_at(ts))

    def test_batch_rejects_2d_input(self):
        ch = TappedDelayChannel(np.random.default_rng(0), 92.0)
        with pytest.raises(ValueError):
            ch.tap_gains_at(np.zeros((2, 2)))


class TestSharedPrecomputation:
    def test_ht20_freqs_memoized_and_readonly(self):
        a = ht20_subcarrier_freqs()
        b = ht20_subcarrier_freqs()
        assert a is b
        assert not a.flags.writeable

    def test_steering_matrix_shared_across_channels(self):
        ch1 = TappedDelayChannel(np.random.default_rng(1), 92.0)
        ch2 = TappedDelayChannel(np.random.default_rng(2), 45.0)
        assert ch1._steering is ch2._steering
        assert not ch1._steering.flags.writeable

    def test_steering_matrix_values(self):
        freqs = ht20_subcarrier_freqs()
        delays = np.array([0.0, 50e-9])
        m = steering_matrix(freqs, delays)
        expected = np.exp(-2j * np.pi * np.outer(freqs, delays))
        assert np.array_equal(m, expected)
        assert steering_matrix(freqs, delays) is m


class TestLutInversion:
    @pytest.mark.parametrize("constellation", Constellation.ALL)
    def test_lut_matches_bisection_exactly(self, constellation):
        fn = BER_FUNCTIONS[constellation]
        rng = np.random.default_rng(0)
        snrs = rng.uniform(-20.0, 60.0, 4000)
        targets = np.asarray(fn(db_to_linear(snrs)), dtype=float)
        # Include exact clamp edges and grid-boundary BERs.
        targets = np.concatenate([
            targets, [0.0, 0.5, 1.0, 1e-300],
            np.asarray(fn(db_to_linear(np.array([-15.0, 55.0, 0.0, 20.0]))),
                       dtype=float),
        ])
        ref = np.array([invert_ber_bisect(float(tb), constellation)
                        for tb in targets])
        lut = np.array([invert_ber(float(tb), constellation) for tb in targets])
        batch = invert_ber_batch(targets, constellation)
        assert np.array_equal(lut, ref)
        assert np.array_equal(batch, ref)
        # The acceptance bound -- trivially implied by exact equality.
        assert np.max(np.abs(lut - ref)) <= 0.01

    def test_lut_non_default_tolerance(self):
        for tol in (0.1, 0.005):
            assert invert_ber(1e-3, Constellation.QAM64, tol_db=tol) == \
                invert_ber_bisect(1e-3, Constellation.QAM64, tol_db=tol)

    def test_lut_table_depth(self):
        table = BerInversionTable(Constellation.QAM64, tol_db=0.01)
        # 70 dB span / 2**13 <= 0.01 dB, the bisection iteration count.
        assert table.depth == 13
        assert len(table.boundaries) == 2 ** 13 + 1

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            invert_ber(1e-3, Constellation.QAM64, method="newton")

    def test_invalid_tol_rejected(self):
        with pytest.raises(ValueError):
            BerInversionTable(Constellation.QAM64, tol_db=0.0)


class TestBatchedEsnr:
    def test_batch_matches_scalar_exactly(self):
        rng = np.random.default_rng(1)
        snr2d = rng.uniform(-20.0, 45.0, size=(300, 56))
        for constellation in Constellation.ALL:
            ref = np.array(
                [effective_snr_db(row, constellation) for row in snr2d]
            )
            assert np.array_equal(
                effective_snr_db_batch(snr2d, constellation), ref
            )

    def test_batch_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            effective_snr_db_batch(np.zeros(56))
        with pytest.raises(ValueError):
            effective_snr_db_batch(np.zeros((3, 0)))


def _make_link(seed=0, memoize=True):
    position = (0.0, -8.0, 10.0)
    antenna = ParabolicAntenna.aimed_at(position, (0.0, 3.75, 1.5))
    return Link(
        ap_position=position,
        ap_antenna=antenna,
        client_position_fn=lambda t: (-20.0 + 10.0 * t, 2.0, 1.5),
        speed_mps=10.0,
        rng=np.random.default_rng(seed),
        params=RadioParams(),
        memoize=memoize,
    )


class TestLinkMemoizationAndBatch:
    def test_memoized_equals_unmemoized(self):
        a = _make_link(seed=3, memoize=True)
        b = _make_link(seed=3, memoize=False)
        for t in (0.0, 0.5, 1.0, 1.23456789):
            for uplink in (False, True):
                assert a.esnr_db(t, uplink=uplink) == b.esnr_db(t, uplink=uplink)
                assert a.mean_snr_db(t, uplink=uplink) == b.mean_snr_db(t, uplink=uplink)
                assert a.rssi_db(t, uplink=uplink) == b.rssi_db(t, uplink=uplink)
            assert np.array_equal(a.csi(t), b.csi(t))

    def test_repeated_query_served_from_memo(self):
        from repro.perf import PERF

        link = _make_link(seed=4)
        link.esnr_db(1.0)
        before = PERF.get("link.memo_hits")
        v1 = link.esnr_db(1.0)
        v2 = link.esnr_db(1.0)
        assert v1 == v2
        assert PERF.get("link.memo_hits") >= before + 2

    def test_memo_invalidated_on_new_timestamp(self):
        link = _make_link(seed=5)
        v1 = link.esnr_db(1.0)
        link.esnr_db(2.0)  # new timestamp flushes the memo
        assert link.esnr_db(1.0) == v1  # recomputed, still bit-identical

    def test_interleaved_quantities_same_timestamp(self):
        """The motivating pattern: CSI + ESNR + mean SNR for one frame."""
        link = _make_link(seed=6)
        ref = _make_link(seed=6, memoize=False)
        t = 0.777
        reading = link.measure_csi(t, ap_id=1, client_id=100)
        esnr = link.esnr_db(t, uplink=True)
        from repro.phy.mcs import MCS_TABLE

        p = link.mpdu_success_probability(t, MCS_TABLE[4], uplink=True)
        ref_reading = ref.measure_csi(t, ap_id=1, client_id=100)
        assert np.array_equal(reading.csi, ref_reading.csi)
        assert reading.mean_snr_db == ref_reading.mean_snr_db
        assert esnr == ref.esnr_db(t, uplink=True)
        assert 0.0 <= p <= 1.0

    def test_esnr_batch_matches_scalar(self):
        link = _make_link(seed=7)
        ts = np.linspace(0.0, 4.0, 101)
        for uplink in (False, True):
            batch = link.esnr_db_at(ts, uplink=uplink)
            ref = np.array(
                [link.esnr_db(float(t), uplink=uplink) for t in ts]
            )
            assert np.array_equal(batch, ref)

    def test_subcarrier_snr_batch_matches_scalar(self):
        link = _make_link(seed=8)
        ts = np.linspace(0.0, 2.0, 41)
        batch = link.subcarrier_snr_db_at(ts)
        ref = np.stack([link.subcarrier_snr_db(float(t)) for t in ts])
        assert np.array_equal(batch, ref)

    def test_capacity_batch_matches_scalar_closely(self):
        # np.exp vs math.exp can differ in the last ulp, so this one is
        # tolerance-based (the ESNR feeding it is exact; see docstring).
        link = _make_link(seed=9)
        ts = np.linspace(0.0, 4.0, 101)
        batch = link.capacity_mbps_at(ts)
        ref = np.array([link.capacity_mbps(float(t)) for t in ts])
        np.testing.assert_allclose(batch, ref, rtol=1e-12, atol=1e-9)


def _reference_ber(constellation, snr_linear):
    """Reference: the BER curves as plain allocating expressions."""
    snr = np.maximum(np.asarray(snr_linear, dtype=float), 0.0)

    def q(x):
        return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))

    if constellation == Constellation.BPSK:
        return q(np.sqrt(2.0 * snr))
    if constellation == Constellation.QPSK:
        return q(np.sqrt(snr))
    if constellation == Constellation.QAM16:
        return 0.75 * q(np.sqrt(snr / 5.0))
    return (7.0 / 12.0) * q(np.sqrt(snr / 21.0))


def _reference_esnr(csi, mean_snr_db, constellation):
    """CSI -> ESNR with a fresh array per step and ``np.mean``."""
    power = np.abs(np.asarray(csi)) ** 2
    snr_db = mean_snr_db + 10.0 * np.log10(np.maximum(power, 1e-12))
    snr_db = np.maximum(snr_db, -20.0)
    linear = np.power(10.0, snr_db / 10.0)
    mean_ber = float(np.mean(_reference_ber(constellation, linear)))
    return invert_ber(mean_ber, constellation)


#: CSI magnitudes that include exact zeros and nulls deep enough to hit
#: the -20 dB floor at every mean SNR in range.
_csi_magnitudes = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-9, 1e-3), st.floats(1e-3, 3.0)),
    min_size=1, max_size=64,
)


class TestInPlaceKernels:
    @settings(max_examples=150, deadline=None)
    @given(mags=_csi_magnitudes, data=st.data(),
           mean_snr_db=st.floats(-10.0, 50.0),
           constellation=st.sampled_from(Constellation.ALL))
    def test_esnr_kernel_equals_allocating_formula(self, mags, data,
                                                   mean_snr_db, constellation):
        phases = data.draw(st.lists(st.floats(-math.pi, math.pi),
                                    min_size=len(mags), max_size=len(mags)))
        csi = np.asarray(mags) * np.exp(1j * np.asarray(phases))
        got = esnr_db_from_csi(csi, mean_snr_db, constellation)
        assert got == _reference_esnr(csi, mean_snr_db, constellation)
        assert got == effective_snr_db(
            subcarrier_snr_db_from_csi(csi, mean_snr_db), constellation)

    @pytest.mark.parametrize("constellation", Constellation.ALL)
    def test_esnr_kernel_on_channel_csi(self, constellation):
        ch = TappedDelayChannel(np.random.default_rng(11), 92.0, rician_k=4.0)
        for i, t in enumerate(TIMESTAMPS):
            csi = ch.subcarrier_gains(float(t))
            if i % 5 == 0:
                csi[i % 56] = 0.0  # a null deep enough to hit the floor
            mean = -10.0 + 60.0 * i / len(TIMESTAMPS)
            assert (esnr_db_from_csi(csi, mean, constellation)
                    == _reference_esnr(csi, mean, constellation))

    @pytest.mark.parametrize("constellation", Constellation.ALL)
    def test_ber_out_matches_allocating(self, constellation):
        snr = db_to_linear(np.linspace(-25.0, 60.0, 997))
        buf = np.empty_like(snr)
        got = BER_FUNCTIONS[constellation](snr, out=buf)
        assert got is buf
        assert np.array_equal(buf, _reference_ber(constellation, snr))
        assert np.array_equal(BER_FUNCTIONS[constellation](snr),
                              _reference_ber(constellation, snr))

    def test_kernel_reads_csi_and_returns_a_float(self):
        link = _make_link(seed=12)
        reading = link.measure_csi(0.4, ap_id=1, client_id=100)
        kept = reading.csi.copy()
        esnr = reading.esnr_db()
        link.esnr_db(0.4, uplink=True)
        link.esnr_db(0.9)
        assert type(esnr) is float
        assert not reading.csi.flags.writeable
        assert np.array_equal(reading.csi, kept)
        assert esnr == _reference_esnr(kept, reading.mean_snr_db,
                                       Constellation.QAM64)
        assert (link.esnr_db(0.4, uplink=True)
                == _reference_esnr(link.csi(0.4),
                                   link.mean_snr_db(0.4, uplink=True),
                                   Constellation.QAM64))

    def test_empty_csi_rejected(self):
        with pytest.raises(ValueError):
            esnr_db_from_csi(np.zeros(0, dtype=complex), 20.0)

    def test_rssi_equals_allocating_formula(self):
        for seed in (0, 3):
            link = _make_link(seed=seed)
            for t in np.linspace(0.0, 4.0, 401):
                t = float(t)
                for uplink in (False, True):
                    power = max(abs(link.fading.flat_gain(t)) ** 2, 1e-12)
                    ref = link.mean_snr_db(t, uplink=uplink) + float(
                        10.0 * np.log10(np.maximum(
                            np.asarray(power, dtype=float), 1e-12)))
                    assert link.rssi_db(t, uplink=uplink) == ref


class TestGoldenDriveDigests:
    """A default drive must be bit-identical to the pre-PR scalar stack."""

    @pytest.mark.parametrize("name", ("baseline_tcp", "default_tcp"))
    def test_drive_digest_matches_golden(self, name):
        from repro.experiments import runners
        from repro.experiments.digest import drive_digests

        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        entry = golden[name]
        # Flow ids are allocated from a module-global counter; pin it so
        # the digest does not depend on what ran earlier in the session.
        saved = runners._next_flow_id[0]
        try:
            runners._next_flow_id[0] = 1
            result = runners.run_single_drive(**entry["kwargs"])
        finally:
            runners._next_flow_id[0] = saved
        got = drive_digests(result)
        for key in ("deliveries", "trace", "n_deliveries", "n_trace_records",
                    "throughput_hex", "events_fired"):
            assert got[key] == entry[key], f"{name}: {key} diverged from pre-PR"
