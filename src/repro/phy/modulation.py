"""Uncoded bit-error-rate curves for the 802.11 constellations.

These are the standard AWGN expressions used by Halperin et al.'s Effective
SNR work ("Predictable 802.11 packet delivery from wireless channel
measurements", SIGCOMM 2010), which the paper adopts for AP selection.

All functions take SNR as a *linear* ratio (not dB) and are vectorised over
numpy arrays.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np
from scipy.special import erfc

__all__ = [
    "Constellation",
    "ber_bpsk",
    "ber_qpsk",
    "ber_qam16",
    "ber_qam64",
    "BER_FUNCTIONS",
    "db_to_linear",
    "linear_to_db",
]


def db_to_linear(db, out=None):
    """Convert decibels to a linear power ratio (vectorised).

    ``out`` (a float array shaped like ``db``) receives the result in place;
    the ufuncs and their order are the same either way.
    """
    x = np.divide(np.asarray(db, dtype=float), 10.0, out=out)
    return np.power(10.0, x, out=out)


def linear_to_db(linear, out=None):
    """Convert a linear power ratio to decibels (vectorised, floors at 1e-12)."""
    x = np.maximum(np.asarray(linear, dtype=float), 1e-12, out=out)
    x = np.log10(x, out=out)
    return np.multiply(x, 10.0, out=out)


_SQRT2 = math.sqrt(2.0)


def _q(x, out=None):
    """Gaussian tail function Q(x) = 0.5 * erfc(x / sqrt(2))."""
    x = np.divide(x, _SQRT2, out=out)
    x = erfc(x, out=out)
    return np.multiply(x, 0.5, out=out)


def _clipped(snr_linear, out):
    """Negative SNRs clamped to zero.  Every BER curve takes ``out=`` like
    db_to_linear, so the per-frame ESNR kernel runs them in place."""
    return np.maximum(np.asarray(snr_linear, dtype=float), 0.0, out=out)


def ber_bpsk(snr_linear, out=None):
    """BPSK bit error rate: Q(sqrt(2*SNR))."""
    x = np.multiply(_clipped(snr_linear, out), 2.0, out=out)
    return _q(np.sqrt(x, out=out), out)


def ber_qpsk(snr_linear, out=None):
    """QPSK bit error rate: identical per-bit performance to BPSK."""
    return _q(np.sqrt(_clipped(snr_linear, out), out=out), out)


def ber_qam16(snr_linear, out=None):
    """Gray-coded 16-QAM approximate BER: (3/4) * Q(sqrt(SNR / 5))."""
    x = np.divide(_clipped(snr_linear, out), 5.0, out=out)
    return np.multiply(_q(np.sqrt(x, out=out), out), 0.75, out=out)


def ber_qam64(snr_linear, out=None):
    """Gray-coded 64-QAM approximate BER: (7/12) * Q(sqrt(SNR / 21))."""
    x = np.divide(_clipped(snr_linear, out), 21.0, out=out)
    return np.multiply(_q(np.sqrt(x, out=out), out), 7.0 / 12.0, out=out)


class Constellation:
    """Names for the constellations used by 802.11n MCS 0-7."""

    BPSK = "bpsk"
    QPSK = "qpsk"
    QAM16 = "qam16"
    QAM64 = "qam64"

    ALL = (BPSK, QPSK, QAM16, QAM64)

    BITS_PER_SYMBOL = {BPSK: 1, QPSK: 2, QAM16: 4, QAM64: 6}


BER_FUNCTIONS: Dict[str, Callable] = {
    Constellation.BPSK: ber_bpsk,
    Constellation.QPSK: ber_qpsk,
    Constellation.QAM16: ber_qam16,
    Constellation.QAM64: ber_qam64,
}
