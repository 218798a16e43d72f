"""Small-scale (fast) fading.

The vehicular picocell regime (Fig. 2 of the paper) is driven by Rayleigh
fast fading whose coherence time at 2.4 GHz and driving speed is two to
three milliseconds.  We model each link as a tapped delay line; each tap is
an independent Rayleigh process generated with Clarke/Jakes sum-of-sinusoids
so that the process is

* **time-selective** -- the Doppler spread is ``v / lambda``, tying the
  coherence time to vehicle speed exactly as in the paper, and
* **frequency-selective** -- multiple delay taps make the 56 OFDM
  subcarriers fade differently, which is what makes ESNR a better
  predictor than RSSI.

The process is evaluated lazily at arbitrary timestamps, so the simulator
only pays for fading computation when a frame or CSI sample needs it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..perf import PERF

__all__ = [
    "doppler_hz",
    "coherence_time_s",
    "RayleighTap",
    "TappedDelayChannel",
    "DEFAULT_TAP_DELAYS_NS",
    "DEFAULT_TAP_POWERS_DB",
    "ht20_subcarrier_freqs",
    "steering_matrix",
]

# Small-cell roadside environment: short delay spread, similar to indoor
# (the paper notes the standard cyclic prefix suffices).  The direct path
# dominates strongly: the parabolic antenna suppresses long echoes, so
# late taps carry little power -- mild frequency selectivity, consistent
# with the top MCS rates being reachable near boresight (Fig. 16).
DEFAULT_TAP_DELAYS_NS = (0.0, 50.0, 120.0, 200.0)
DEFAULT_TAP_POWERS_DB = (0.0, -6.0, -13.0, -20.0)


def doppler_hz(speed_mps: float, freq_hz: float = 2.462e9) -> float:
    """Maximum Doppler shift for a given speed and carrier frequency."""
    from .pathloss import SPEED_OF_LIGHT

    return abs(speed_mps) * freq_hz / SPEED_OF_LIGHT


def coherence_time_s(speed_mps: float, freq_hz: float = 2.462e9) -> float:
    """Channel coherence time (Clarke's 0.423/f_d rule of thumb).

    At 25 mph (11.2 m/s) and 2.462 GHz this is ~4.6 ms, consistent with the
    two-to-three millisecond figure the paper quotes for its regime.
    """
    fd = doppler_hz(speed_mps, freq_hz)
    if fd <= 0.0:
        return math.inf
    return 0.423 / fd


class RayleighTap:
    """A single fading tap built from N sinusoids (Clarke's model), with an
    optional Rician line-of-sight component.

    Scattered part:
    ``h_s(t) = sqrt(p_s / N) * sum_n exp(j*(2*pi*f_d*cos(alpha_n)*t + phi_n))``

    With a Rician K factor the tap adds a deterministic LoS phasor of power
    ``K/(K+1)`` of the tap total, Doppler-rotating at a single angle -- the
    roadside geometry (directional antenna aimed at the car) has a strong
    direct path, so the first tap is Rician in practice.

    With N >= 8 the scattered envelope is close to Rayleigh; we default to
    16.  Arrival angles use the deterministic Pop-Beaulieu layout with a
    random rotation so that different taps/links decorrelate.
    """

    __slots__ = ("power", "_amplitude", "_omega", "_phase", "_los_amp",
                 "_los_omega", "_los_phase")

    def __init__(
        self,
        rng: np.random.Generator,
        doppler_hz: float,
        power: float = 1.0,
        n_sinusoids: int = 16,
        k_factor: float = 0.0,
    ):
        if power < 0:
            raise ValueError("tap power cannot be negative")
        if n_sinusoids < 1:
            raise ValueError("need at least one sinusoid")
        if k_factor < 0:
            raise ValueError("Rician K factor cannot be negative")
        self.power = power
        n = np.arange(n_sinusoids)
        rotation = rng.uniform(0.0, 2.0 * np.pi)
        alpha = (2.0 * np.pi * n + rotation) / n_sinusoids
        # A floor on the Doppler keeps even the "static" case slowly mobile
        # (scatterers around a parked car still move).
        fd = max(doppler_hz, 0.2)
        self._omega = 2.0 * np.pi * fd * np.cos(alpha)
        self._phase = rng.uniform(0.0, 2.0 * np.pi, size=n_sinusoids)
        scattered_power = power / (1.0 + k_factor)
        los_power = power - scattered_power
        self._amplitude = math.sqrt(scattered_power / n_sinusoids)
        self._los_amp = math.sqrt(los_power)
        self._los_omega = 2.0 * np.pi * fd * math.cos(rng.uniform(0, 2 * np.pi))
        self._los_phase = rng.uniform(0.0, 2.0 * np.pi)

    def gain(self, t: float) -> complex:
        """Complex tap gain at time ``t`` (seconds).

        This is the scalar *reference* implementation; the hot path goes
        through the stacked kernel in :class:`TappedDelayChannel`, which is
        bit-identical (locked in by ``tests/test_phy_fastpath.py``).
        """
        angles = self._omega * t + self._phase
        scattered = self._amplitude * complex(
            float(np.sum(np.cos(angles))), float(np.sum(np.sin(angles)))
        )
        if self._los_amp == 0.0:
            return scattered
        los_angle = self._los_omega * t + self._los_phase
        return scattered + self._los_amp * complex(
            math.cos(los_angle), math.sin(los_angle)
        )


class TappedDelayChannel:
    """Frequency-selective fading channel: several Rayleigh taps + FFT.

    ``subcarrier_gains(t)`` returns the complex gain on each OFDM
    subcarrier, normalised so the *expected* per-subcarrier power is one --
    path loss and antenna gain are applied separately by
    :class:`repro.phy.channel.Link`.

    All per-tap sinusoid parameters are stacked into ``(n_taps,
    n_sinusoids)`` arrays at construction, so a gain query is one ``cos`` /
    ``sin`` kernel evaluation instead of a Python loop over taps, and the
    batched ``*_at(ts)`` variants amortise that kernel over many
    timestamps at once (the metrics/CLI sampling loops).  Every variant is
    bit-identical to the scalar :meth:`RayleighTap.gain` reference.
    """

    #: Timestamps per chunk in the batched kernels; bounds the (chunk,
    #: n_taps, n_sinusoids) temporary to a few MB regardless of batch size.
    BATCH_CHUNK = 16384

    def __init__(
        self,
        rng: np.random.Generator,
        doppler_hz: float,
        tap_delays_ns: Sequence[float] = DEFAULT_TAP_DELAYS_NS,
        tap_powers_db: Sequence[float] = DEFAULT_TAP_POWERS_DB,
        n_sinusoids: int = 16,
        subcarrier_freqs_hz: Optional[np.ndarray] = None,
        rician_k: float = 0.0,
    ):
        if len(tap_delays_ns) != len(tap_powers_db):
            raise ValueError("tap delay/power lists must be the same length")
        powers = np.power(10.0, np.asarray(tap_powers_db, dtype=float) / 10.0)
        powers /= powers.sum()  # unit total power
        self.doppler_hz = doppler_hz
        self.rician_k = rician_k
        # Only the first (direct-path) tap carries the LoS component.
        # RayleighTap draws from ``rng`` in the exact same order as the
        # scalar implementation always has, so seeded channels reproduce.
        self.taps = [
            RayleighTap(
                rng, doppler_hz, power=p, n_sinusoids=n_sinusoids,
                k_factor=rician_k if i == 0 else 0.0,
            )
            for i, p in enumerate(powers)
        ]
        # Stacked kernel parameters: one trig evaluation covers all taps.
        self._omegas = np.stack([tap._omega for tap in self.taps])
        self._phases = np.stack([tap._phase for tap in self.taps])
        self._amps = np.array([tap._amplitude for tap in self.taps])
        self._los_amps = np.array([tap._los_amp for tap in self.taps])
        self._los_omegas = np.array([tap._los_omega for tap in self.taps])
        self._los_phases = np.array([tap._los_phase for tap in self.taps])
        self._los_idx = np.flatnonzero(self._los_amps > 0.0)
        self._delays_s = np.asarray(tap_delays_ns, dtype=float) * 1e-9
        # Hot-path scratch: reused per tap_gains call so the (n_taps,
        # n_sinusoids) temporaries are allocated once, not per event.
        self._angle_buf = np.empty_like(self._omegas)
        self._trig_buf = np.empty_like(self._omegas)
        # With exactly one LoS tap (the common Rician-first-tap setup)
        # the per-call fancy indexing collapses to scalar arithmetic.
        if self._los_idx.size == 1:
            i0 = int(self._los_idx[0])
            self._los_one = (
                i0,
                float(self._los_amps[i0]),
                float(self._los_omegas[i0]),
                float(self._los_phases[i0]),
            )
        else:
            self._los_one = None
        if subcarrier_freqs_hz is None:
            subcarrier_freqs_hz = ht20_subcarrier_freqs()
        self.subcarrier_freqs_hz = subcarrier_freqs_hz
        # (n_subcarriers x n_taps) steering matrix, shared across all links
        # with the same subcarrier grid and delay profile.
        self._steering = steering_matrix(subcarrier_freqs_hz, self._delays_s)

    @property
    def n_subcarriers(self) -> int:
        return len(self.subcarrier_freqs_hz)

    def tap_gains(self, t: float) -> np.ndarray:
        """Complex gain of every tap at time ``t``."""
        PERF.count("phy.tap_eval_points")
        # ufuncs write into preallocated scratch; same operations in the
        # same order as the allocating form, so results are bit-identical.
        angles = self._angle_buf
        np.multiply(self._omegas, t, out=angles)
        angles += self._phases
        trig = self._trig_buf
        # np.add.reduce is the reduction ndarray.sum runs, minus its
        # Python-level dispatch wrapper (bit-identical, hot-path win).
        reduce = np.add.reduce
        np.cos(angles, out=trig)
        real = self._amps * reduce(trig, axis=1)
        np.sin(angles, out=trig)
        imag = self._amps * reduce(trig, axis=1)
        los_one = self._los_one
        if los_one is not None:
            i0, amp, omega, phase = los_one
            ang = omega * t + phase
            real[i0] += amp * np.cos(ang)
            imag[i0] += amp * np.sin(ang)
        else:
            idx = self._los_idx
            if idx.size:
                los_angles = self._los_omegas[idx] * t + self._los_phases[idx]
                real[idx] += self._los_amps[idx] * np.cos(los_angles)
                imag[idx] += self._los_amps[idx] * np.sin(los_angles)
        gains = np.empty(len(real), dtype=complex)
        gains.real = real
        gains.imag = imag
        return gains

    def tap_gains_at(self, ts) -> np.ndarray:
        """Complex tap gains at a batch of timestamps: shape (len(ts), n_taps)."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError("tap_gains_at expects a 1-D array of timestamps")
        PERF.count("phy.tap_eval_points", ts.size)
        n_taps = len(self.taps)
        gains = np.empty((ts.size, n_taps), dtype=complex)
        idx = self._los_idx
        for lo in range(0, ts.size, self.BATCH_CHUNK):
            hi = min(lo + self.BATCH_CHUNK, ts.size)
            chunk = ts[lo:hi]
            angles = (self._omegas[None, :, :] * chunk[:, None, None]
                      + self._phases[None, :, :])
            gains.real[lo:hi] = self._amps * np.sum(np.cos(angles), axis=2)
            gains.imag[lo:hi] = self._amps * np.sum(np.sin(angles), axis=2)
            if idx.size:
                los_angles = (self._los_omegas[idx][None, :] * chunk[:, None]
                              + self._los_phases[idx][None, :])
                gains.real[lo:hi, idx] += self._los_amps[idx] * np.cos(los_angles)
                gains.imag[lo:hi, idx] += self._los_amps[idx] * np.sin(los_angles)
        return gains

    def subcarrier_gains(self, t: float) -> np.ndarray:
        """Complex gain on every subcarrier at time ``t``.

        ``H_k(t) = sum_l h_l(t) * exp(-j*2*pi*f_k*tau_l)``
        """
        return self._steering @ self.tap_gains(t)

    def subcarrier_gains_at(self, ts) -> np.ndarray:
        """Subcarrier gains at a batch of timestamps: (len(ts), n_subcarriers).

        Uses a broadcast matmul that is bit-identical to evaluating
        ``steering @ tap_gains(t)`` timestamp by timestamp.
        """
        gains = self.tap_gains_at(ts)
        return np.matmul(self._steering[None, :, :], gains[:, :, None])[:, :, 0]

    def flat_gain(self, t: float) -> complex:
        """Wideband (frequency-flat) gain: the tap sum without dispersion."""
        return complex(np.add.reduce(self.tap_gains(t)))

    def flat_gains_at(self, ts) -> np.ndarray:
        """Wideband gains at a batch of timestamps: shape (len(ts),)."""
        return np.sum(self.tap_gains_at(ts), axis=1)


@lru_cache(maxsize=8)
def ht20_subcarrier_freqs(n_subcarriers: int = 56, spacing_hz: float = 312_500.0) -> np.ndarray:
    """Baseband frequencies of the 56 occupied HT20 subcarriers (-28..28, no DC).

    Memoised: every link shares one immutable frequency grid instead of
    rebuilding it per :class:`~repro.phy.channel.Link` (one per AP x client).
    """
    idx = np.concatenate(
        [np.arange(-n_subcarriers // 2, 0), np.arange(1, n_subcarriers // 2 + 1)]
    )
    freqs = idx * spacing_hz
    freqs.setflags(write=False)
    return freqs


#: Shared steering matrices keyed by (subcarrier freqs, tap delays).
_STEERING_CACHE: Dict[Tuple[bytes, bytes], np.ndarray] = {}


def steering_matrix(subcarrier_freqs_hz: np.ndarray, delays_s: np.ndarray) -> np.ndarray:
    """The (n_subcarriers x n_taps) matrix ``exp(-j*2*pi*f_k*tau_l)``.

    Cached by content: every link with the same subcarrier grid and delay
    profile (i.e. all of them, in a standard deployment) shares one
    immutable matrix instead of rebuilding an identical 56x4 complex array
    per AP x client pair.
    """
    freqs = np.asarray(subcarrier_freqs_hz, dtype=float)
    delays = np.asarray(delays_s, dtype=float)
    key = (freqs.tobytes(), delays.tobytes())
    cached = _STEERING_CACHE.get(key)
    if cached is None:
        PERF.count("phy.steering_builds")
        cached = np.exp(-2j * np.pi * np.outer(freqs, delays))
        cached.setflags(write=False)
        _STEERING_CACHE[key] = cached
    else:
        PERF.count("phy.steering_cache_hits")
    return cached
