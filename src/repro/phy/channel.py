"""Composite link channel: geometry + path loss + antennas + fast fading.

One :class:`Link` models the (reciprocal) radio channel between an AP and a
mobile client.  Large-scale gain follows the client's trajectory through
the AP's antenna pattern; small-scale gain is the tapped Rayleigh process
from :mod:`repro.phy.fading`.  All the quantities the rest of the system
needs -- mean SNR, per-packet CSI, ESNR, per-MPDU delivery probability --
are derived here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..perf import PERF
from .antenna import OmniAntenna, ParabolicAntenna
from .csi import CSIReading
from .esnr import (
    DEFAULT_ESNR_CONSTELLATION,
    effective_snr_db_batch,
    esnr_db_from_csi,
    subcarrier_snr_db_from_csi,
)
from .fading import TappedDelayChannel, doppler_hz
from .mcs import MCS_TABLE, McsEntry, link_capacity_mbps, pdr
from .pathloss import LogDistancePathLoss

__all__ = ["RadioParams", "Link"]

#: Sentinel distinguishing "not cached" from a cached None/0.0.
_MEMO_MISS = object()

Vec3 = Tuple[float, float, float]
PositionFn = Callable[[float], Vec3]


@dataclass
class RadioParams:
    """Link-budget constants shared by every AP in a deployment.

    Defaults are calibrated so that a static client at boresight sees
    ~35 dB mean SNR and the usable cell (ESNR above the MCS0 threshold)
    spans roughly 8-10 m along the road with 6-10 m overlap between
    adjacent APs, matching the heatmap in Fig. 10.
    """

    freq_hz: float = 2.462e9
    ap_tx_power_dbm: float = 18.0
    client_tx_power_dbm: float = 15.0
    noise_floor_dbm: float = -92.0
    pathloss_exponent: float = 2.8
    penetration_loss_db: float = 14.0  # third-floor window + cabling/splitter
    client_antenna_gain_dbi: float = 0.0
    #: Rician K factor (linear) of the direct-path tap.  The parabolic
    #: antenna keeps a strong LoS component on the road, so the channel is
    #: Rician rather than pure Rayleigh; K=4 (~6 dB) matches the ~10 dB
    #: ESNR swings visible in Fig. 2 of the paper.
    rician_k: float = 4.0
    #: Log-normal shadowing standard deviation (dB).  0 disables; the
    #: shadowing robustness benchmark turns it on.
    shadowing_sigma_db: float = 0.0
    shadowing_decorrelation_m: float = 5.0


class Link:
    """The radio channel between one AP and one client.

    Parameters
    ----------
    ap_position / ap_antenna:
        Where the AP is and how its parabolic antenna is aimed.
    client_position_fn:
        Maps simulation time to the client's (x, y, z) position.
    speed_mps:
        Client ground speed; sets the Doppler spread of the fading process.
    rng:
        Numpy Generator; each link gets independent fading.
    """

    def __init__(
        self,
        ap_position: Vec3,
        ap_antenna: ParabolicAntenna,
        client_position_fn: PositionFn,
        speed_mps: float,
        rng: np.random.Generator,
        params: Optional[RadioParams] = None,
        n_subcarriers: int = 56,
        memoize: bool = True,
    ):
        self.params = params or RadioParams()
        self.ap_position = ap_position
        self.ap_antenna = ap_antenna
        self.client_position_fn = client_position_fn
        self.client_antenna = OmniAntenna(self.params.client_antenna_gain_dbi)
        self.pathloss = LogDistancePathLoss(
            freq_hz=self.params.freq_hz,
            exponent=self.params.pathloss_exponent,
            extra_loss_db=self.params.penetration_loss_db,
        )
        self.fading = TappedDelayChannel(
            rng,
            doppler_hz(speed_mps, self.params.freq_hz),
            rician_k=self.params.rician_k,
        )
        if self.params.shadowing_sigma_db > 0.0:
            from .shadowing import ShadowingField

            self.shadowing: Optional[ShadowingField] = ShadowingField(
                rng,
                sigma_db=self.params.shadowing_sigma_db,
                decorrelation_m=self.params.shadowing_decorrelation_m,
            )
        else:
            self.shadowing = None
        self.n_subcarriers = n_subcarriers
        # Scratch of the per-frame ESNR kernel; only esnr_db touches it.
        self._esnr_scratch = np.empty(self.fading.n_subcarriers)
        # Exact-timestamp memoisation of the mean (large-scale) SNR, keyed
        # by (uplink, t).  Measurement on the default drive showed the mean
        # SNR is the *only* per-link quantity queried twice at one instant:
        # every derived evaluation (ESNR for delivery, the RSSI proxy, CSI
        # measurement) re-reads it after the decode-floor cull already did,
        # because the MAC samples a whole frame at one instant (A-MPDU
        # midpoint / control preamble).  The derived quantities themselves
        # (CSI draw, subcarrier SNR, ESNR, RSSI) are each evaluated exactly
        # once per (link, t) -- caching them is pure overhead, so they
        # compute directly.  Historically a single-timestamp cache covering
        # all quantities sat here; interleaved per-exchange timestamps
        # thrashed it (~3% hit rate).  The channel is a pure function of
        # time, so memo hits are free and bit-identical, and the eviction
        # policy can never change values.
        self.memoize = memoize
        self._memo: Dict[Tuple, float] = {}

    #: Bound on distinct (uplink, timestamp) memo entries per link.  One
    #: frame exchange touches a handful of instants; 64 covers several
    #: overlapping exchanges (ACKs, retries, neighbour carrier-sense
    #: probes) with room to spare while keeping memory O(1).
    MEMO_CAPACITY = 64

    # ------------------------------------------------------------ large scale
    def distance_m(self, t: float) -> float:
        cx, cy, cz = self.client_position_fn(t)
        ax, ay, az = self.ap_position
        return math.sqrt((cx - ax) ** 2 + (cy - ay) ** 2 + (cz - az) ** 2)

    def mean_snr_db(self, t: float, uplink: bool = False) -> float:
        """Large-scale mean SNR (dB) at time ``t``.

        The channel is reciprocal; uplink and downlink differ only in
        transmit power (client radios transmit at lower power).
        """
        if not self.memoize:
            return self._mean_snr_db(t, uplink)
        memo = self._memo
        key = (uplink, t)
        value = memo.get(key, _MEMO_MISS)
        if value is not _MEMO_MISS:
            PERF.count("link.memo_hits")
            return value
        PERF.count("link.memo_misses")
        value = self._mean_snr_db(t, uplink)
        if len(memo) >= self.MEMO_CAPACITY:
            # FIFO eviction: drop the oldest insertion.
            del memo[next(iter(memo))]
        memo[key] = value
        return value

    def _mean_snr_db(self, t: float, uplink: bool) -> float:
        params = self.params
        client_pos = self.client_position_fn(t)
        tx_power = params.client_tx_power_dbm if uplink else params.ap_tx_power_dbm
        ap_pos = self.ap_position
        gain_ap = self.ap_antenna.gain_towards(ap_pos, client_pos)
        # Inline distance (same expression as distance_m) so the client
        # position is evaluated once per call instead of twice.
        cx, cy, cz = client_pos
        ax, ay, az = ap_pos
        d = math.sqrt((cx - ax) ** 2 + (cy - ay) ** 2 + (cz - az) ** 2)
        loss = self.pathloss.loss_db(d)
        rx_power = tx_power + gain_ap + params.client_antenna_gain_dbi - loss
        if self.shadowing is not None:
            rx_power += self.shadowing.gain_db(cx)
        return rx_power - params.noise_floor_dbm

    def rx_power_dbm(self, t: float, uplink: bool = False) -> float:
        """Mean received power in dBm (used for capture/collision decisions)."""
        return self.mean_snr_db(t, uplink=uplink) + self.params.noise_floor_dbm

    # ------------------------------------------------------------ small scale
    def csi(self, t: float) -> np.ndarray:
        """Instantaneous complex subcarrier gains (unit mean power)."""
        gains = self.fading.subcarrier_gains(t)
        gains.setflags(write=False)  # shared with callers that keep it
        return gains

    def subcarrier_snr_db(self, t: float, uplink: bool = False) -> np.ndarray:
        snr = subcarrier_snr_db_from_csi(
            self.csi(t), self.mean_snr_db(t, uplink=uplink)
        )
        snr.setflags(write=False)
        return snr

    def esnr_db(
        self,
        t: float,
        uplink: bool = False,
        constellation: str = DEFAULT_ESNR_CONSTELLATION,
    ) -> float:
        """Instantaneous effective SNR of the link."""
        # The gains never leave the kernel, so they skip csi()'s
        # read-only marking.
        return esnr_db_from_csi(
            self.fading.subcarrier_gains(t),
            self.mean_snr_db(t, uplink=uplink),
            constellation,
            self._esnr_scratch,
        )

    def rssi_db(self, t: float, uplink: bool = False) -> float:
        """Wideband received-SNR proxy: mean SNR plus the flat fading gain.

        This is the quantity a beacon-scanning client observes -- blind to
        frequency selectivity, which is the baseline's handicap.
        """
        h = self.fading.flat_gain(t)
        power = max(abs(h) ** 2, 1e-12)
        # linear_to_db on a float already at its floor, minus the array
        # round trip (np.log10 stays: math.log10 can differ in the last bit).
        return self.mean_snr_db(t, uplink=uplink) + 10.0 * float(np.log10(power))

    def capacity_mbps(self, t: float) -> float:
        """Ideal-rate-control expected PHY throughput right now (downlink)."""
        return link_capacity_mbps(self.esnr_db(t))

    # ------------------------------------------------------------ batched
    def csi_at(self, ts) -> np.ndarray:
        """CSI at a batch of timestamps: shape (len(ts), n_subcarriers)."""
        return self.fading.subcarrier_gains_at(ts)

    def mean_snr_db_at(self, ts, uplink: bool = False) -> np.ndarray:
        """Large-scale mean SNR at a batch of timestamps."""
        return np.array(
            [self._mean_snr_db(float(t), uplink) for t in np.asarray(ts, dtype=float)]
        )

    def subcarrier_snr_db_at(self, ts, uplink: bool = False) -> np.ndarray:
        """Per-subcarrier SNR at a batch of timestamps: (len(ts), n_subcarriers).

        Row ``i`` is bit-identical to ``subcarrier_snr_db(ts[i], uplink)``.
        """
        csi = self.csi_at(ts)
        mean_snr = self.mean_snr_db_at(ts, uplink=uplink)
        return subcarrier_snr_db_from_csi(csi, mean_snr[:, None])

    def esnr_db_at(
        self,
        ts,
        uplink: bool = False,
        constellation: str = DEFAULT_ESNR_CONSTELLATION,
    ) -> np.ndarray:
        """Effective SNR at a batch of timestamps (bit-identical per element).

        This is the fast path for the metrics/CLI sampling loops, which
        previously paid the full scalar PHY stack once per sample.
        """
        return effective_snr_db_batch(
            self.subcarrier_snr_db_at(ts, uplink=uplink), constellation
        )

    def capacity_mbps_at(self, ts) -> np.ndarray:
        """Ideal-rate-control capacity at a batch of timestamps (downlink).

        Vectorises :func:`repro.phy.mcs.link_capacity_mbps` over the MCS
        table.  The ESNR input is bit-identical to the scalar path; the
        logistic itself goes through ``np.exp`` rather than ``math.exp``,
        which can differ in the last ulp, so compare against
        ``capacity_mbps(t)`` with a tolerance, not exact equality.
        """
        esnr = self.esnr_db_at(ts)
        best = np.zeros(esnr.shape, dtype=float)
        for mcs in MCS_TABLE:
            x = (esnr - mcs.pdr_threshold_db) / mcs.pdr_scale_db
            rate = np.where(
                x > 35.0, mcs.phy_rate_mbps,
                np.where(x < -35.0, 0.0,
                         mcs.phy_rate_mbps / (1.0 + np.exp(-x))),
            )
            np.maximum(best, rate, out=best)
        return best

    # ------------------------------------------------------- packet delivery
    def mpdu_success_probability(
        self, t: float, mcs: McsEntry, n_bytes: int = 1500, uplink: bool = False
    ) -> float:
        """Probability one MPDU at ``mcs`` gets through at time ``t``.

        Uses the system-wide ESNR metric (the PDR thresholds in
        :mod:`repro.phy.mcs` are calibrated against it).
        """
        esnr = self.esnr_db(t, uplink=uplink)
        return pdr(esnr, mcs, n_bytes=n_bytes)

    def measure_csi(self, t: float, ap_id: int, client_id: int) -> CSIReading:
        """Produce the CSI reading an AP would report for an uplink frame."""
        return CSIReading(
            time=t,
            ap_id=ap_id,
            client_id=client_id,
            csi=self.csi(t),
            mean_snr_db=self.mean_snr_db(t, uplink=True),
        )
