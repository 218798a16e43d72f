"""Channel State Information (CSI) readings.

Each WGTT AP runs the Atheros CSI tool: for every decoded uplink frame the
NIC reports the complex channel gain on all 56 HT20 subcarriers.  The AP
encapsulates the reading in a UDP packet to the controller, which computes
ESNR from it.  :class:`CSIReading` is the simulated equivalent of that UDP
payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .esnr import DEFAULT_ESNR_CONSTELLATION, esnr_db_from_csi
from .modulation import linear_to_db

__all__ = ["CSIReading"]


@dataclass
class CSIReading:
    """One CSI measurement of a client->AP link.

    Attributes
    ----------
    time:
        Simulation time at which the uplink frame was received.
    ap_id / client_id:
        Identifiers of the measuring AP and the transmitting client.
    csi:
        Complex channel gains per subcarrier, unit mean power (fading only).
    mean_snr_db:
        Large-scale mean SNR of the link at measurement time (path loss,
        antenna gains, transmit power, noise floor folded in).
    """

    time: float
    ap_id: int
    client_id: int
    csi: np.ndarray
    mean_snr_db: float
    _esnr_cache: Optional[float] = field(default=None, repr=False, compare=False)

    @property
    def n_subcarriers(self) -> int:
        return int(np.asarray(self.csi).size)

    def esnr_db(self, constellation: str = DEFAULT_ESNR_CONSTELLATION) -> float:
        """Effective SNR of this reading (cached for the default constellation)."""
        if constellation == DEFAULT_ESNR_CONSTELLATION:
            if self._esnr_cache is None:
                self._esnr_cache = esnr_db_from_csi(
                    self.csi, self.mean_snr_db, constellation
                )
            return self._esnr_cache
        return esnr_db_from_csi(self.csi, self.mean_snr_db, constellation)

    def rssi_db(self) -> float:
        """Wideband received-power proxy: mean subcarrier SNR in dB.

        This is what the Enhanced 802.11r baseline keys its handover on --
        deliberately blind to frequency selectivity.
        """
        power = np.mean(np.abs(np.asarray(self.csi)) ** 2)
        return self.mean_snr_db + float(linear_to_db(power))
