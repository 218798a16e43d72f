"""Bit-rate adaptation.

The testbed keeps the drivers' default rate control (Minstrel).
:class:`MinstrelLite` is a compact sampling-based Minstrel: it tracks an
EWMA of per-MPDU delivery per rate, transmits at the best expected
throughput, and periodically probes other rates.  :class:`EsnrRateControl`
is an oracle alternative that maps the latest ESNR straight to an MCS
(used by ablation benchmarks to separate rate-control effects from AP
selection effects, as section 5.2.1 of the paper argues AP selection
dominates).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..phy.mcs import MCS_TABLE, McsEntry, best_mcs_for_esnr

__all__ = ["RateController", "MinstrelLite", "EsnrRateControl"]


class RateController:
    """Interface: pick an MCS for the next aggregate to one peer.

    ``retry_level`` is how many delivery attempts the aggregate's head
    frame has already burned: like the ath9k multi-rate retry chain, the
    controller steps the rate down as retries accumulate so a frame
    always reaches the most robust rate before the retry limit.
    """

    def choose(self, retry_level: int = 0) -> McsEntry:
        raise NotImplementedError

    def on_result(self, mcs: McsEntry, n_sent: int, n_acked: int) -> None:
        """Feed back the outcome of one aggregate sent at ``mcs``."""

    def on_esnr(self, esnr_db: float) -> None:
        """Feed back a fresh channel-quality estimate (optional)."""


class MinstrelLite(RateController):
    """Minstrel-style EWMA throughput maximiser with rate probing.

    Parameters
    ----------
    ewma_weight:
        Weight of history in the EWMA (Minstrel uses 75 %).
    probe_interval:
        Probe every Nth aggregate with a non-best rate.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        table: Sequence[McsEntry] = tuple(MCS_TABLE),
        ewma_weight: float = 0.75,
        probe_interval: int = 10,
    ):
        if not 0.0 <= ewma_weight < 1.0:
            raise ValueError("ewma_weight must be in [0, 1)")
        self.rng = rng
        self.table = list(table)
        self.ewma_weight = ewma_weight
        self.probe_interval = probe_interval
        # Optimistic start biases early probing upward, like Minstrel.
        self._success = [0.5] * len(self.table)
        self._attempts = [0] * len(self.table)
        self._aggregates = 0

    def _best_index(self) -> int:
        """Index of the highest expected throughput; ties go to the first,
        as with ``np.argmax`` (a Python scan skips its array round trip)."""
        best, best_tput = 0, -math.inf
        for i, (entry, success) in enumerate(zip(self.table, self._success)):
            tput = entry.phy_rate_mbps * success
            if tput > best_tput:
                best, best_tput = i, tput
        return best

    def choose(self, retry_level: int = 0) -> McsEntry:
        self._aggregates += 1
        best = self._best_index()
        if retry_level > 0:
            # Multi-rate retry chain: drop one rate per prior attempt.
            return self.table[max(0, best - retry_level)]
        if self.probe_interval and self._aggregates % self.probe_interval == 0:
            # Probe a random different rate, biased to neighbours of best.
            candidates = [i for i in range(len(self.table)) if i != best]
            weights = np.array(
                [1.0 / (1.0 + abs(i - best)) for i in candidates], dtype=float
            )
            weights /= weights.sum()
            probe = int(self.rng.choice(candidates, p=weights))
            return self.table[probe]
        return self.table[best]

    def on_result(self, mcs: McsEntry, n_sent: int, n_acked: int) -> None:
        if n_sent <= 0:
            return
        idx = next(
            (i for i, e in enumerate(self.table) if e.index == mcs.index), None
        )
        if idx is None:
            return
        sample = n_acked / n_sent
        w = self.ewma_weight
        self._success[idx] = w * self._success[idx] + (1.0 - w) * sample
        self._attempts[idx] += n_sent

    def success_estimate(self, mcs: McsEntry) -> float:
        for i, e in enumerate(self.table):
            if e.index == mcs.index:
                return self._success[i]
        raise KeyError(f"MCS {mcs.index} not in table")


class EsnrRateControl(RateController):
    """Oracle rate control: highest MCS predicted to meet a PDR target.

    Tracks the most recent ESNR report; with no report yet it stays at the
    most robust rate.
    """

    def __init__(
        self,
        min_pdr: float = 0.9,
        table: Sequence[McsEntry] = tuple(MCS_TABLE),
    ):
        self.min_pdr = min_pdr
        self.table = list(table)
        self._esnr_db: Optional[float] = None

    def choose(self, retry_level: int = 0) -> McsEntry:
        if self._esnr_db is None:
            return self.table[0]
        chosen = best_mcs_for_esnr(self._esnr_db, self.min_pdr, self.table)
        if retry_level > 0:
            idx = next(
                i for i, e in enumerate(self.table) if e.index == chosen.index
            )
            return self.table[max(0, idx - retry_level)]
        return chosen

    def on_esnr(self, esnr_db: float) -> None:
        self._esnr_db = esnr_db
