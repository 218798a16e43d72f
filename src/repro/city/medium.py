"""Partitioned collision domain: a shard per (channel, spatial cell).

:class:`ShardedMedium` subclasses the global :class:`~repro.mac.medium.Medium`
and overrides only its candidate-set hooks.  Radios and in-flight
transmissions are bucketed into :class:`MediumShard` objects keyed by
``(channel, cell_x, cell_y)``; carrier sense, capture, and receiver
enumeration scan the 3x3 cell neighbourhood of the querying radio
instead of the global lists.  The neighbourhood *is* the cross-shard
boundary coupling: a transmission in a boundary cell appears in queries
issued from every adjacent cell, so CSMA deferral, the vulnerable
window, and SINR capture all work across shard edges exactly as within
one shard.

With ``cell_m`` at its 75 m default the neighbourhood reaches >= 150 m
-- comfortably beyond street-level carrier sense (~43 m) -- so the only
physics the partition cuts off is same-channel infra-to-infra leakage
between arrays more than two cells apart, which in a real city is
buried under building clutter anyway (the free-space infra exponent
models co-sited arrays, not cross-town paths).  Event cost then scales
with local density rather than city size.

Sharded runs are deterministic but not bit-identical to a global-medium
run of the same scenario: trimming the receiver sets changes the order
of Bernoulli draws on the shared medium RNG stream.  The golden-digest
drives never construct this class.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..mac.airtime import DEFAULT_TIMING, MacTiming
from ..mac.medium import Medium, MediumParams, Transmission
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder

__all__ = ["MediumShard", "ShardedMedium"]

ShardKey = Tuple[int, int, int]  # (channel, cell_x, cell_y)

#: 3x3 neighbourhood offsets in fixed scan order (determinism).
_NEIGHBORHOOD = tuple(
    (dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
)


class MediumShard:
    """State of one (channel, cell) bucket."""

    __slots__ = ("key", "radios", "active")

    def __init__(self, key: ShardKey):
        self.key = key
        #: node_id -> radio, insertion-ordered (dict semantics).
        self.radios: Dict[int, object] = {}
        #: Transmissions currently on the air from radios in this cell.
        self.active: List[Transmission] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MediumShard {self.key} radios={len(self.radios)} "
                f"active={len(self.active)}>")


class ShardedMedium(Medium):
    """A :class:`Medium` whose hot loops scan only nearby shards."""

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        trace: Optional[TraceRecorder] = None,
        timing: MacTiming = DEFAULT_TIMING,
        params: Optional[MediumParams] = None,
        cell_m: float = 75.0,
        rebucket_interval_s: float = 0.1,
    ):
        super().__init__(sim, rng, trace=trace, timing=timing, params=params)
        if cell_m <= 0:
            raise ValueError("cell_m must be positive")
        self.cell_m = float(cell_m)
        self._shards: Dict[ShardKey, MediumShard] = {}
        #: key -> its 3x3 neighbourhood as shard objects, built lazily.
        #: Shard objects are stable once created, so a materialized list
        #: never goes stale -- neighbours created later were already
        #: materialized (empty) when this list was built.
        self._neighbors: Dict[ShardKey, List[MediumShard]] = {}
        self._radio_shard: Dict[int, ShardKey] = {}
        #: Radios that move (clients): re-bucketed by a periodic tick
        #: that bounds key staleness to one interval (~1 m of motion).
        self._mobile: List[object] = []
        self._tx_shard: Dict[int, ShardKey] = {}
        # Diagnostics for the perf harness.
        self.rebuckets = 0
        if rebucket_interval_s:
            sim.call_every(rebucket_interval_s, self._rebucket_mobile)

    # ---------------------------------------------------------- bucketing
    def _key_for(self, radio, t: float) -> ShardKey:
        x, y, _ = radio.position(t)
        return (
            getattr(radio, "channel", 11),
            math.floor(x / self.cell_m),
            math.floor(y / self.cell_m),
        )

    def _shard(self, key: ShardKey) -> MediumShard:
        shard = self._shards.get(key)
        if shard is None:
            shard = self._shards[key] = MediumShard(key)
        return shard

    def register_radio(self, radio) -> None:
        super().register_radio(radio)
        key = self._key_for(radio, self.sim.now)
        self._shard(key).radios[radio.node_id] = radio
        self._radio_shard[radio.node_id] = key
        if not radio.is_ap:
            self._mobile.append(radio)

    def _ensure_current(self, radio) -> ShardKey:
        """Re-bucket ``radio`` if it moved or retuned; return its key.

        APs never move, but a retune (radio.channel assignment) changes
        the key too, so the check is unconditional for mobile radios and
        cheap (one position call) either way.
        """
        old = self._radio_shard.get(radio.node_id)
        if (
            old is not None
            and radio.is_ap
            and old[0] == getattr(radio, "channel", 11)
        ):
            # Static radio on an unchanged channel: its key cannot have
            # moved, so skip the position recomputation on the hot path.
            return old
        key = self._key_for(radio, self.sim.now)
        if key != old:
            if old is not None:
                self._shards[old].radios.pop(radio.node_id, None)
            self._shard(key).radios[radio.node_id] = radio
            self._radio_shard[radio.node_id] = key
            self.rebuckets += 1
        return key

    def _rebucket_mobile(self) -> None:
        for radio in self._mobile:
            self._ensure_current(radio)

    def rebucket(self, radio) -> None:
        """Re-bucket ``radio`` now -- call after assigning its channel.

        APs re-bucket only through this (they never move); clients would
        catch up on their next transmission or periodic tick anyway, but
        an explicit call keeps them reachable as receivers immediately
        after a retune.
        """
        self._ensure_current(radio)

    def _neighbor_shards(self, key: ShardKey) -> List[MediumShard]:
        """The 3x3 neighbourhood of ``key`` as shard objects.

        Materializes (possibly empty) shards for all nine cells so the
        hot loops can iterate object references instead of hashing nine
        tuple keys per query.  Shard objects are never replaced, so the
        cached list stays valid for the life of the run.
        """
        neighbors = self._neighbors.get(key)
        if neighbors is None:
            channel, cx, cy = key
            neighbors = [
                self._shard((channel, cx + dx, cy + dy))
                for dx, dy in _NEIGHBORHOOD
            ]
            self._neighbors[key] = neighbors
        return neighbors

    # ----------------------------------------------------- candidate hooks
    # The base class's global ``_active`` list is deliberately left empty
    # here: every hot-path read goes through the hooks below, and keeping
    # the global view current would cost a city-wide list.remove scan per
    # completion.
    def _activate(self, tx: Transmission) -> None:
        # The cached key is at most one rebucket interval stale (~1 m of
        # motion); the 3x3 neighbourhood absorbs a one-cell-late bucket,
        # same as the query path in _active_near.
        key = self._radio_shard.get(tx.radio.node_id)
        if key is None:
            key = self._ensure_current(tx.radio)
        self._shard(key).active.append(tx)
        self._tx_shard[id(tx)] = key

    def _deactivate(self, tx: Transmission) -> None:
        key = self._tx_shard.pop(id(tx), None)
        if key is not None:
            shard = self._shards.get(key)
            if shard is not None:
                try:
                    shard.active.remove(tx)
                except ValueError:  # pragma: no cover - defensive
                    pass

    def _neighborhood_active(self, key: ShardKey) -> List[Transmission]:
        out: List[Transmission] = []
        for shard in self._neighbor_shards(key):
            if shard.active:
                out.extend(shard.active)
        return out

    def _active_near(self, radio) -> List[Transmission]:
        # The cached key is at most one rebucket interval stale (~1 m of
        # motion) and every retune goes through rebucket(), so skip the
        # per-query position recomputation: the 3x3 neighbourhood absorbs
        # a one-cell-late key with two cells to spare over CS range.
        key = self._radio_shard.get(radio.node_id)
        if key is None:
            key = self._ensure_current(radio)
        return self._neighborhood_active(key)

    def _interference_candidates(self, tx: Transmission, rx_radio) -> List[Transmission]:
        return self._active_near(rx_radio)

    def _receiver_candidates(self, tx: Transmission) -> List[object]:
        key = self._tx_shard.get(id(tx))
        if key is None:
            key = self._ensure_current(tx.radio)
        out: List[object] = []
        for shard in self._neighbor_shards(key):
            if shard.radios:
                out.extend(shard.radios.values())
        return out

    # ------------------------------------------------------------- stats
    def shard_stats(self) -> Dict[str, int]:
        occupied = [s for s in self._shards.values() if s.radios]
        return {
            "shards": len(self._shards),
            "occupied_shards": len(occupied),
            "max_radios_per_shard": max(
                (len(s.radios) for s in occupied), default=0
            ),
            "rebuckets": self.rebuckets,
        }
