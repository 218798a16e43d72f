"""Ethernet backhaul connecting the controller and the APs.

The testbed wires every AP and the controller into one switched gigabit
LAN.  We model it as a star: each endpoint registers with the
:class:`Backhaul`, and `send` delivers a packet to the destination after
propagation + serialization + a small forwarding jitter.  Control packets
can additionally be dropped with a configurable probability -- the paper's
switching protocol carries a 30 ms retransmission timeout precisely
because stop/start/ack packets may be lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

import numpy as np

from ..sim.engine import Simulator
from .packet import Packet

__all__ = ["Backhaul", "BackhaulEndpoint", "BackhaulParams"]

#: Receiver callback signature: (packet, src_node_id).
BackhaulEndpoint = Callable[[Packet, int], None]

#: Doubles the backhaul draws from its generator per refill.
DRAW_BLOCK = 1024


def _doubles(rng: np.random.Generator) -> Iterator[float]:
    """``rng``'s doubles in order, drawn a block at a time: ``random(n)``
    yields what ``n`` scalar ``random()`` calls would, and
    ``uniform(0.0, x)`` is ``x * random()`` bit for bit."""
    while True:
        yield from rng.random(DRAW_BLOCK).tolist()


@dataclass
class BackhaulParams:
    """Latency/loss model of the switched LAN.

    ``base_latency_s`` covers propagation plus kernel/Click forwarding on
    both ends; ``jitter_s`` is a uniform spread on top.  ``bandwidth_bps``
    adds per-byte serialization (gigabit by default, so ~12 us per 1500 B
    frame).  ``loss_probability`` applies to every backhaul packet.
    ``link_jitter_s`` adds a *persistent* per-(src, dst) latency offset
    drawn once per pair in ``[0, link_jitter_s]`` -- unequal cable runs
    and switch paths; the draw is seeded, so delivery order is
    deterministic for a fixed seed.
    """

    base_latency_s: float = 300e-6
    jitter_s: float = 100e-6
    bandwidth_bps: float = 1e9
    loss_probability: float = 0.0
    link_jitter_s: float = 0.0


class Backhaul:
    """Star-topology wired network between controller and APs.

    The backhaul owns ``rng``: it draws its doubles ahead in blocks, so
    nothing else may draw from that generator.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        params: Optional[BackhaulParams] = None,
    ):
        self.sim = sim
        self.rng = rng
        self._next_double = _doubles(rng).__next__
        self.params = params or BackhaulParams()
        self._endpoints: Dict[int, BackhaulEndpoint] = {}
        #: Last scheduled delivery time per (src, dst): switched Ethernet
        #: never reorders frames within one flow, so jittered latencies are
        #: clamped to be monotone per pair.
        self._last_delivery: Dict[tuple, float] = {}
        #: Persistent per-pair latency offset (lazily drawn; see
        #: ``BackhaulParams.link_jitter_s``).
        self._pair_offset: Dict[tuple, float] = {}
        #: Optional fault overlay (see :mod:`repro.faults.overlay`).  While
        #: attached, sends to dead/unregistered nodes become traced drops.
        self.fault_overlay = None
        self.packets_sent = 0
        self.packets_lost = 0
        self.fault_dropped = 0
        self.bytes_sent = 0

    def register(self, node_id: int, receive: BackhaulEndpoint) -> None:
        """Attach an endpoint; ``receive(packet, src)`` is called on delivery."""
        if node_id in self._endpoints:
            raise ValueError(f"node {node_id} already registered on backhaul")
        self._endpoints[node_id] = receive

    def is_registered(self, node_id: int) -> bool:
        return node_id in self._endpoints

    def attach_fault_overlay(self, overlay) -> None:
        """Install a fault overlay; every subsequent send consults it."""
        self.fault_overlay = overlay

    def _link_offset(self, src: int, dst: int) -> float:
        """The pair's persistent latency offset (0 when the knob is off)."""
        if self.params.link_jitter_s <= 0.0:
            return 0.0
        key = (src, dst)
        offset = self._pair_offset.get(key)
        if offset is None:
            offset = self.params.link_jitter_s * self._next_double()
            self._pair_offset[key] = offset
        return offset

    def send(self, src: int, dst: int, packet: Packet) -> None:
        """Queue ``packet`` from ``src`` to ``dst`` across the LAN.

        Unknown destinations raise immediately: backhaul membership is
        static in the testbed, so a miss is a wiring bug, not packet loss.
        Under an attached fault overlay the contract softens -- sends to
        dead or unregistered nodes become traced drops, because
        infrastructure failure is exactly what is being injected.
        """
        endpoints = self._endpoints
        overlay = self.fault_overlay
        if overlay is None and dst not in endpoints:
            raise KeyError(f"node {dst} is not on the backhaul")
        params = self.params
        size_bytes = packet.size_bytes
        self.packets_sent += 1
        self.bytes_sent += size_bytes
        fault_latency = 0.0
        if overlay is not None:
            verdict = overlay.on_send(
                src, dst, packet, self.sim.now,
                dst_registered=dst in endpoints,
            )
            if verdict.drop:
                self.packets_lost += 1
                self.fault_dropped += 1
                return
            fault_latency = verdict.extra_latency_s
        if params.loss_probability > 0.0 and (
            self._next_double() < params.loss_probability
        ):
            self.packets_lost += 1
            return
        if params.link_jitter_s <= 0.0:
            link_offset = 0.0  # inline of _link_offset's knob-off branch
        else:
            link_offset = self._link_offset(src, dst)
        latency = (
            params.base_latency_s
            + params.jitter_s * self._next_double()
            + link_offset
            + fault_latency
            + size_bytes * 8.0 / params.bandwidth_bps
        )
        sim = self.sim
        deliver_at = sim.now + latency
        key = (src, dst)
        last_delivery = self._last_delivery
        previous = last_delivery.get(key, -1.0)
        if deliver_at <= previous:
            deliver_at = previous + 1e-9  # FIFO per pair: no reordering
        last_delivery[key] = deliver_at
        sim.schedule_at(deliver_at, endpoints[dst], packet, src)

    def broadcast(self, src: int, packet_factory: Callable[[], Packet]) -> None:
        """Send a fresh copy of a packet to every other endpoint.

        ``packet_factory`` is invoked per destination so each copy is an
        independent object (association-state sync uses this).
        """
        for node_id in list(self._endpoints):
            if node_id != src:
                self.send(src, node_id, packet_factory())
