"""Unit tests for the Ethernet backhaul."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ethernet import DRAW_BLOCK, Backhaul, BackhaulParams
from repro.net.packet import Packet
from repro.sim.engine import Simulator


def make_backhaul(seed=0, **params):
    sim = Simulator()
    bh = Backhaul(sim, np.random.default_rng(seed), params=BackhaulParams(**params))
    return sim, bh


def packet(n=100):
    return Packet(size_bytes=n, src=1, dst=2)


def test_delivery_with_latency():
    sim, bh = make_backhaul(jitter_s=0.0)
    got = []
    bh.register(2, lambda p, src: got.append((sim.now, src)))
    bh.register(1, lambda p, src: None)
    bh.send(1, 2, packet())
    sim.run()
    assert len(got) == 1
    t, src = got[0]
    assert src == 1
    assert t >= bh.params.base_latency_s


def test_unknown_destination_raises():
    sim, bh = make_backhaul()
    bh.register(1, lambda p, s: None)
    with pytest.raises(KeyError):
        bh.send(1, 99, packet())


def test_duplicate_registration_rejected():
    _sim, bh = make_backhaul()
    bh.register(1, lambda p, s: None)
    with pytest.raises(ValueError):
        bh.register(1, lambda p, s: None)


def test_fifo_per_pair_despite_jitter():
    """Switched Ethernet must never reorder one flow (regression: cyclic
    queue holes came from jitter-induced reordering)."""
    sim, bh = make_backhaul(jitter_s=500e-6)
    got = []
    bh.register(2, lambda p, src: got.append(p.seq))
    bh.register(1, lambda p, s: None)
    for i in range(200):
        p = packet()
        p.seq = i
        sim.schedule(i * 1e-6, bh.send, 1, 2, p)
    sim.run()
    assert got == list(range(200))


def test_loss_probability():
    sim, bh = make_backhaul(loss_probability=1.0)
    got = []
    bh.register(2, lambda p, src: got.append(p))
    bh.register(1, lambda p, s: None)
    bh.send(1, 2, packet())
    sim.run()
    assert got == []
    assert bh.packets_lost == 1


def test_serialization_delay_scales_with_size():
    sim1, bh1 = make_backhaul(jitter_s=0.0, bandwidth_bps=1e6)
    arrivals = {}
    bh1.register(2, lambda p, src: arrivals.setdefault(p.size_bytes, sim1.now))
    bh1.register(1, lambda p, s: None)
    bh1.send(1, 2, packet(100))
    sim1.run()
    sim1_small = arrivals[100]
    bh1.send(1, 2, packet(10000))
    sim1.run()
    assert arrivals[10000] - sim1_small > 0.07  # ~79 ms more at 1 Mb/s


def test_broadcast_reaches_everyone_but_sender():
    sim, bh = make_backhaul()
    got = []
    for node in (1, 2, 3):
        bh.register(node, lambda p, src, node=node: got.append(node))
    bh.broadcast(1, lambda: packet())
    sim.run()
    assert sorted(got) == [2, 3]


def test_counters():
    sim, bh = make_backhaul()
    bh.register(2, lambda p, s: None)
    bh.register(1, lambda p, s: None)
    bh.send(1, 2, packet(150))
    assert bh.packets_sent == 1
    assert bh.bytes_sent == 150


def test_is_registered():
    _sim, bh = make_backhaul()
    bh.register(5, lambda p, s: None)
    assert bh.is_registered(5)
    assert not bh.is_registered(6)


# -------------------------------------------------------- per-link jitter
def _delivery_times(seed, link_jitter_s, n=20):
    sim, bh = make_backhaul(seed=seed, jitter_s=0.0,
                            link_jitter_s=link_jitter_s)
    got = []
    bh.register(1, lambda p, s: None)
    bh.register(2, lambda p, s: got.append(sim.now))
    bh.register(3, lambda p, s: got.append(sim.now))
    for i in range(n):
        bh.send(1, 2, packet())
        bh.send(1, 3, packet())
    sim.run()
    return got


def test_link_jitter_disabled_by_default_draws_nothing():
    """link_jitter_s=0 must not consume RNG: schedules stay bit-identical."""
    assert _delivery_times(7, 0.0) == _delivery_times(7, 0.0)
    sim, bh = make_backhaul(seed=7, link_jitter_s=0.0)
    bh.register(1, lambda p, s: None)
    bh.register(2, lambda p, s: None)
    bh.register(3, lambda p, s: None)
    for dst in (2, 3, 2):
        bh.send(1, dst, packet())
    # Each send drew exactly one double (its forwarding jitter) from the
    # backhaul's stream: the next one it serves is the generator's fourth.
    assert bh._next_double() == np.random.default_rng(7).random(4)[3]


def test_link_jitter_deterministic_for_fixed_seed():
    a = _delivery_times(3, 50e-6)
    b = _delivery_times(3, 50e-6)
    assert a == b
    # A different seed draws different pair offsets.
    c = _delivery_times(4, 50e-6)
    assert a != c


def test_link_jitter_offset_is_persistent_per_pair():
    sim, bh = make_backhaul(seed=1, jitter_s=0.0, link_jitter_s=200e-6)
    bh.register(1, lambda p, s: None)
    bh.register(2, lambda p, s: None)
    first = bh._link_offset(1, 2)
    assert 0.0 <= first <= 200e-6
    # Re-querying never redraws; the reverse direction is its own link.
    assert bh._link_offset(1, 2) == first
    reverse = bh._link_offset(2, 1)
    assert bh._link_offset(2, 1) == reverse
    assert len(bh._pair_offset) == 2


# ------------------------------------------------------- block-drawn doubles
class ScalarDrawBackhaul(Backhaul):
    """Reference: the backhaul with one scalar ``Generator`` call per
    draw, which the block-drawn stream must reproduce (no fault overlay)."""

    def send(self, src, dst, packet):
        params = self.params
        if params.loss_probability > 0.0 and (
            self.rng.random() < params.loss_probability
        ):
            self.packets_lost += 1
            return
        link_offset = 0.0
        if params.link_jitter_s > 0.0:
            key = (src, dst)
            if key not in self._pair_offset:
                self._pair_offset[key] = float(
                    self.rng.uniform(0.0, params.link_jitter_s))
            link_offset = self._pair_offset[key]
        latency = (
            params.base_latency_s
            + float(self.rng.uniform(0.0, params.jitter_s))
            + link_offset
            + 0.0
            + packet.size_bytes * 8.0 / params.bandwidth_bps
        )
        deliver_at = self.sim.now + latency
        previous = self._last_delivery.get((src, dst), -1.0)
        if deliver_at <= previous:
            deliver_at = previous + 1e-9
        self._last_delivery[(src, dst)] = deliver_at
        self.sim.schedule_at(deliver_at, self._endpoints[dst], packet, src)


def _traffic(cls, seed, n_sends, **params):
    """(time, src, dst, seq) of every delivery of a fixed send pattern."""
    sim = Simulator()
    bh = cls(sim, np.random.default_rng(seed), params=BackhaulParams(**params))
    got = []
    for node in (1, 2, 3, 4):
        bh.register(node, lambda p, src, node=node:
                    got.append((sim.now, src, node, p.seq)))
    for i in range(n_sends):
        p = Packet(size_bytes=100 + 37 * (i % 40), src=1, dst=2)
        p.seq = i
        src, dst = (1 + i % 3, 2 + (i * 7) % 3)
        sim.schedule(i * 20e-6, bh.send, src, dst, p)
    sim.run()
    return got, bh.packets_lost


@pytest.mark.parametrize("params", [
    {},
    {"loss_probability": 0.2},
    {"link_jitter_s": 80e-6},
    {"loss_probability": 0.05, "link_jitter_s": 200e-6, "jitter_s": 1e-3},
    {"jitter_s": 0.0},
])
def test_block_draws_equal_scalar_draws_across_blocks(params):
    # Enough sends to cross several block boundaries.
    n = 2 * DRAW_BLOCK + 300
    block, lost = _traffic(Backhaul, 5, n, **params)
    scalar, scalar_lost = _traffic(ScalarDrawBackhaul, 5, n, **params)
    assert block == scalar
    assert lost == scalar_lost
    if params.get("loss_probability"):
        assert lost > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       loss=st.sampled_from([0.0, 0.01, 0.5]),
       jitter=st.sampled_from([0.0, 100e-6, 3e-3]),
       link_jitter=st.sampled_from([0.0, 50e-6]),
       n_sends=st.integers(1, 300))
def test_block_draws_equal_scalar_draws_property(seed, loss, jitter,
                                                 link_jitter, n_sends):
    params = dict(loss_probability=loss, jitter_s=jitter,
                  link_jitter_s=link_jitter)
    assert (_traffic(Backhaul, seed, n_sends, **params)
            == _traffic(ScalarDrawBackhaul, seed, n_sends, **params))


@pytest.mark.parametrize("high", [100e-6, 3e-3, 0.7, 1.0, 123.456])
def test_uniform_from_zero_is_scaled_random(high):
    """``uniform(0, x) == x * random()`` bit for bit on 100k draws."""
    a = np.random.default_rng(99)
    b = np.random.default_rng(99)
    assert np.array_equal(a.uniform(0.0, high, size=100_000),
                          high * b.random(100_000))
    assert [float(a.uniform(0.0, high)) for _ in range(1000)] == [
        high * b.random() for _ in range(1000)]
