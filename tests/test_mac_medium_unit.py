"""Pure-unit tests for Medium internals using stub radios (no full net)."""

import numpy as np
import pytest

from repro.mac.medium import Medium
from repro.phy.antenna import OmniAntenna, ParabolicAntenna
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


class StubRadio:
    def __init__(self, node_id, pos, is_ap=True, tx_power=18.0, channel=11,
                 antenna=None):
        self.node_id = node_id
        self._pos = pos
        self.is_ap = is_ap
        self.tx_power_dbm = tx_power
        self.channel = channel
        self.antenna = antenna or OmniAntenna(0.0)
        self.monitor = False
        self.bssid = node_id
        self.frames = []

    def position(self, t):
        return self._pos

    def on_frame(self, frame, src, outcome, t):
        self.frames.append((frame, src, outcome))

    def build_transmission(self):
        return None

    def on_transmission_started(self, tx):
        pass

    def on_transmission_complete(self, tx):
        pass


def make_medium():
    sim = Simulator()
    medium = Medium(sim, np.random.default_rng(0), trace=TraceRecorder())
    return sim, medium


def test_register_duplicate_radio_rejected():
    _sim, medium = make_medium()
    r = StubRadio(1, (0, 0, 0))
    medium.register_radio(r)
    with pytest.raises(ValueError):
        medium.register_radio(StubRadio(1, (1, 1, 1)))


def test_ap_ap_leakage_power_decays_with_distance():
    _sim, medium = make_medium()
    a = StubRadio(1, (0.0, 0.0, 3.0))
    near = StubRadio(2, (7.5, 0.0, 3.0))
    far = StubRadio(3, (60.0, 0.0, 3.0))
    for r in (a, near, far):
        medium.register_radio(r)
    assert medium.rx_power_dbm(a, near, 0.0) > medium.rx_power_dbm(a, far, 0.0)


def test_ap_ap_leakage_ignores_antenna_pattern():
    """Co-sited APs hear each other regardless of where their parabolic
    antennas point (regression: pattern-based coupling made APs mutually
    inaudible and old/new serving APs collided)."""
    _sim, medium = make_medium()
    ant = ParabolicAntenna(boresight=(0, 1, 0))
    a = StubRadio(1, (0.0, 0.0, 3.0), antenna=ant)
    b = StubRadio(2, (7.5, 0.0, 3.0), antenna=ant)
    medium.register_radio(a)
    medium.register_radio(b)
    assert medium.rx_power_dbm(a, b, 0.0) > medium.params.cs_threshold_dbm


def test_client_client_street_coupling():
    _sim, medium = make_medium()
    a = StubRadio(1, (0.0, 2.0, 1.5), is_ap=False, tx_power=15.0)
    near = StubRadio(2, (3.0, 5.5, 1.5), is_ap=False)
    far = StubRadio(3, (80.0, 5.5, 1.5), is_ap=False)
    for r in (a, near, far):
        medium.register_radio(r)
    assert medium.rx_power_dbm(a, near, 0.0) > medium.params.cs_threshold_dbm
    assert medium.rx_power_dbm(a, far, 0.0) < medium.params.cs_threshold_dbm


def test_different_channels_not_audible():
    _sim, medium = make_medium()
    a = StubRadio(1, (0.0, 0.0, 3.0), channel=11)
    b = StubRadio(2, (1.0, 0.0, 3.0), channel=6)
    c = StubRadio(3, (1.0, 1.0, 3.0), channel=11)
    for r in (a, b, c):
        medium.register_radio(r)
    assert not medium._audible(a, b, 0.0)  # orthogonal channels
    assert medium._audible(a, c, 0.0)      # same channel, adjacent


def test_busy_until_reflects_audible_transmissions():
    sim, medium = make_medium()
    a = StubRadio(1, (0.0, 0.0, 3.0))
    b = StubRadio(2, (5.0, 0.0, 3.0))
    medium.register_radio(a)
    medium.register_radio(b)
    from repro.mac.medium import Transmission
    from repro.mac.frames import Beacon

    tx = Transmission(a, Beacon(src=1, bssid=1), 0.0, 0.001, 0.002)
    medium._active.append(tx)
    assert medium.busy_until(b, 0.0) == pytest.approx(0.002)
    # After NAV end, idle again.
    assert medium.busy_until(b, 0.003) == 0.003


def test_request_access_idempotent():
    sim, medium = make_medium()
    a = StubRadio(1, (0.0, 0.0, 3.0))
    medium.register_radio(a)
    medium.request_access(a)
    medium.request_access(a)
    assert len(medium._pending_access) == 1


def test_cancel_access():
    sim, medium = make_medium()
    a = StubRadio(1, (0.0, 0.0, 3.0))
    medium.register_radio(a)
    medium.request_access(a)
    medium.cancel_access(a)
    assert a.node_id not in medium._pending_access


# ------------------------------------------------ per-A-MPDU delivery draws
def _uplink_scene(seed=0):
    """A client heard by its AP and by a monitoring neighbour AP."""
    from repro.phy.channel import Link

    sim = Simulator()
    medium = Medium(sim, np.random.default_rng(seed), trace=TraceRecorder())
    client_pos = lambda t: (-6.0 + 10.0 * t, 2.0, 1.5)  # noqa: E731
    client = StubRadio(100, None, is_ap=False, tx_power=15.0)
    client.position = client_pos
    aps = []
    for node_id, x in ((1, 0.0), (2, 7.5)):
        position = (x, -8.0, 10.0)
        ap = StubRadio(node_id, position,
                       antenna=ParabolicAntenna.aimed_at(position, (x, 3.75, 1.5)))
        ap.monitor = True
        aps.append(ap)
        medium.add_link(node_id, client.node_id, Link(
            ap_position=position, ap_antenna=ap.antenna,
            client_position_fn=client_pos, speed_mps=10.0,
            rng=np.random.default_rng([seed, node_id])))
    for radio in (*aps, client):
        medium.register_radio(radio)
    return medium, client, aps


def test_complete_outcomes_equal_scalar_draws():
    """One ``random(n)`` per (receiver, A-MPDU) draws what n scalar
    ``random()`` calls did: the outcome dicts are unchanged."""
    from repro.mac.frames import Ampdu, Mpdu
    from repro.mac.medium import Transmission
    from repro.net.packet import Packet
    from repro.phy.mcs import MCS_TABLE, pdr

    medium, client, aps = _uplink_scene(seed=3)
    ref_rng = np.random.default_rng(3)
    expected = {ap.node_id: [] for ap in aps}
    seq = 0
    for k in range(60):
        sizes = [1500, 1500, 600, 80, 1500][: 1 + k % 5] * (1 + k % 7)
        mpdus = []
        for size in sizes:
            mpdus.append(Mpdu(Packet(size_bytes=size, src=100, dst=1), seq))
            seq = (seq + 1) % 4096
        mcs = MCS_TABLE[k % len(MCS_TABLE)]
        frame = Ampdu(src=100, dst=1, mpdus=mpdus, mcs=mcs, uplink=True)
        t0 = 0.02 * k
        tx = Transmission(client, frame, t0, t0 + 1e-3, t0 + 1.2e-3)
        mid = t0 + (tx.data_end - t0) / 2.0
        for ap in aps:
            link, uplink = medium.link_between(100, ap.node_id)
            if link.mean_snr_db(mid, uplink=uplink) < medium.params.decode_floor_db:
                continue
            esnr = link.esnr_db(mid, uplink=uplink)
            expected[ap.node_id].append({
                m.seq: ref_rng.random() < pdr(esnr, mcs, n_bytes=m.payload_bytes)
                for m in mpdus})
        medium._complete(tx, mcs)
    for ap in aps:
        got = [outcome for _frame, _src, outcome in ap.frames]
        assert got == expected[ap.node_id]
        assert all(type(v) is bool for o in got for v in o.values())
    assert sum(len(v) for v in expected.values()) > 60
    # The medium's stream sits exactly where the scalar draws left it.
    assert medium.rng.random() == ref_rng.random()


def test_transmission_compares_by_identity():
    from repro.mac.medium import Transmission

    a = Transmission("radio", "frame", 0.0, 1.0, 1.0)
    b = Transmission("radio", "frame", 0.0, 1.0, 1.0)
    assert a != b and a == a
    active = [a, b]
    active.remove(b)
    assert active == [a] and active[0] is a
