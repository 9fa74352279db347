"""Interest-filtered fan-out at the server (repro.interest, PR 6).

Wire-byte assertions use a recording network: non-subscribers must cost
**zero** bytes on updates outside their interest, departed sessions must
cost zero bytes forever, and simulcast must ship smaller layer prefixes
to degraded viewers from one cached frame per (body, layer).
"""

import pytest

from repro import obs
from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.interest import SIMULCAST_FLOOR, default_subscriptions, layer_prefix_size
from repro.net import SimulatedNetwork
from repro.net.codec import encode_message
from repro.presentation import (
    BANDWIDTH_LOW,
    TUNING_VARIABLE,
    install_bandwidth_tuning,
)
from repro.server import InteractionServer
from repro.server.protocol import MessageKind


class RecordingNetwork(SimulatedNetwork):
    """Counts every transmitted message per recipient (acks excluded)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transmissions: list[tuple[str, str, int]] = []

    def _transmit(self, message):
        if message.kind != "net_ack":
            self.transmissions.append(
                (message.recipient, message.kind, message.size_bytes)
            )
        super()._transmit(message)

    def reset_recording(self):
        self.transmissions.clear()

    def to_node(self, node_id, kind=None):
        return [
            t
            for t in self.transmissions
            if t[0] == node_id and (kind is None or t[1] == kind)
        ]

    def bytes_to(self, node_id):
        return sum(size for rcpt, _, size in self.transmissions if rcpt == node_id)


def make_rig(tmp_path, name, interest_mode="off", with_tuning=False):
    db = Database(str(tmp_path / name))
    store = MultimediaObjectStore(db)
    doc = build_sample_medical_record()
    if with_tuning:
        install_bandwidth_tuning(doc)
    store.store_document(doc)
    network = RecordingNetwork()
    server = InteractionServer(store, network=network, interest_mode=interest_mode)
    return db, store, network, server


def attach(network, name, auto_fetch=False):
    client = ClientModule(name, network=network, auto_fetch=auto_fetch)
    network.attach_client(client)
    return client


@pytest.fixture
def rig(tmp_path):
    db, store, network, server = make_rig(tmp_path, "db")
    yield network, server
    db.close()


@pytest.fixture
def cpnet_rig(tmp_path):
    db, store, network, server = make_rig(
        tmp_path, "db-cpnet", interest_mode="cpnet", with_tuning=True
    )
    yield network, server
    db.close()


class TestFiltering:
    def test_nonsubscriber_costs_zero_wire_bytes(self, rig):
        network, server = rig
        actor, watcher, narrow = (attach(network, n) for n in ("a", "w", "n"))
        for client in (actor, watcher, narrow):
            client.join("record-17")
        network.run()
        narrow.subscribe(["labs"], replace=True)
        network.run()
        network.reset_recording()

        actor.choose("imaging.ct_head", "segmented")
        network.run()
        # The unsubscribed member gets nothing — not the update, not the
        # peer event; the implicit-ALL member gets both.
        assert network.bytes_to(narrow.node_id) == 0
        assert network.to_node(watcher.node_id, MessageKind.PRESENTATION_UPDATE)
        assert network.to_node(watcher.node_id, MessageKind.PEER_EVENT)
        assert narrow.displayed()["imaging.ct_head"] == "flat"
        assert watcher.displayed()["imaging.ct_head"] == "segmented"

    def test_actor_always_receives_own_changes(self, rig):
        network, server = rig
        actor = attach(network, "a")
        actor.join("record-17")
        network.run()
        actor.subscribe(["labs"], replace=True)
        network.run()
        actor.choose("imaging.ct_head", "icon")
        network.run()
        # Outside its subscription, but its own action: must come back.
        assert actor.displayed()["imaging.ct_head"] == "icon"

    def test_covered_update_still_flows(self, rig):
        network, server = rig
        actor, narrow = attach(network, "a"), attach(network, "n")
        actor.join("record-17")
        narrow.join("record-17")
        network.run()
        narrow.subscribe(["labs.ecg"], replace=True)
        network.run()
        # A child subscription covers the enclosing section's changes.
        actor.choose("labs", "hidden")
        network.run()
        assert narrow.displayed()["labs.ecg"] == "hidden"

    def test_unsubscribe_all_then_silence(self, rig):
        network, server = rig
        actor, quiet = attach(network, "a"), attach(network, "q")
        actor.join("record-17")
        quiet.join("record-17")
        network.run()
        quiet.unsubscribe()  # drop everything
        network.run()
        assert quiet.subscriptions == ()
        network.reset_recording()
        actor.choose("imaging.ct_head", "segmented")
        network.run()
        assert network.bytes_to(quiet.node_id) == 0


class TestCatchup:
    def test_subscribe_ack_carries_missed_state(self, rig):
        network, server = rig
        actor, laggard = attach(network, "a"), attach(network, "l")
        actor.join("record-17")
        laggard.join("record-17")
        network.run()
        laggard.subscribe(["labs"], replace=True)
        network.run()
        actor.choose("imaging.ct_head", "segmented")
        actor.choose("consult.voice_note", "transcript")
        network.run()
        assert laggard.displayed()["imaging.ct_head"] == "flat"  # filtered

        laggard.subscribe(["imaging.ct_head"])
        network.run()
        # The ack's catch-up diff healed exactly the newly covered path.
        assert laggard.subscriptions == ("imaging.ct_head", "labs")
        assert laggard.displayed()["imaging.ct_head"] == "segmented"
        # Still outside its interest: the other missed change stays out.
        assert laggard.displayed()["consult.voice_note"] == "play"

    def test_catchup_is_a_diff_not_a_snapshot(self, rig):
        network, server = rig
        client = attach(network, "c")
        client.join("record-17")
        network.run()
        network.reset_recording()
        # Nothing changed since join: re-subscribing to everything the
        # client already knows must carry an empty outcome.
        client.subscribe(["imaging.ct_head", "labs"])
        network.run()
        acks = network.to_node(client.node_id, MessageKind.SUBSCRIBE_ACK)
        assert len(acks) == 1
        assert client.displayed()["imaging.ct_head"] == "flat"


class TestCleanup:
    def test_departed_session_costs_zero_bytes(self, rig):
        """Regression: join, subscribe, leave — then total silence."""
        network, server = rig
        actor, ghost = attach(network, "a"), attach(network, "g")
        actor.join("record-17")
        ghost.join("record-17")
        network.run()
        ghost.subscribe(["imaging.ct_head"], replace=True)
        network.run()
        ghost.leave()
        network.run()
        room = server.room(server.room_ids[0])
        assert room.interest.session_ids == room.member_sessions
        network.reset_recording()
        actor.choose("imaging.ct_head", "segmented")
        actor.choose("labs", "hidden")
        network.run()
        assert network.bytes_to(ghost.node_id) == 0

    def test_disconnect_cleans_interest_too(self, rig):
        network, server = rig
        actor, ghost = attach(network, "a"), attach(network, "g")
        actor.join("record-17")
        ghost.join("record-17")
        network.run()
        ghost.subscribe(["labs"], replace=True)
        network.run()
        server.disconnect_session(ghost.session_id)
        room = server.room(server.room_ids[0])
        assert room.interest.session_ids == room.member_sessions
        network.reset_recording()
        actor.choose("labs", "hidden")
        network.run()
        assert network.bytes_to(ghost.node_id) == 0


class TestCpnetSeeding:
    def test_join_seeds_visible_primitives(self, cpnet_rig):
        network, server = cpnet_rig
        client = attach(network, "c")
        client.join("record-17")
        network.run()
        room = server.room(server.room_ids[0])
        subs = room.interest.subscriptions(client.session_id)
        assert subs is not None  # seeded, not implicit ALL
        spec = room.presentation_for("c")
        assert subs == default_subscriptions(room.document, spec.outcome)
        # Sections are never seeded; prefix coverage reaches them anyway.
        assert "imaging" not in subs
        assert room.interest.covers(client.session_id, "imaging")

    def test_explicit_subscribe_overrides_seed(self, cpnet_rig):
        network, server = cpnet_rig
        client = attach(network, "c")
        client.join("record-17")
        network.run()
        client.subscribe(["labs.ecg"], replace=True)
        network.run()
        room = server.room(server.room_ids[0])
        assert room.interest.subscriptions(client.session_id) == ("labs.ecg",)


class TestSimulcast:
    def test_degraded_viewer_ships_layer_prefix(self, cpnet_rig):
        network, server = cpnet_rig
        high, low = attach(network, "high"), attach(network, "low")
        high.join("record-17")
        low.join("record-17")
        network.run()
        low.choose(TUNING_VARIABLE, BANDWIDTH_LOW, scope="personal")
        network.run()
        size = (
            server.room(server.room_ids[0])
            .document.component("imaging.ct_head")
            .presentation_size("flat")
        )
        assert size >= SIMULCAST_FLOOR
        network.reset_recording()
        high.fetch_payload("imaging.ct_head", "flat")
        low.fetch_payload("imaging.ct_head", "flat")
        network.run()
        high_bytes = network.bytes_to(high.node_id)
        low_bytes = network.bytes_to(low.node_id)
        assert high_bytes >= size
        assert low_bytes <= layer_prefix_size(size, 1) + 64  # header slack
        assert low_bytes < high_bytes

    def test_one_cached_frame_per_body_and_layer(self, cpnet_rig):
        network, server = cpnet_rig
        clients = [attach(network, f"c{i}") for i in range(3)]
        for client in clients:
            client.join("record-17")
        network.run()
        room = server.room(server.room_ids[0])
        first = room.payload_frame("imaging.ct_head", "flat", 3, 524288)
        again = room.payload_frame("imaging.ct_head", "flat", 3, 524288)
        other_layer = room.payload_frame("imaging.ct_head", "flat", 1, 24966)
        assert first is again
        assert other_layer is not first

    def test_descriptor_encodes_once_per_body_with_interest_off(self, rig):
        """The same cache serves the unlayered mode: three fetchers of
        one alternative cost one encode, and the body keeps its shape."""
        network, server = rig
        clients = [attach(network, f"c{i}") for i in range(3)]
        for client in clients:
            client.join("record-17")
        network.run()
        registry = obs.get_registry()
        before = registry.snapshot()["counters"]["codec.encodes"]
        for client in clients:
            client.fetch_payload("imaging.ct_head", "flat")
        network.run()
        counters = registry.snapshot()["counters"]
        # Three requests in, one descriptor out three times.
        assert counters["codec.encodes"] - before == 3 + 1
        size = (
            server.room(server.room_ids[0])
            .document.component("imaging.ct_head")
            .presentation_size("flat")
        )
        sent = [network.to_node(c.node_id, MessageKind.PAYLOAD) for c in clients]
        body = {"component": "imaging.ct_head", "value": "flat", "size": size}
        fresh = encode_message(MessageKind.PAYLOAD, body)
        room = server.room(server.room_ids[0])
        cached = room.payload_frame("imaging.ct_head", "flat", None, size)
        assert sent == [[(c.node_id, MessageKind.PAYLOAD, size)] for c in clients]
        assert cached.payload == body
        assert (cached.data, cached.checksum) == (fresh.data, fresh.checksum)

    def test_descriptor_cache_is_keyed_on_the_whole_body(self, rig):
        """A component re-added under the same path with another
        presentation size must not be described with the old size."""
        network, server = rig
        attach(network, "c").join("record-17")
        network.run()
        room = server.room(server.room_ids[0])
        old = room.payload_frame("imaging.ct_head", "flat", None, 1000)
        new = room.payload_frame("imaging.ct_head", "flat", None, 2000)
        assert (old.payload["size"], new.payload["size"]) == (1000, 2000)
        assert room.payload_frame("imaging.ct_head", "flat", None, 1000) is old

    def test_small_payloads_never_layered(self, cpnet_rig):
        network, server = cpnet_rig
        client = attach(network, "c")
        client.join("record-17")
        network.run()
        client.choose(TUNING_VARIABLE, BANDWIDTH_LOW, scope="personal")
        network.run()
        # Icons ship whole even at the lowest tuning level.
        shipped = server.fetch_component_payload(
            client.session_id, "imaging.ct_head", "icon"
        )
        assert shipped == 8192


class TestMetrics:
    def test_interest_counters_move(self, tmp_path):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            db, store, network, server = make_rig(
                tmp_path, "db-metrics", interest_mode="cpnet", with_tuning=True
            )
            try:
                actor, narrow = attach(network, "a"), attach(network, "n")
                actor.join("record-17")
                narrow.join("record-17")
                network.run()
                narrow.subscribe(["labs"], replace=True)
                network.run()
                actor.choose("imaging.ct_head", "segmented")
                network.run()
                narrow.choose(TUNING_VARIABLE, BANDWIDTH_LOW, scope="personal")
                network.run()
                server.fetch_component_payload(
                    narrow.session_id, "imaging.ct_head", "flat"
                )
            finally:
                db.close()
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters.get("interest.updates_filtered", 0) >= 1
        assert counters.get("interest.bytes_saved", 0) > 0
        assert counters.get("interest.layer_downgrades", 0) >= 1
        gauges = snap["gauges"]
        assert any(key.startswith("interest.subscriptions") for key in gauges)
        # Cardinality stays bounded: one gauge series per room, flat
        # counters otherwise — never a per-session or per-component label.
        assert sum(1 for key in gauges if key.startswith("interest.")) == 1
        # And the standard dashboard surfaces the family with no wiring.
        panel = obs.render_dashboard(snap, include=("interest.",))
        assert "interest.updates_filtered" in panel
        assert "interest.bytes_saved" in panel
        assert "interest.subscriptions" in panel
