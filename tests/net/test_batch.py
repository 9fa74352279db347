"""Unit tests for the propagation batcher (PR 5)."""

import pytest

from repro.db import Database, MultimediaObjectStore
from repro.net import Batcher, Link, Message, SimulatedNetwork
from repro.net.batch import MAX_BYTES
from repro.obs import MetricsRegistry, use_registry
from repro.server import InteractionServer
from tests.net.frames import frame_of


class Recorder:
    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.received: list[Message] = []

    def receive(self, message: Message) -> None:
        self.received.append(message)


def hub_batcher(network: SimulatedNetwork, window_s: float = 0.0) -> Batcher:
    """A batcher whose transmit step is the "server" hub's network send."""
    return Batcher(
        network.clock, lambda to, frame: network.send("server", to, frame), "server", window_s
    )


@pytest.fixture
def rig():
    registry = MetricsRegistry()
    with use_registry(registry):
        network = SimulatedNetwork()
        hub = Recorder("server")
        network.attach_hub(hub)
        client = Recorder("c1")
        network.attach_client(client, uplink=Link(), downlink=Link())
        batcher = hub_batcher(network, window_s=0.05)
    return network, client, batcher, registry


def _kinds(client):
    return [m.kind for m in client.received]


class TestPassThrough:
    def test_window_zero_sends_immediately(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            network = SimulatedNetwork()
            network.attach_hub(Recorder("server"))
            client = Recorder("c1")
            network.attach_client(client, uplink=Link(), downlink=Link())
            batcher = hub_batcher(network)  # window_s=0
            batcher.send("c1", frame_of("peer_event", {"viewer": "a"}))
            network.run()
        assert _kinds(client) == ["peer_event"]
        assert batcher.pending_count == 0
        counters = registry.snapshot()["counters"]
        assert counters["batch.flushes"] == 0
        assert counters["batch.messages_coalesced"] == 0


class TestWindowing:
    def test_deadline_flush_coalesces(self, rig):
        network, client, batcher, registry = rig
        for seq in range(3):
            batcher.send("c1", frame_of("peer_event", {"viewer": "a", "seq": seq}))
        assert batcher.pending_count == 3
        network.run()  # the deadline fires inside the event loop
        # Receiver sees three ordinary messages — the wire carried one.
        assert _kinds(client) == ["peer_event"] * 3
        assert [m.payload["seq"] for m in client.received] == [0, 1, 2]
        counters = registry.snapshot()["counters"]
        assert counters["batch.flushes"] == 1
        assert counters["batch.messages_coalesced"] == 3
        assert counters["net.batch_unpacked"] == 3

    def test_single_pending_frame_sends_plain(self, rig):
        network, client, batcher, registry = rig
        batcher.send("c1", frame_of("peer_event", {"viewer": "a"}))
        network.run()
        assert _kinds(client) == ["peer_event"]
        counters = registry.snapshot()["counters"]
        # A flush of one frame is not a batch.
        assert counters["batch.messages_coalesced"] == 0

    def test_byte_budget_flushes_early(self, rig):
        network, client, batcher, registry = rig
        big = frame_of("peer_event", {"viewer": "a", "pad": "x" * (MAX_BYTES // 2)})
        assert len(big.data) < MAX_BYTES
        batcher.send("c1", big)
        assert batcher.pending_count == 1
        batcher.send("c1", big)  # crosses MAX_BYTES
        assert batcher.pending_count == 0  # flushed synchronously
        network.run()
        assert _kinds(client) == ["peer_event"] * 2

    def test_oversized_frame_never_batches(self, rig):
        network, client, batcher, _ = rig
        batcher.send("c1", frame_of("peer_event", {"pad": "y" * MAX_BYTES}))
        assert batcher.pending_count == 0
        network.run()
        assert _kinds(client) == ["peer_event"]


class TestBarriers:
    def test_barrier_kind_flushes_destination_first(self, rig):
        network, client, batcher, _ = rig
        batcher.send("c1", frame_of("peer_event", {"viewer": "a", "seq": 1}))
        batcher.send("c1", frame_of("join_ack", {"session_id": "s"}))  # not batchable
        network.run()
        # Order preserved: the queued frame lands before the barrier.
        assert _kinds(client) == ["peer_event", "join_ack"]

    def test_declared_size_media_is_a_barrier(self, rig):
        network, client, batcher, _ = rig
        batcher.send("c1", frame_of("peer_event", {"seq": 1}))
        body = {"component": "labs", "size": 12288}
        # Media charged at presentation size (≠ frame size) never batches.
        batcher.send("c1", frame_of("payload", body, size_bytes=12288))
        network.run()
        assert _kinds(client) == ["peer_event", "payload"]
        assert client.received[1].size_bytes == 12288

    def test_destinations_are_independent(self, rig):
        network, client, batcher, registry = rig
        c2 = Recorder("c2")
        network.attach_client(c2, uplink=Link(), downlink=Link())
        batcher.send("c1", frame_of("peer_event", {"seq": 1}))
        batcher.send("c2", frame_of("peer_event", {"seq": 1}))
        batcher.send("c2", frame_of("join_ack", {"session_id": "s"}))  # barrier on c2 only
        assert batcher.pending_count == 1  # c1's frame still queued
        network.run()
        assert _kinds(client) == ["peer_event"]
        assert _kinds(c2) == ["peer_event", "join_ack"]


class TestDetachedRecipient:
    def test_deadline_flush_to_detached_client_is_dropped(self, tmp_path):
        """The drop is the hub's transmit step, so a server is the hub here."""
        db = Database(str(tmp_path / "db"))
        try:
            network = SimulatedNetwork()
            server = InteractionServer(
                MultimediaObjectStore(db), network=network, batch_window_s=0.05
            )
            client = Recorder("c1")
            network.attach_client(client, uplink=Link(), downlink=Link())
            server.outbox.send(["c1"], frame_of("peer_event", {"seq": 1}))
            assert server.outbox.batcher.pending_count == 1
            network.detach_client("c1")
            network.run()  # deadline fires; no NetworkError
        finally:
            db.close()
        assert client.received == []


class TestWireAccounting:
    def test_batching_cuts_reliable_wire_traffic(self):
        """Coalescing trades N acked frames for one — fewer total frames
        and fewer ack bytes under the reliable transport."""

        def run(window_s):
            registry = MetricsRegistry()
            with use_registry(registry):
                network = SimulatedNetwork(reliability=True)
                network.attach_hub(Recorder("server"))
                client = Recorder("c1")
                network.attach_client(client, uplink=Link(), downlink=Link())
                batcher = hub_batcher(network, window_s=window_s)
                for seq in range(6):
                    batcher.send("c1", frame_of("peer_event", {"viewer": "dr", "seq": seq}))
                network.run()
            assert len(client.received) == 6
            counters = registry.snapshot()["counters"]
            return counters["net.bytes_total"], counters["net.messages"]

        batched_bytes, batched_msgs = run(window_s=0.05)
        plain_bytes, plain_msgs = run(window_s=0.0)
        assert batched_msgs < plain_msgs
        assert batched_bytes < plain_bytes
