"""Unit tests for the simulated star network."""

import pytest

from repro.errors import NetworkError
from repro.net import Link, Message, SimulatedNetwork
from repro.net.link import MBPS
from repro.obs import MetricsRegistry, use_registry


class Recorder:
    """A node that records everything it receives, with arrival times."""

    def __init__(self, node_id: str, network: SimulatedNetwork | None = None) -> None:
        self.node_id = node_id
        self._network = network
        self.received: list[tuple[float, Message]] = []

    def attach(self, network: SimulatedNetwork) -> None:
        self._network = network

    def receive(self, message: Message) -> None:
        assert self._network is not None
        self.received.append((self._network.clock.now, message))


@pytest.fixture
def net():
    network = SimulatedNetwork()
    hub = Recorder("server")
    hub.attach(network)
    network.attach_hub(hub)
    return network


def add_client(net, name, bandwidth=10 * MBPS, latency=0.0):
    client = Recorder(name)
    client.attach(net)
    net.attach_client(
        client,
        uplink=Link(bandwidth_bps=bandwidth, latency_s=latency),
        downlink=Link(bandwidth_bps=bandwidth, latency_s=latency),
    )
    return client


class TestTopology:
    def test_single_hub(self, net):
        with pytest.raises(NetworkError, match="hub already"):
            net.attach_hub(Recorder("other"))

    def test_duplicate_client(self, net):
        add_client(net, "c1")
        with pytest.raises(NetworkError, match="already attached"):
            net.attach_client(Recorder("c1"))

    def test_client_ids(self, net):
        add_client(net, "c1")
        add_client(net, "c2")
        assert set(net.client_ids) == {"c1", "c2"}
        assert net.hub_id == "server"

    def test_detach(self, net):
        add_client(net, "c1")
        net.detach_client("c1")
        assert net.client_ids == ()
        with pytest.raises(NetworkError):
            net.detach_client("server")

    def test_no_hub(self):
        network = SimulatedNetwork()
        with pytest.raises(NetworkError, match="no hub"):
            network.hub_id


def add_backbone(net, name):
    node = Recorder(name)
    node.attach(net)
    net.attach_backbone(node, uplink=Link(), downlink=Link())
    return node


class TestBackbone:
    def test_backbone_nodes_are_not_clients(self, net):
        add_backbone(net, "shard-1")
        add_client(net, "c1")
        assert net.backbone_ids == ("shard-1",)
        assert net.client_ids == ("c1",)

    def test_backbone_peers_may_exchange_traffic(self, net):
        add_backbone(net, "shard-1")
        peer = add_backbone(net, "shard-2")
        net.send("shard-1", "shard-2", "replicate", payload={"seq": 1}, size_bytes=64)
        net.run()
        assert len(peer.received) == 1
        assert peer.received[0][1].payload == {"seq": 1}

    def test_client_to_client_still_rejected(self, net):
        add_backbone(net, "shard-1")
        add_client(net, "c1")
        add_client(net, "c2")
        with pytest.raises(NetworkError, match="hub<->client"):
            net.send("c1", "c2", "chat")
        with pytest.raises(NetworkError, match="hub<->client"):
            net.send("c1", "shard-1", "chat")  # client->backbone is not a path

    def test_detach_backbone(self, net):
        add_backbone(net, "shard-1")
        net.detach_client("shard-1")
        assert net.backbone_ids == ()
        assert not net.has_node("shard-1")

    def test_a_detached_node_is_in_none_of_the_per_node_tables(self, net):
        """Every dict or set the network keys by node id — found by
        walking its attributes, so a table added later is covered."""
        gateway = Recorder("gw-1")
        gateway.attach(net)
        net.attach_gateway(gateway, uplink=Link(), downlink=Link())
        add_backbone(net, "shard-1")
        add_client(net, "c1")
        net.assign_home("c1", "gw-1")
        net.set_peer_link("shard-1", "gw-1", Link())
        net.send("shard-1", "gw-1", "route", size_bytes=8)
        net.send("gw-1", "c1", "update", size_bytes=8)
        net.run()

        def tables_naming(node_id):
            return sorted(
                name
                for name, table in vars(net).items()
                if isinstance(table, (dict, set))
                and any(
                    node_id == key or (isinstance(key, tuple) and node_id in key)
                    for key in table
                )
            )

        assert tables_naming("c1") == [
            "_downlinks", "_home", "_m_link_down", "_m_link_up", "_nodes",
            "_routes", "_uplinks",
        ]
        assert "_peer_links" in tables_naming("shard-1")
        for node_id in ("c1", "shard-1", "gw-1"):
            net.detach_client(node_id)
            assert tables_naming(node_id) == []

    def test_has_node(self, net):
        add_backbone(net, "shard-1")
        add_client(net, "c1")
        assert net.has_node("shard-1") and net.has_node("c1") and net.has_node("server")
        assert not net.has_node("ghost")

    def test_peer_traffic_is_byte_counted(self, net):
        registry = MetricsRegistry()
        with use_registry(registry):
            network = SimulatedNetwork()
            hub = Recorder("gw")
            hub.attach(network)
            network.attach_hub(hub)
            a = Recorder("s1")
            a.attach(network)
            network.attach_backbone(a)
            b = Recorder("s2")
            b.attach(network)
            network.attach_backbone(b)
            network.send("s1", "s2", "replicate", size_bytes=500)
            network.run()
            counters = registry.snapshot()["counters"]
            assert counters["net.peer.s1.s2.bytes"] == 500

    def test_explicit_peer_link_shapes_traffic(self, net):
        add_backbone(net, "shard-1")
        peer = add_backbone(net, "shard-2")
        net.set_peer_link(
            "shard-1", "shard-2", Link(bandwidth_bps=1 * MBPS, latency_s=0.0)
        )
        net.send("shard-1", "shard-2", "replicate", size_bytes=125_000)
        net.run()
        assert peer.received[0][0] == pytest.approx(1.0)

    def test_peer_link_requires_backbone_ends(self, net):
        add_backbone(net, "shard-1")
        add_client(net, "c1")
        with pytest.raises(NetworkError, match="backbone"):
            net.set_peer_link("shard-1", "c1", Link())


def add_gateway(net, name):
    node = Recorder(name)
    node.attach(net)
    net.attach_gateway(node)
    return node


class TestNoStaleRoute:
    """``_resolve_link`` answers from a per-pair table; every topology
    change must drop it, so the send after the change sees the change."""

    def test_rehomed_client_takes_its_new_gateway(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            network = SimulatedNetwork()
        old, new = add_gateway(network, "gw-1"), add_gateway(network, "gw-2")
        client = add_client(network, "c1")
        network.assign_home("c1", "gw-1")
        network.send("gw-1", "c1", "update", size_bytes=100)
        network.send("c1", "gw-1", "choice", size_bytes=10)
        network.run()
        assert len(client.received) == 1 and len(old.received) == 1

        network.assign_home("c1", "gw-2")  # the gateway-failover path
        network.send("gw-2", "c1", "update", size_bytes=40)
        network.send("c1", "gw-2", "choice", size_bytes=4)
        network.run()
        assert len(client.received) == 2 and len(new.received) == 1
        assert network.downlink("c1").bytes_carried == 140
        assert network.uplink("c1").bytes_carried == 14
        counters = registry.snapshot()["counters"]
        assert counters["net.link.c1.down.bytes"] == 140
        assert counters["net.link.c1.up.bytes"] == 14
        # The old gateway no longer has a path to the client, either way.
        with pytest.raises(NetworkError, match="hub<->client"):
            network.send("gw-1", "c1", "update", size_bytes=1)
        with pytest.raises(NetworkError, match="hub<->client"):
            network.send("c1", "gw-1", "choice", size_bytes=1)

    def test_reattached_client_is_charged_on_its_new_links(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            network = SimulatedNetwork()
            hub = Recorder("server")
            hub.attach(network)
            network.attach_hub(hub)
        add_client(network, "c1")
        first_down = network.downlink("c1")
        network.send("server", "c1", "update", size_bytes=100)
        network.run()
        network.send("server", "c1", "update", size_bytes=7)  # in flight at detach
        network.detach_client("c1")
        network.run()
        counters = registry.snapshot()["counters"]
        assert counters["net.drops"] == 1
        with pytest.raises(NetworkError, match="unknown recipient"):
            network.send("server", "c1", "update", size_bytes=1)
        with pytest.raises(NetworkError, match="unknown sender"):
            network.send("c1", "server", "choice", size_bytes=1)

        again = add_client(network, "c1", bandwidth=1 * MBPS)
        network.send("server", "c1", "update", size_bytes=125_000)
        network.send("c1", "server", "choice", size_bytes=5)
        started = network.clock.now
        network.run()
        assert again.received[0][0] - started == pytest.approx(1.0)
        assert first_down.bytes_carried == 107
        assert network.downlink("c1").bytes_carried == 125_000
        assert network.uplink("c1").bytes_carried == 5
        counters = registry.snapshot()["counters"]
        assert counters["net.link.c1.down.bytes"] == 107 + 125_000
        assert counters["net.link.c1.up.bytes"] == 5

    def test_peer_link_installed_mid_run_carries_the_next_send(self, net):
        add_backbone(net, "shard-1")
        peer = add_backbone(net, "shard-2")
        net.send("shard-1", "shard-2", "replicate", size_bytes=64)
        net.run()
        slow = Link(bandwidth_bps=1 * MBPS, latency_s=0.0)
        net.set_peer_link("shard-1", "shard-2", slow)
        started = net.clock.now
        net.send("shard-1", "shard-2", "replicate", size_bytes=125_000)
        net.run()
        assert slow.bytes_carried == 125_000 and slow.messages_carried == 1
        assert peer.received[1][0] - started == pytest.approx(1.0)

    def test_detached_peer_is_unroutable_and_its_frames_drop(self, net):
        add_backbone(net, "shard-1")
        add_backbone(net, "shard-2")
        net.send("shard-1", "shard-2", "replicate", size_bytes=64)
        net.detach_client("shard-2")
        net.run()  # the frame in flight is dropped, not delivered
        with pytest.raises(NetworkError, match="unknown recipient"):
            net.send("shard-1", "shard-2", "replicate", size_bytes=64)
        add_client(net, "shard-2")  # same id, now an ordinary client
        with pytest.raises(NetworkError, match="hub<->client"):
            net.send("shard-1", "shard-2", "replicate", size_bytes=64)


class TestDelivery:
    def test_hub_to_client(self, net):
        client = add_client(net, "c1", latency=0.25)
        net.send("server", "c1", "update", payload={"x": 1}, size_bytes=0)
        net.run()
        assert len(client.received) == 1
        time, message = client.received[0]
        assert time == pytest.approx(0.25)
        assert message.payload == {"x": 1}

    def test_client_to_hub(self, net):
        add_client(net, "c1", latency=0.1)
        net.send("c1", "server", "choice", size_bytes=100)
        net.run()
        hub = net.node("server")
        assert len(hub.received) == 1

    def test_client_to_client_rejected(self, net):
        add_client(net, "c1")
        add_client(net, "c2")
        with pytest.raises(NetworkError, match="hub<->client"):
            net.send("c1", "c2", "chat")

    def test_unknown_nodes_rejected(self, net):
        with pytest.raises(NetworkError, match="unknown sender"):
            net.send("ghost", "server", "x")
        with pytest.raises(NetworkError, match="unknown recipient"):
            net.send("server", "ghost", "x")

    def test_bandwidth_differentiates_arrival(self, net):
        fast = add_client(net, "fast", bandwidth=10 * MBPS)
        slow = add_client(net, "slow", bandwidth=1 * MBPS)
        payload_bytes = 1_250_000  # 10 Mbit
        net.send("server", "fast", "image", size_bytes=payload_bytes)
        net.send("server", "slow", "image", size_bytes=payload_bytes)
        net.run()
        fast_time = fast.received[0][0]
        slow_time = slow.received[0][0]
        assert fast_time == pytest.approx(1.0)
        assert slow_time == pytest.approx(10.0)

    def test_messages_to_detached_client_dropped(self, net):
        client = add_client(net, "c1", latency=1.0)
        net.send("server", "c1", "update", size_bytes=10)
        net.detach_client("c1")
        net.run()
        assert client.received == []

    def test_per_client_links_do_not_interfere(self, net):
        a = add_client(net, "a", bandwidth=1 * MBPS)
        b = add_client(net, "b", bandwidth=1 * MBPS)
        net.send("server", "a", "image", size_bytes=125_000)
        net.send("server", "b", "image", size_bytes=125_000)
        net.run()
        # Separate downlinks -> both arrive at t=1, not serialized.
        assert a.received[0][0] == pytest.approx(1.0)
        assert b.received[0][0] == pytest.approx(1.0)


class TestStats:
    def test_traffic_accounting(self, net):
        add_client(net, "c1")
        net.send("server", "c1", "update", size_bytes=100)
        net.send("server", "c1", "update", size_bytes=50)
        net.send("c1", "server", "choice", size_bytes=10)
        net.run()
        assert net.stats.messages == 3
        assert net.stats.bytes_total == 160
        assert net.stats.bytes_by_kind["update"] == 150
        assert net.stats.messages_by_kind["choice"] == 1

    def test_link_stats_and_reset(self, net):
        add_client(net, "c1")
        net.send("server", "c1", "update", size_bytes=100)
        net.run()
        assert net.downlink("c1").bytes_carried == 100
        net.reset_stats()
        assert net.stats.messages == 0
        assert net.downlink("c1").bytes_carried == 0

    def test_reset_covers_backbone_peer_links(self, net):
        add_backbone(net, "shard-1")
        add_backbone(net, "shard-2")
        custom = Link()
        net.set_peer_link("shard-2", "shard-1", custom)
        net.send("shard-1", "shard-2", "replicate", size_bytes=64)  # default link
        net.send("shard-2", "shard-1", "ack", size_bytes=8)
        net.run()
        default = net._peer_link("shard-1", "shard-2")
        assert (default.bytes_carried, default.messages_carried) == (64, 1)
        assert (custom.bytes_carried, custom.messages_carried) == (8, 1)
        net.reset_stats()
        assert (default.bytes_carried, default.messages_carried) == (0, 0)
        assert (custom.bytes_carried, custom.messages_carried) == (0, 0)


class TestHonestWireSizes:
    """Per-link byte counters must equal the real encoded frame bytes.

    A three-client consultation runs over the full stack; every message a
    client receives or sends must carry the canonical codec frame for its
    payload, be charged exactly ``len(frame.bytes)``, and the totals are
    checked against the ``net.link.<node>.{down,up}.bytes`` counters — no
    message may be charged a made-up size.
    """

    def test_three_client_room_link_counters_match_encoded_sizes(self, tmp_path):
        from repro.client import ClientModule
        from repro.db import Database, MultimediaObjectStore
        from repro.document import build_sample_medical_record
        from repro.server import InteractionServer
        from repro.server.protocol import encoded_size

        registry = MetricsRegistry()
        with use_registry(registry):
            db = Database(str(tmp_path / "db"))
            store = MultimediaObjectStore(db)
            store.store_document(build_sample_medical_record())
            network = SimulatedNetwork()
            server = InteractionServer(store, network=network)
            clients = []
            for index in range(3):
                client = ClientModule(f"dr-{index}", network=network,
                                      auto_fetch=False)
                network.attach_client(client, uplink=Link(), downlink=Link())
                clients.append(client)
        try:
            delivered: dict[str, list[Message]] = {c.node_id: [] for c in clients}
            sent: dict[str, list[Message]] = {c.node_id: [] for c in clients}
            for client in clients:
                original = client.receive
                client.receive = (lambda message, orig=original,
                                  log=delivered[client.node_id]:
                                  (log.append(message), orig(message))[1])
            original_server_receive = server.receive
            def hub_receive(message):
                sent[message.sender].append(message)
                return original_server_receive(message)
            server.receive = hub_receive

            for client in clients:
                client.join("record-17")
            network.run()
            clients[0].choose("imaging.ct_head", "segmented")
            network.run()
            clients[1].choose("labs", "hidden")
            network.run()

            counters = registry.snapshot()["counters"]
            for client in clients:
                down = delivered[client.node_id]
                up = sent[client.node_id]
                assert down and up  # the session actually produced traffic
                # Every wire size is the length of the actual encoded
                # frame (kind + payload), the frame describes *this*
                # payload, and the encoding never exceeds the stateless
                # value size by more than the kind prefix.
                for message in down + up:
                    assert message.frame is not None
                    assert message.size_bytes == len(message.frame.data)
                    assert message.size_bytes == message.frame.size_bytes
                    assert message.payload is message.frame.payload
                    assert message.size_bytes <= encoded_size(message.payload) + 16
                assert counters[f"net.link.{client.node_id}.down.bytes"] == sum(
                    m.size_bytes for m in down
                )
                assert counters[f"net.link.{client.node_id}.up.bytes"] == sum(
                    m.size_bytes for m in up
                )
            total = counters["net.bytes_total"]
            assert total == sum(
                m.size_bytes
                for log in (*delivered.values(), *sent.values())
                for m in log
            )
        finally:
            db.close()
