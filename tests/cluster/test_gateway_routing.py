"""Gateway routing: clients speak the single-server protocol, unchanged."""

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.net import encode_message
from repro.server.protocol import MessageKind
from repro.workloads import generate_record


@pytest.fixture
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


@pytest.fixture
def rig(tmp_path, fresh_obs):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    docs = [f"case-{i}" for i in range(6)]
    records = {}
    for index, doc_id in enumerate(docs):
        record = generate_record(
            doc_id, sections=2, components_per_section=3, seed=index
        )
        records[doc_id] = record
        store.store_document(record)
    harness = ClusterHarness(store, ClusterConfig(shards=3))
    yield harness, docs, records, fresh_obs[0]
    db.close()


class TestJoinRouting:
    def test_join_lands_on_the_ring_owner(self, rig):
        harness, docs, _, _ = rig
        clients = {}
        for doc_id in docs:
            client = harness.add_client(f"viewer-{doc_id}")
            client.join(doc_id)
            clients[doc_id] = client
        harness.run()
        for doc_id, client in clients.items():
            assert client.session_id is not None
            owner = harness.owner_of(doc_id)
            # The session id is namespaced by the shard that minted it.
            assert client.session_id.startswith(f"{owner}:")
            assert harness.gateways["gw-1"].shard_of_session(client.session_id) == owner
            assert harness.directory.shard_of_session(client.session_id) == owner
            assert harness.shards[owner].server.has_session(client.session_id)

    def test_ids_from_different_shards_never_collide(self, rig):
        harness, docs, _, _ = rig
        clients = [harness.add_client(f"viewer-{i}") for i in range(len(docs))]
        for client, doc_id in zip(clients, docs):
            client.join(doc_id)
        harness.run()
        session_ids = [c.session_id for c in clients]
        assert len(set(session_ids)) == len(session_ids)
        assert len({harness.owner_of(d) for d in docs}) > 1  # really sharded


class TestSessionRouting:
    def test_choice_propagates_through_the_gateway(self, rig):
        harness, docs, records, _ = rig
        doc_id = docs[0]
        alice = harness.add_client("alice")
        bob = harness.add_client("bob")
        alice.join(doc_id)
        bob.join(doc_id)
        harness.run()
        component = records[doc_id].component_paths()[1]
        domain = records[doc_id].component(component).domain
        target = next(v for v in domain if v != alice.displayed()[component])
        alice.choose(component, target)
        harness.run()
        assert alice.errors == [] and bob.errors == []
        assert alice.displayed()[component] == target
        assert bob.displayed() == alice.displayed()

    def test_leave_clears_the_route(self, rig):
        harness, docs, _, _ = rig
        client = harness.add_client("alice")
        client.join(docs[0])
        harness.run()
        session_id = client.session_id
        client.leave()
        harness.run()
        assert harness.gateways["gw-1"].shard_of_session(session_id) is None
        assert harness.directory.shard_of_session(session_id) is None

    def test_unknown_session_is_an_error_not_a_crash(self, rig):
        harness, docs, _, _ = rig
        client = harness.add_client("alice")
        client.join(docs[0])
        harness.run()
        # Forge a choice for a session the gateway never saw.
        body = {"session_id": "nowhere:session-9", "component": "x", "value": "y"}
        harness.network.send(
            "client-alice", harness.gateways["gw-1"].node_id,
            encode_message(MessageKind.CHOICE, body),
        )
        harness.run()
        assert any(e["error"] == "ClusterError" for e in client.errors)

    @pytest.mark.parametrize(
        "kind,fields,missing",
        [
            (MessageKind.CHOICE, {"value": "flat"}, "component"),
            (MessageKind.FREEZE, {"component": "x"}, "session_id"),
            (MessageKind.JOIN, {"viewer_id": "alice"}, "doc_id"),
        ],
    )
    def test_malformed_message_is_a_typed_protocol_error(
        self, rig, kind, fields, missing
    ):
        """Regression: a request without a required field used to come
        back as ``{"error": "KeyError"}`` (or cost a directory lookup for
        session ``None``); the first node to see it names kind and field."""
        harness, docs, _, registry = rig
        client = harness.add_client("alice")
        client.join(docs[0])
        harness.run()
        payload = dict(fields)
        if missing != "session_id" and kind != MessageKind.JOIN:
            payload["session_id"] = client.session_id
        counters = registry.snapshot()["counters"]
        client._dispatch(kind, payload, harness.network.home_of(client.node_id))
        harness.run()
        assert [error["error"] for error in client.errors] == ["ProtocolError"]
        detail = client.errors[0]["detail"]
        assert repr(kind) in detail and repr(missing) in detail
        after = registry.snapshot()["counters"]
        for name in ("gateway.routed_messages", "directory.lookups"):
            assert after.get(name, 0) == counters.get(name, 0)

    def test_monitor_sessions_are_gateway_local(self, rig):
        harness, _, _, _ = rig
        monitor = harness.add_monitor("ops")
        harness.run()
        assert monitor.session_id is not None
        assert monitor.session_id in harness.gateways["gw-1"].telemetry.monitors
        # Monitors talk to the cluster tier, not to any one shard.
        assert harness.gateways["gw-1"].shard_of_session(monitor.session_id) is None


class TestRoutingAccounting:
    def test_routed_bytes_metrics_cover_both_directions(self, rig):
        harness, docs, _, registry = rig
        client = harness.add_client("alice")
        client.join(docs[0])
        harness.run()
        owner = harness.owner_of(docs[0])
        snapshot = registry.snapshot()["counters"]
        to_shard = snapshot[
            f'gateway.routed_bytes{{shard="{owner}",direction="to_shard"}}'
        ]
        to_client = snapshot[
            f'gateway.routed_bytes{{shard="{owner}",direction="to_client"}}'
        ]
        assert to_shard > 0 and to_client > 0
        assert snapshot["gateway.routed_messages"] >= 2  # join in, ack+state out

    def test_route_envelopes_charge_declared_inner_size(self, rig):
        """Honest wire accounting: backbone ROUTE traffic is charged the
        envelope header plus the inner message's declared size."""
        harness, docs, _, registry = rig
        client = harness.add_client("alice")
        client.join(docs[0])
        harness.run()
        owner = harness.owner_of(docs[0])
        counters = registry.snapshot()["counters"]
        # Gateway->shard ROUTE traffic rides the gateway's backbone peer
        # link to the shard; the gateway's own accounting must agree
        # byte-for-byte with what the network charged that link (the
        # join is the only traffic on it here).
        link_bytes = counters[f"net.peer.gw-1.{owner}.bytes"]
        routed = counters[f'gateway.routed_bytes{{shard="{owner}",direction="to_shard"}}']
        assert routed > 0
        assert routed == link_bytes


class TestGatewayGuards:
    def test_dead_shard_routing_is_refused(self, rig):
        harness, docs, _, _ = rig
        client = harness.add_client("alice")
        client.join(docs[0])
        harness.run()
        owner = harness.owner_of(docs[0])
        harness.crash(owner)
        # No detector running: the route still points at the dead shard,
        # so the gateway refuses loudly instead of black-holing the op.
        client.choose("anything", "anything")
        harness.run()
        assert any(e["error"] == "ClusterError" for e in client.errors)
