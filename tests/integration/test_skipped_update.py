"""A presentation update the transport gives up on leaves no stale screen.

The reliable transport skips a frame its sender gave up on, so the
frames behind it still arrive. Updates are diffs against what the client
is known to display: after a lost one, the next must be made whole, and
the lost one must not be re-sent to land after newer ones.
"""

import pytest

from repro.client import ClientModule
from repro.cluster import ClusterConfig, ClusterHarness
from repro.cluster.wire import ClientBound
from repro.db import Database, MultimediaObjectStore
from repro.document import PrimitiveMultimediaComponent
from repro.net import SimulatedNetwork
from repro.server import InteractionServer
from repro.server.protocol import MessageKind
from repro.workloads import generate_record

DOC = "case-0"


@pytest.fixture
def store(tmp_path):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    store.store_document(generate_record(DOC, sections=2, components_per_section=3, seed=0))
    yield store
    db.close()


def is_update(message):
    return message.kind == MessageKind.PRESENTATION_UPDATE


def is_routed_update(message):
    return (
        isinstance(message.payload, ClientBound)
        and message.payload.frame.kind == MessageKind.PRESENTATION_UPDATE
    )


def drop_next(network, matches):
    """Drop every transmission, retransmits included, of the next
    sequenced frame *matches* accepts."""
    doomed = []
    transmit = network._transmit

    def _transmit(message):
        frame = (message.sender, message.recipient, message.seq)
        if message.seq is not None and (
            frame in doomed or (not doomed and matches(message))
        ):
            doomed.append(frame)
            return
        transmit(message)

    network._transmit = _transmit


def alternatives(store, client, count):
    """*count* (component, value) choices, one per distinct component in
    different sections, each a value the client does not display."""
    shown = client.displayed()
    picked, sections = [], set()
    for path, node in store.fetch_document(DOC).components().items():
        section = path.split(".")[0]
        if not isinstance(node, PrimitiveMultimediaComponent) or section in sections:
            continue
        value = next((v for v in node.domain if v != shown.get(path)), None)
        if value is not None:
            picked.append((path, value))
            sections.add(section)
    assert len(picked) >= count
    return picked[:count]


def assert_in_sync(client, server):
    spec = server.room(client.room_id).presentation_for(client.viewer_id)
    assert client.displayed() == spec.outcome


class TestSingleServer:
    def test_next_update_after_a_lost_one_is_whole(self, store):
        network = SimulatedNetwork(reliability=True)
        server = InteractionServer(store, network=network)
        client = ClientModule("a", network=network, auto_fetch=False)
        network.attach_client(client)
        client.join(DOC)
        network.run()
        (first, v1), (second, v2) = alternatives(store, client, 2)
        drop_next(network, lambda m: is_update(m) and m.recipient == client.node_id)
        client.choose(first, v1)
        network.run()
        [failure] = network.delivery_failures
        assert failure.kind == MessageKind.PRESENTATION_UPDATE
        assert client.displayed()[first] != v1
        client.choose(second, v2)
        network.run()
        assert client.displayed()[first] == v1
        assert_in_sync(client, server)


class TestShardThroughLiveGateway:
    @pytest.fixture
    def cluster(self, store):
        harness = ClusterHarness(store, ClusterConfig(shards=1), reliability=True)
        client = harness.add_client("a")
        client.join(DOC)
        harness.run()
        return harness, client

    def test_next_update_after_a_lost_one_is_whole(self, store, cluster):
        harness, client = cluster
        (first, v1), (second, v2) = alternatives(store, client, 2)
        drop_next(harness.network, is_routed_update)
        client.choose(first, v1)
        harness.run()
        assert [f.kind for f in harness.network.delivery_failures] == [MessageKind.ROUTE]
        client.choose(second, v2)
        harness.run()
        assert_in_sync(client, harness.shards[harness.owner_of(DOC)].server)

    def test_lost_update_does_not_land_after_a_newer_one(self, store, cluster):
        harness, client = cluster
        [(path, v1)] = alternatives(store, client, 1)
        node = store.fetch_document(DOC).component(path)
        v2 = next(v for v in node.domain if v not in (v1, client.displayed()[path]))
        drop_next(harness.network, is_routed_update)
        client.choose(path, v1)
        client.choose(path, v2)  # its update queues behind the lost one
        harness.run()
        assert client.displayed()[path] == v2
        assert_in_sync(client, harness.shards[harness.owner_of(DOC)].server)
