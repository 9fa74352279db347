"""What each of the six receivers does with a message kind it has no
handler for — the one default arm of its kind→handler table, recorded
as it behaved before the tables replaced the ``if``/``elif`` chains."""

import pytest

from repro.client import ClientModule, TelemetryMonitor
from repro.cluster import ClusterConfig, ClusterHarness
from repro.errors import ClientError, ClusterError, ServerError
from repro.net import SimulatedNetwork
from repro.net.message import Message
from repro.server import InteractionServer

BOGUS = "bogus"
#: Shaped like a session op, so it is the *kind* that gets refused.
PAYLOAD = {"session_id": "nobody"}


def _message(sender: str, recipient: str) -> Message:
    return Message(sender=sender, recipient=recipient, kind=BOGUS, payload=PAYLOAD, size_bytes=8)


def _networked_server(store, log):
    network = SimulatedNetwork()
    InteractionServer(store, network=network)
    client = ClientModule("lee", network=network)
    network.attach_client(client)
    network.send(client.node_id, "server", BOGUS, payload=PAYLOAD, size_bytes=8)
    network.run()
    assert [error["error"] for error in client.errors] == ["ServerError"]
    assert repr(BOGUS) in client.errors[0]["detail"]


def _direct_server(store, log):
    server = InteractionServer(store)
    with pytest.raises(ServerError, match="unknown message kind 'bogus'"):
        server.receive(_message("lee", "server"))


def _shard(store, log):
    harness = ClusterHarness(store, ClusterConfig(shards=1))
    harness.shards["shard-1"].receive(_message("gw-1", "shard-1"))  # no raise
    (event,) = log.filter(name="cluster.shard_bad_kind")
    assert event.severity == "ERROR"
    assert event.fields == {"shard": "shard-1", "kind": BOGUS}


def _gateway_from_client(store, log):
    harness = ClusterHarness(store, ClusterConfig(shards=1))
    client = harness.add_client("lee")
    harness.network.send(client.node_id, "gw-1", BOGUS, payload=PAYLOAD, size_bytes=8)
    harness.run()
    assert [error["error"] for error in client.errors] == ["ClusterError"]
    assert "unexpected message kind 'bogus' at gateway" in client.errors[0]["detail"]


def _gateway_from_shard(store, log):
    harness = ClusterHarness(store, ClusterConfig(shards=1))
    with pytest.raises(ClusterError, match="unexpected message kind 'bogus' at gateway"):
        harness.gateways["gw-1"].receive(_message("shard-1", "gw-1"))


def _directory(store, log):
    harness = ClusterHarness(store, ClusterConfig(shards=1))
    with pytest.raises(ClusterError, match="unexpected message kind 'bogus' at directory"):
        harness.directory.receive(_message("gw-1", "directory"))


def _client(store, log):
    with pytest.raises(ClientError, match="unexpected message kind 'bogus'"):
        ClientModule("lee").receive(_message("server", "client-lee"))


def _monitor(store, log):
    with pytest.raises(ClientError, match="unexpected message kind 'bogus'"):
        TelemetryMonitor("ops").receive(_message("server", "monitor-ops"))


@pytest.mark.parametrize(
    "scenario",
    [
        _networked_server, _direct_server, _shard, _gateway_from_client,
        _gateway_from_shard, _directory, _client, _monitor,
    ],
    ids=lambda scenario: scenario.__name__.lstrip("_"),
)
def test_unknown_kind(rig, scenario):
    scenario(*rig)
