"""The one telemetry channel, on both of its hosts.

The single interaction server and a cluster gateway each delegate their
monitor sessions to a :class:`repro.server.telemetry.TelemetryChannel`,
which answers the monitor protocol itself; the same behaviour must hold
on either host: the same refusal of a malformed ``MONITOR``, a monitor's
``LEAVE`` answered by the channel alone, lazy event-log subscribe,
baseline snapshot, pushes riding on host activity, and full teardown
when the last monitor leaves."""

import pytest

from repro.client import ClientModule, TelemetryMonitor
from repro.cluster import ClusterConfig, ClusterHarness
from repro.net import SimulatedNetwork
from repro.server import InteractionServer
from repro.server.protocol import MessageKind
from repro.server.telemetry import PUSH_INTERVAL_S

DOC = "record-17"


def _server_hub(store):
    network = SimulatedNetwork()
    server = InteractionServer(store, network=network)

    def attach(node):
        network.attach_client(node)
        return node

    return (
        server.telemetry,
        network,
        lambda: attach(TelemetryMonitor("ops", network=network)),
        lambda name: attach(ClientModule(name, network=network, auto_fetch=False)),
    )


def _gateway(store):
    harness = ClusterHarness(store, ClusterConfig(shards=1))

    def monitor():
        node = TelemetryMonitor("ops", network=harness.network)
        harness.network.attach_client(node)
        harness.directory.attach_client(node)
        return node

    return (
        harness.gateways["gw-1"].telemetry,
        harness.network,
        monitor,
        lambda name: harness.add_client(name, auto_fetch=False),
    )


@pytest.mark.parametrize("host", [_server_hub, _gateway], ids=["server", "gateway"])
def test_channel_lifecycle(rig, host):
    store, log = rig
    channel, network, add_monitor, add_client = host(store)
    listeners = log._subscribers
    assert channel.baseline is None and not listeners  # lazy: nothing until a monitor

    monitor = add_monitor()
    monitor.connect()
    network.run()
    assert monitor.session_id in channel.monitors
    assert monitor.interval == PUSH_INTERVAL_S == 0.0
    assert listeners == [channel._on_event]
    assert channel.baseline is not None

    # Every activity of the host pushes, and carries out the events
    # recorded since the last push.
    pushed = len(monitor.snapshots)
    client = add_client("lee")
    client.join(DOC)
    network.run()
    backlog = list(channel.pending_events)
    delivered = len(monitor.events)
    client.choose("imaging.ct_head", "flat")
    network.run()
    assert len(monitor.snapshots) > pushed + 1
    assert monitor.events[delivered : delivered + len(backlog)] == backlog

    # A second monitor shares the subscription; teardown waits for the last.
    second = TelemetryMonitor("aux", network=network)
    network.attach_client(second)
    if network.home_of(monitor.node_id) is not None:
        network.assign_home(second.node_id, network.home_of(monitor.node_id))
    second.connect()
    network.run()
    second.disconnect()
    network.run()
    assert listeners == [channel._on_event] and channel.baseline is not None

    client.choose("imaging.ct_head", "segmented")  # leaves events pending
    network.run()
    monitor.disconnect()
    network.run()
    assert channel.monitors == {}
    assert listeners == []
    assert channel.pending_events == []
    assert channel.baseline is None


@pytest.mark.parametrize("host", [_server_hub, _gateway], ids=["server", "gateway"])
def test_the_channel_answers_its_own_protocol(rig, host):
    store, _ = rig
    channel, network, add_monitor, add_client = host(store)
    client = add_client("lee")
    client._dispatch(MessageKind.MONITOR, {}, network.home_of(client.node_id))
    network.run()
    assert client.errors == [
        {
            "error": "ProtocolError",
            "detail": "'monitor' message lacks required field 'viewer_id'",
            "kind": MessageKind.MONITOR,
        }
    ]
    assert channel.monitors == {}

    monitor = add_monitor()
    monitor.connect()
    network.run()
    assert monitor.session_id in channel.monitors
    sent = []
    real_send = network.send

    def recording_send(sender, recipient, frame):
        sent.append((sender, frame.kind))
        return real_send(sender, recipient, frame)

    network.send = recording_send
    monitor.disconnect()
    network.run()
    # The LEAVE is the only frame: no ROUTE to a shard, no ERROR back.
    assert sent == [(monitor.node_id, MessageKind.LEAVE)]
    assert channel.monitors == {}
