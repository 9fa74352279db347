"""The one telemetry channel, on both of its hosts.

The single interaction server and a cluster gateway each delegate their
monitor sessions to a :class:`repro.server.telemetry.TelemetryChannel`;
the same lifecycle must hold on either: lazy event-log subscribe,
baseline snapshot, pushes riding on host activity under the interval
throttle, and full teardown when the last monitor leaves."""

import pytest

from repro.client import ClientModule, TelemetryMonitor
from repro.cluster import ClusterConfig, ClusterHarness
from repro.net import SimulatedNetwork
from repro.server import InteractionServer

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
    assert monitor.interval == channel.interval == 0.0
    assert listeners == [channel._on_event]
    assert channel.baseline is not None

    # Activity inside one throttle interval: the pushes that rode on the
    # MONITOR message itself are all the monitor gets, however busy the
    # host is; events keep accumulating for the next one.
    channel.interval = 5.0
    pushed, delivered = len(monitor.snapshots), len(monitor.events)
    client = add_client("lee")
    client.join(DOC)
    network.run()
    client.choose("imaging.ct_head", "segmented")
    network.run()
    assert network.clock.now < 5.0
    assert len(monitor.snapshots) == pushed
    backlog = list(channel.pending_events)
    assert backlog and len(monitor.events) == delivered

    # The first activity past the interval carries the backlog out.
    network.clock.run_until(network.clock.now + 5.0)
    client.choose("imaging.ct_head", "flat")
    network.run()
    assert len(monitor.snapshots) == pushed + 1
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
