"""The live telemetry monitor channel (dogfooding repro.net).

A monitor session rides the same simulated network as the consultation
it watches: metric-diff snapshots arrive as TELEMETRY messages, flight
recorder events as TELEMETRY_EVENT messages, and the whole exchange is
deterministic under the simulated clock.
"""

import pytest

from repro import obs
from repro.client import ClientModule, TelemetryMonitor
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.net import Link, SimulatedNetwork
from repro.obs import render_dashboard
from repro.server import InteractionServer
from repro.server.telemetry import PUSH_INTERVAL_S, TelemetryChannel
from repro.server.protocol import MessageKind

MBPS = 1_000_000

#: Instruments excluded from byte-identical asserts: wall-clock-driven
#: latency histograms, plus the byte/delay accounting that telemetry
#: traffic itself perturbs (the encoded size of a telemetry payload
#: depends on the wall-clock floats inside it).
NONDETERMINISTIC_METRICS = (
    "db.query_latency_s",
    "net.bytes_total",
    "net.queue_delay_s",
    "net.link.monitor-",
    "server.bytes_out",
)


@pytest.fixture
def fresh_obs():
    """Isolated registry/event-log around the package defaults."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


def build_rig(tmp_path, name="db"):
    db = Database(str(tmp_path / name))
    store = MultimediaObjectStore(db)
    store.store_document(build_sample_medical_record())
    network = SimulatedNetwork()
    server = InteractionServer(store, network=network)
    return db, store, network, server


def attach_client(network, viewer):
    client = ClientModule(viewer, network=network)
    network.attach_client(
        client,
        downlink=Link(bandwidth_bps=50 * MBPS),
        uplink=Link(bandwidth_bps=50 * MBPS),
    )
    return client


def attach_monitor(network, viewer="ops"):
    monitor = TelemetryMonitor(viewer, network=network)
    network.attach_client(monitor)
    return monitor


class TestMonitorRegistration:
    def test_monitor_ack_carries_session_and_interval(self, tmp_path, fresh_obs):
        db, store, network, server = build_rig(tmp_path)
        monitor = attach_monitor(network)
        monitor.connect()
        network.run()
        assert monitor.session_id is not None
        assert monitor.interval == PUSH_INTERVAL_S
        assert monitor.session_id in server.telemetry.monitors
        assert server.stats()["monitors"] == 1
        db.close()

    def test_leave_disconnects_monitor(self, tmp_path, fresh_obs):
        db, store, network, server = build_rig(tmp_path)
        monitor = attach_monitor(network)
        monitor.connect()
        network.run()
        monitor.disconnect()
        network.run()
        assert server.telemetry.monitors == {}
        assert server.stats()["monitors"] == 0
        db.close()

    def test_direct_mode_connect_and_push(self, tmp_path, fresh_obs):
        db = Database(str(tmp_path / "db"))
        store = MultimediaObjectStore(db)
        # No monitor can reach a server without a network (a shard's, a
        # standby's): it builds no channel and pushes nothing.
        assert InteractionServer(store).telemetry is None
        db.close()
        # The channel itself needs only a clock and a way of sending: the
        # push counts its audience and drains the pending-event buffer.
        sent = []
        channel = TelemetryChannel("hub", lambda: 0.0, lambda *frame: sent.append(frame))
        assert channel.answer("ops-node", MessageKind.MONITOR, {"viewer_id": "ops"})
        (session_id, session), = channel.monitors.items()
        assert (session.viewer_id, session.node_id) == ("ops", "ops-node")
        assert sent == [
            ("ops-node", MessageKind.MONITOR_ACK, {"session_id": session_id, "interval": 0.0})
        ]
        assert channel.push() == 1
        assert channel.answer("ops-node", MessageKind.LEAVE, {"session_id": session_id})
        assert channel.push() == 0
        # A LEAVE naming no monitor session, and any other kind, are the host's.
        assert not channel.answer("ops-node", MessageKind.LEAVE, {"session_id": session_id})
        assert not channel.answer("ops-node", MessageKind.CHOICE, {"session_id": session_id})


class TestTelemetryDelivery:
    def _consultation(self, tmp_path, fresh_obs):
        registry, log = fresh_obs
        db, store, network, server = build_rig(tmp_path)
        monitor = attach_monitor(network)
        monitor.connect()
        # Let registration land before the consultation starts: the
        # monitor's default link is slower than the clients', so its
        # MONITOR message would otherwise lose the race to the JOINs.
        network.run()
        # One WARN in the flight recorder, so the WARN path to the
        # monitor is exercised deterministically.
        log.emit("drill.alarm", severity="WARN", at=network.clock.now)
        clients = [attach_client(network, f"dr-{i}") for i in range(3)]
        for client in clients:
            client.join("record-17")
        network.run()
        clients[0].choose("imaging.ct_head", "segmented")
        network.run()
        clients[1].choose("labs", "hidden")
        network.run()
        for client in clients:
            client.leave()
        network.run()
        db.close()
        return monitor

    def test_monitor_receives_metric_diffs_and_warn_events(self, tmp_path, fresh_obs):
        monitor = self._consultation(tmp_path, fresh_obs)
        # At least one metric-diff snapshot arrived as a repro.net message...
        assert len(monitor.snapshots) >= 1
        assert any(s.get("diff", {}).get("counters") for s in monitor.snapshots)
        # ...and the WARN event, over the same wire.
        assert [e["name"] for e in monitor.warn_events()] == ["drill.alarm"]

    def test_room_lifecycle_events_arrive(self, tmp_path, fresh_obs):
        monitor = self._consultation(tmp_path, fresh_obs)
        names = [event["name"] for event in monitor.events]
        assert "server.room_join" in names
        assert "server.room_leave" in names
        assert "server.room_closed" in names

    def test_combined_diff_matches_consultation_activity(self, tmp_path, fresh_obs):
        monitor = self._consultation(tmp_path, fresh_obs)
        combined = monitor.combined()
        assert combined["counters"]["server.choices"] == 2
        assert combined["counters"][
            'server.propagation.room_bytes{room="server:room-1",mode="diff"}'
        ] > 0
        assert 'client.view_response_s{viewer="dr-0"}' in combined["histograms"]

    def test_telemetry_messages_are_counted_as_server_traffic(self, tmp_path, fresh_obs):
        registry, _ = fresh_obs
        monitor = self._consultation(tmp_path, fresh_obs)
        # Dogfooding: telemetry crossed the simulated network and was
        # charged to the monitor's downlink like any other traffic.
        downlink_bytes = registry.counter("net.link.monitor-ops.down.bytes").value
        assert downlink_bytes > 0
        assert len(monitor.snapshots) >= 1

    def test_dashboard_byte_identical_across_runs(self, tmp_path, fresh_obs):
        def run(name):
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                network = SimulatedNetwork()
                log = obs.EventLog(clock=lambda: network.clock.now)
                with obs.use_event_log(log):
                    db = Database(str(tmp_path / name))
                    store = MultimediaObjectStore(db)
                    store.store_document(build_sample_medical_record())
                    server = InteractionServer(store, network=network)
                    monitor = attach_monitor(network)
                    monitor.connect()
                    network.run()
                    clients = [
                        attach_client(network, f"dr-{i}") for i in range(3)
                    ]
                    for client in clients:
                        client.join("record-17")
                    network.run()
                    clients[0].choose("imaging.ct_head", "segmented")
                    network.run()
                    for client in clients:
                        client.leave()
                    network.run()
                    out = render_dashboard(
                        monitor.combined(),
                        monitor.events,
                        title="three-client consultation",
                        exclude=NONDETERMINISTIC_METRICS,
                    )
                    db.close()
                    return out

        first = run("run1")
        second = run("run2")
        assert first.encode() == second.encode()
        assert "three-client consultation" in first

    def test_monitor_rejects_unexpected_kinds(self, tmp_path, fresh_obs):
        from repro.errors import ClientError
        from repro.net.message import Message

        monitor = TelemetryMonitor("ops")
        with pytest.raises(ClientError):
            monitor.receive(
                Message(sender="server", recipient="x", kind=MessageKind.PAYLOAD)
            )
