"""Client-side graceful degradation (§4.4) on delivery failure.

When the reliable transport gives up on a ``FETCH_PAYLOAD``, the client
must not hang half-rendered: the affected component renders its
placeholder, and the client steps its *personal* ``tuning.bandwidth``
choice down a level so the preference model stops selecting
presentations the link cannot carry.
"""

import pytest

from repro import obs
from repro.chaos import ChaosNetwork, FaultPlan
from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.errors import DeliveryFailed
from repro.net import Link, SimulatedNetwork
from repro.net.link import MBPS
from repro.presentation import (
    BANDWIDTH_LOW,
    BANDWIDTH_MEDIUM,
    TUNING_VARIABLE,
    install_bandwidth_tuning,
)
from repro.server import InteractionServer
from repro.server.protocol import MessageKind


@pytest.fixture(autouse=True)
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


def build_rig(tmp_path, tuned=True, plan=None, reliability=True):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    doc = build_sample_medical_record()
    if tuned:
        install_bandwidth_tuning(doc)
    store.store_document(doc)
    if plan is not None:
        network = ChaosNetwork(reliability=reliability, plan=plan)
    else:
        network = SimulatedNetwork(reliability=reliability)
    server = InteractionServer(store, network=network)
    client = ClientModule("lee", network=network)
    network.attach_client(
        client,
        downlink=Link(bandwidth_bps=50 * MBPS),
        uplink=Link(bandwidth_bps=50 * MBPS),
    )
    return db, network, server, client


def fetch_failure(client, component="imaging.ct_head", value="flat"):
    return DeliveryFailed(
        sender=client.node_id,
        recipient="server",
        kind=MessageKind.FETCH_PAYLOAD,
        seq=1,
        attempts=7,
        reason="retry_budget_exhausted",
        payload={
            "session_id": client.session_id,
            "component": component,
            "value": value,
        },
    )


class TestStepDown:
    def test_failed_fetch_renders_placeholder_and_steps_down(self, tmp_path):
        db, network, server, client = build_rig(tmp_path)
        client.join("record-17")
        network.run()
        assert client.tuning_level is None
        client.on_delivery_failed(fetch_failure(client))
        network.run()
        # The component did not hang the render...
        assert client.degraded_components == ["imaging.ct_head"]
        assert client.fully_rendered()
        # ...and the personal tuning choice reached the server.
        assert client.tuning_level == BANDWIDTH_MEDIUM
        room = server.room(client.room_id)
        personal = room.engine.personal_choices(client.viewer_id)
        assert personal.get(TUNING_VARIABLE) == BANDWIDTH_MEDIUM
        assert client.errors == []
        db.close()

    def test_second_failure_steps_to_the_floor_and_stays(self, tmp_path):
        db, network, server, client = build_rig(tmp_path)
        client.join("record-17")
        network.run()
        for _ in range(3):  # third failure has no level left below LOW
            client.on_delivery_failed(fetch_failure(client))
            network.run()
        assert client.tuning_level == BANDWIDTH_LOW
        assert client.errors == []
        db.close()

    def test_untuned_document_bounces_without_user_visible_error(self, tmp_path):
        # The document never had install_bandwidth_tuning applied: the
        # server rejects the tuning choice, the client learns and stops,
        # and the bounce never shows up in client.errors.
        db, network, server, client = build_rig(tmp_path, tuned=False)
        client.join("record-17")
        network.run()
        client.on_delivery_failed(fetch_failure(client))
        network.run()
        assert client.tuning_level == BANDWIDTH_MEDIUM  # attempted once
        assert client.errors == []
        client.on_delivery_failed(fetch_failure(client))
        network.run()
        # No further CHOICE was sent: the level froze where it bounced.
        assert client.tuning_level == BANDWIDTH_MEDIUM
        assert client.errors == []
        db.close()

    def test_non_fetch_failures_do_not_degrade(self, tmp_path):
        db, network, server, client = build_rig(tmp_path)
        client.join("record-17")
        network.run()
        error = fetch_failure(client)
        object.__setattr__(error, "kind", MessageKind.CHOICE)
        client.on_delivery_failed(error)
        assert client.tuning_level is None
        assert client.delivery_failures[0]["kind"] == MessageKind.CHOICE
        db.close()


class TestEndToEnd:
    def test_chaos_killing_payload_fetches_degrades_gracefully(self, tmp_path):
        # Every FETCH_PAYLOAD transmission dies (retries included): the
        # transport exhausts its budget, the hook fires for real, and the
        # client ends fully rendered at a stepped-down tuning level.
        plan = FaultPlan(
            seed=4, drop_rate=0.999999, kinds=(MessageKind.FETCH_PAYLOAD,)
        )
        db, network, server, client = build_rig(tmp_path, plan=plan)
        client.join("record-17")
        network.run()
        assert client.delivery_failures  # the transport really gave up
        assert all(
            f["kind"] == MessageKind.FETCH_PAYLOAD for f in client.delivery_failures
        )
        assert client.degraded_components  # placeholders, not hangs
        assert client.fully_rendered()
        assert client.tuning_level in (BANDWIDTH_MEDIUM, BANDWIDTH_LOW)
        assert client.errors == []
        db.close()
