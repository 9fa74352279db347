"""Admission control: lanes, deferral, shedding, and overload safety.

The contract under test: control-plane traffic is *never* shed (a shed
heartbeat would fake a death), JOINs defer FIFO before data ops drop,
the shed floor keeps the per-session dedup fence gap-free, bounced
clients retry off the typed ``RETRY_AFTER`` hint, and ``admission=None``
leaves the cluster exactly as it was.
"""

import pytest

from repro import obs
from repro.cluster import AdmissionConfig, ClusterConfig, ClusterHarness, lane_of
from repro.cluster.admission import (
    ACCEPT,
    DEFER,
    LANE_CONTROL,
    LANE_DATA,
    LANE_JOIN,
    SHED,
    AdmissionController,
    retry_after_body,
)
from repro.cluster.shard import ServiceQueue
from repro.db import Database, MultimediaObjectStore
from repro.net.simclock import SimClock
from repro.server.protocol import MessageKind
from repro.util.backoff import seeded_jitter
from repro.workloads import consultation_events, generate_record


@pytest.fixture(autouse=True)
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


def build_store(tmp_path, name, docs=("case-0",)):
    db = Database(str(tmp_path / name))
    store = MultimediaObjectStore(db)
    records = {}
    for index, doc_id in enumerate(docs):
        record = generate_record(
            doc_id, sections=2, components_per_section=3, seed=index
        )
        records[doc_id] = record
        store.store_document(record)
    return store, records


def make_controller(rate=1.0, resume=None, **cfg):
    """A controller on a real rated ServiceQueue and its own clock."""
    clock = SimClock()
    queue = ServiceQueue(clock, rate=rate)
    resumed = []
    controller = AdmissionController(
        "shard-t",
        queue,
        AdmissionConfig(**cfg),
        resume if resume is not None else (lambda item, at: resumed.append(item)),
    )
    queue.on_drain = controller.pump
    return clock, queue, controller, resumed


def fill(queue, n):
    for _ in range(n):
        queue.submit(lambda: None)


class TestLanes:
    def test_lane_assignment(self):
        assert lane_of(MessageKind.JOIN) == LANE_JOIN
        for kind in (
            MessageKind.CHOICE,
            MessageKind.OPERATION,
            MessageKind.ANNOTATE,
            MessageKind.FREEZE,
            MessageKind.RELEASE,
            MessageKind.FETCH_PAYLOAD,
            MessageKind.SUBSCRIBE,
            MessageKind.UNSUBSCRIBE,
        ):
            assert lane_of(kind) == LANE_DATA
        # Everything else is control plane — including LEAVE (dropping a
        # leave leaks the session) and the cluster internals.
        for kind in (
            MessageKind.HEARTBEAT,
            MessageKind.PROMOTE,
            MessageKind.ACK,
            MessageKind.LEAVE,
            MessageKind.ROUTE,
            MessageKind.MONITOR,
        ):
            assert lane_of(kind) == LANE_CONTROL

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(depth_defer=0)
        with pytest.raises(ValueError):
            AdmissionConfig(depth_defer=8, depth_shed=4)
        with pytest.raises(ValueError):
            AdmissionConfig(defer_limit=0)
        with pytest.raises(ValueError):
            AdmissionConfig(retry_after_s=0)
        with pytest.raises(ValueError):
            AdmissionConfig(wait_defer_s=-1.0)


class TestController:
    def test_control_always_admitted_at_any_depth(self):
        clock, queue, controller, _ = make_controller(depth_defer=1, depth_shed=2)
        fill(queue, 50)  # far past every threshold
        for kind in (
            MessageKind.HEARTBEAT,
            MessageKind.PROMOTE,
            MessageKind.ACK,
            MessageKind.LEAVE,
        ):
            assert controller.admit(kind).action == ACCEPT
        assert controller.shed == 0
        assert controller.shed_by_lane.get(LANE_CONTROL, 0) == 0

    def test_join_defers_then_sheds_past_defer_limit(self):
        clock, queue, controller, _ = make_controller(
            depth_defer=2, depth_shed=100, defer_limit=2
        )
        assert controller.admit(MessageKind.JOIN).action == ACCEPT
        fill(queue, 3)
        first = controller.admit(MessageKind.JOIN)
        assert first.action == DEFER
        assert first.retry_after_s > 0
        controller.park("j1")
        controller.park("j2")
        bounced = controller.admit(MessageKind.JOIN)
        assert bounced.action == SHED  # the parking lot is bounded too

    def test_data_sheds_past_depth_with_drain_hint(self):
        clock, queue, controller, _ = make_controller(
            rate=2.0, depth_defer=1, depth_shed=3, retry_after_s=0.25
        )
        fill(queue, 4)
        decision = controller.admit(
            MessageKind.CHOICE, session_id="s", op_seq=1
        )
        assert decision.action == SHED
        # The hint is the deterministic drain time back under the defer
        # threshold: (depth - threshold + 1) / rate = 4/2 = 2 s.
        assert decision.retry_after_s == pytest.approx(2.0)

    def test_pump_resumes_fifo_as_queue_drains(self):
        clock, queue, controller, resumed = make_controller(
            rate=10.0, depth_defer=1, depth_shed=100
        )
        fill(queue, 1)
        for i in range(4):
            assert controller.admit(MessageKind.JOIN).action == DEFER
            controller.park(f"j{i}")
        assert controller.parked_count == 4
        clock.run()
        # Every resume re-opened capacity without re-submitting (the test
        # resume callback doesn't enqueue), so one drain pumps them all.
        assert resumed == ["j0", "j1", "j2", "j3"]
        assert controller.parked_count == 0
        assert controller.resumed == 4

    def test_wait_watermark_trips_independently_of_depth(self):
        clock, queue, controller, _ = make_controller(
            rate=0.5, depth_defer=100, depth_shed=200, wait_defer_s=1.0
        )
        fill(queue, 2)  # depth 2 << 100, but backlog is 2/0.5 = 4 s
        assert queue.wait_s > 1.0
        assert controller.admit(MessageKind.JOIN).action == DEFER


class TestShedFloor:
    def test_later_seqs_shed_until_floor_returns(self):
        clock, queue, controller, _ = make_controller(
            rate=1.0, depth_defer=1, depth_shed=2
        )
        fill(queue, 3)
        assert (
            controller.admit(MessageKind.CHOICE, session_id="s", op_seq=5).action
            == SHED
        )
        assert controller.shed_floor("s") == 5
        clock.run()  # fully drain: plenty of capacity now
        assert queue.pending == 0
        # op 6 must still shed — admitting it would advance the dedup
        # fence past the hole and the retried op 5 would look duplicate.
        assert (
            controller.admit(MessageKind.CHOICE, session_id="s", op_seq=6).action
            == SHED
        )
        # the floor op returns: accepted, hole plugged, fence gap-free
        assert (
            controller.admit(MessageKind.CHOICE, session_id="s", op_seq=5).action
            == ACCEPT
        )
        assert controller.shed_floor("s") is None
        assert (
            controller.admit(MessageKind.CHOICE, session_id="s", op_seq=6).action
            == ACCEPT
        )

    def test_floor_is_per_session_and_forgettable(self):
        clock, queue, controller, _ = make_controller(
            rate=1.0, depth_defer=1, depth_shed=2
        )
        fill(queue, 3)
        controller.admit(MessageKind.CHOICE, session_id="a", op_seq=3)
        clock.run()
        assert (
            controller.admit(MessageKind.CHOICE, session_id="b", op_seq=9).action
            == ACCEPT
        )
        controller.forget_session("a")
        assert (
            controller.admit(MessageKind.CHOICE, session_id="a", op_seq=4).action
            == ACCEPT
        )


class TestRetryAfterBody:
    def test_join_bounce_carries_doc_identity(self):
        body = retry_after_body(
            MessageKind.JOIN,
            {"viewer_id": "v", "doc_id": "case-0"},
            0.5,
            "shard-1",
        )
        assert body["kind"] == MessageKind.JOIN
        assert body["doc_id"] == "case-0"
        assert body["after_s"] == 0.5
        assert body["node"] == "shard-1"
        assert "data" not in body  # a JOIN retries by doc, not by echo

    def test_seqless_read_echoes_whole_payload(self):
        payload = {"session_id": "s", "component": "c", "value": "v"}
        body = retry_after_body(MessageKind.FETCH_PAYLOAD, payload, 0.25, "gw-1")
        assert body["data"] == payload  # verbatim re-dispatch material

    def test_parked_op_retries_by_op_seq(self):
        body = retry_after_body(
            MessageKind.CHOICE, {"session_id": "s", "op_seq": 7}, 0.25, "shard-2"
        )
        assert body["op_seq"] == 7
        assert "data" not in body  # the client's own op log replays it


class TestRouteRetryBackoff:
    """Satellite: capped exponential backoff + deterministic jitter."""

    def test_delay_is_capped_and_jittered(self, tmp_path):
        store, _ = build_store(tmp_path, "backoff")
        harness = ClusterHarness(store, ClusterConfig(shards=2))
        gw = harness.gateways["gw-1"]
        uncapped = [gw._route_retry_delay("n-1", "choice", a) for a in range(10)]
        # jitter adds at most +50% on top of the capped base
        assert max(uncapped) <= gw.route_retry_max_s * 1.5
        # early attempts still grow exponentially
        assert uncapped[1] > uncapped[0]

    def test_delay_is_deterministic_but_decorrelated(self, tmp_path):
        store, _ = build_store(tmp_path, "jitter")
        harness = ClusterHarness(store, ClusterConfig(shards=2))
        gw = harness.gateways["gw-1"]
        a = gw._route_retry_delay("n-1", "choice", 3)
        assert a == gw._route_retry_delay("n-1", "choice", 3)  # seeded, stable
        # different senders / attempts retry at different moments — no
        # synchronized stampede after a failover
        assert a != gw._route_retry_delay("n-2", "choice", 3)
        assert a != gw._route_retry_delay("n-1", "choice", 4)

    def test_seeded_jitter_range(self):
        values = [seeded_jitter("x", i) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 100  # actually spreads


def saturated_cluster(tmp_path, name, *, admission, clients=8, service_rate=4.0):
    """A two-gateway cluster with one slow room being flooded by joins+ops."""
    store, records = build_store(tmp_path, name)
    config = ClusterConfig(
        shards=2,
        gateways=2,
        service_rate=service_rate,
        failure_timeout=2.0,
        admission=admission,
    )
    harness = ClusterHarness(store, config)
    viewers = [harness.add_client(f"ad-{i}") for i in range(clients)]
    clock = harness.clock
    for i, client in enumerate(viewers):
        clock.schedule_at(0.01 * i, lambda c=client: c.join("case-0"))
    events = consultation_events(records["case-0"], num_events=12, seed=7)

    def chatter():
        speaker = viewers[0]
        for i, (path, value) in enumerate(events):
            clock.schedule_at(
                1.0 + 0.05 * i,
                lambda p=path, v=value: (
                    speaker.choose(p, v) if speaker.session_id else None
                ),
            )

    chatter()
    return harness, viewers


class TestOverloadIntegration:
    def test_control_plane_survives_saturation_without_failover(self, tmp_path):
        """Satellite: saturated queues must not fake a death.

        Heartbeats, PROMOTE and ACK ride the control lane past full
        queues: zero control-lane sheds, zero deferrals of control
        kinds, and — the observable stake — no spurious failover.
        """
        harness, viewers = saturated_cluster(
            tmp_path,
            "ctrl",
            admission=AdmissionConfig(depth_defer=1, depth_shed=2, defer_limit=64),
            service_rate=2.0,  # brutally slow: everything queues
        )
        harness.start(until=20.0)
        harness.run()
        totals_control_shed = 0
        for node in list(harness.shards.values()) + list(harness.gateways.values()):
            if node.admission is None:
                continue
            stats = node.admission.stats()
            totals_control_shed += stats["shed_by_lane"].get(LANE_CONTROL, 0)
        assert totals_control_shed == 0
        assert harness.failovers == []
        assert harness.gateway_failovers == []
        # overload really happened — this was not a trivial pass
        assert any(
            s.admission.deferred > 0 or s.admission.shed > 0
            for s in harness.shards.values()
        )

    def test_bounced_joins_rejoin_and_land(self, tmp_path):
        """RETRY_AFTER joins re-enter via the jittered rejoin loop."""
        harness, viewers = saturated_cluster(
            tmp_path,
            "rejoin",
            admission=AdmissionConfig(
                depth_defer=1, depth_shed=4, defer_limit=1, retry_after_s=0.25
            ),
            service_rate=4.0,
        )
        harness.run()
        bounced = [c for c in viewers if c.retry_afters]
        assert bounced, "defer_limit=1 under a join flood must bounce someone"
        assert all(c.session_id is not None for c in viewers), (
            "every bounced client must eventually rejoin"
        )
        assert not any(c.errors for c in viewers)

    def test_deferred_joins_resume_fifo_preserving_arrival_order(self, tmp_path):
        """Satellite: saturation keeps the service queue order FIFO."""
        harness, viewers = saturated_cluster(
            tmp_path,
            "fifo",
            admission=AdmissionConfig(depth_defer=1, depth_shed=64, defer_limit=64),
            service_rate=4.0,
        )
        harness.run()
        # Clients joined in schedule order: their sessions must have been
        # created in the same order even though most joins were deferred.
        joined = sorted(
            (c.join_latency + 0.01 * i, c.viewer_id)
            for i, c in enumerate(viewers)
            if c.join_latency is not None
        )
        assert len(joined) == len(viewers)
        assert [v for _, v in joined] == [c.viewer_id for c in viewers]
        total_deferred = sum(s.admission.deferred for s in harness.shards.values())
        assert total_deferred > 0
        assert all(
            s.admission.parked_count == 0 for s in harness.shards.values()
        )

    def test_departed_client_deferred_join_dropped_with_zero_residue(self, tmp_path):
        """Satellite: a parked JOIN whose client died never materializes."""
        store, _ = build_store(tmp_path, "residue")
        config = ClusterConfig(
            shards=1,
            gateways=1,
            service_rate=2.0,
            admission=AdmissionConfig(depth_defer=1, depth_shed=64, defer_limit=64),
        )
        harness = ClusterHarness(store, config)
        stayer = harness.add_client("stay")
        leaver = harness.add_client("gone")
        clock = harness.clock
        clock.schedule_at(0.0, lambda: stayer.join("case-0"))
        clock.schedule_at(0.01, lambda: leaver.join("case-0"))
        # The leaver vanishes while its JOIN is still parked behind the
        # 2 ops/s queue (the stayer's join alone takes 0.5 s to serve).
        clock.schedule_at(0.1, lambda: harness.network.detach_client(leaver.node_id))
        harness.run()
        shard = next(iter(harness.shards.values()))
        assert shard.admission.dropped_dead == 1
        assert shard.admission.parked_count == 0
        assert leaver.session_id is None
        # zero residue: no session, no room membership for the departed
        viewers_in_rooms = {
            server.session(sid).viewer_id
            for server in shard.serving_servers()
            for sid in server.session_ids
        }
        assert "gone" not in viewers_in_rooms
        assert "stay" in viewers_in_rooms

    def test_shed_data_ops_replay_exactly_once(self, tmp_path):
        """Shed choices come back via the op-log retry and apply once."""
        store, records = build_store(tmp_path, "sheddata")
        config = ClusterConfig(
            shards=1,
            gateways=1,
            service_rate=3.0,
            admission=AdmissionConfig(
                depth_defer=1, depth_shed=2, defer_limit=64, retry_after_s=0.25
            ),
        )
        harness = ClusterHarness(store, config)
        a = harness.add_client("sd-0")
        b = harness.add_client("sd-1")
        a.join("case-0")
        b.join("case-0")
        harness.run()
        events = consultation_events(records["case-0"], num_events=10, seed=3)
        for path, value in events:
            a.choose(path, value)  # a burst far past depth_shed=2
        harness.run()
        shard = next(iter(harness.shards.values()))
        assert shard.admission.shed_by_lane.get(LANE_DATA, 0) > 0
        assert a.retry_afters, "the burst must have bounced something"
        assert not a.errors and not b.errors
        # exactly-once effect: both members display the final scripted
        # state — nothing lost to the shed, nothing double-applied
        assert a.displayed() == b.displayed()
        final = dict(events[-1:])
        for path, value in final.items():
            assert a.displayed()[path] == value


class TestAdmissionOff:
    def test_admission_none_builds_no_controllers(self, tmp_path):
        store, _ = build_store(tmp_path, "off")
        harness = ClusterHarness(store, ClusterConfig(shards=2, gateways=2))
        assert all(s.admission is None for s in harness.shards.values())
        assert all(g.admission is None for g in harness.gateways.values())

    def test_admission_none_is_bit_reproducible(self, tmp_path):
        """The off path stays deterministic — the byte-identity anchor.

        ``admission=None`` constructs no controller, installs no drain
        hook and sends no RETRY_AFTER (verified against the metrics
        registry), so the PR 8 cluster is untouched by construction;
        this pins the observable half: two identical runs, identical
        bytes, and zero admission metrics emitted.
        """
        totals = []
        for run in range(2):
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                store, records = build_store(tmp_path, f"bit-{run}")
                harness = ClusterHarness(store, ClusterConfig(shards=2, gateways=2))
                room = [harness.add_client(f"bit-{j}") for j in range(2)]
                for client in room:
                    client.join("case-0")
                harness.run()
                for path, value in consultation_events(
                    records["case-0"], num_events=6, seed=5
                ):
                    room[0].choose(path, value)
                harness.run()
                snapshot = registry.snapshot()
                assert not any(
                    name.startswith("admission.")
                    for family in ("counters", "gauges")
                    for name in snapshot.get(family, {})
                ), "admission=None must emit no admission metrics"
                assert room[0].retry_afters == []
                totals.append(
                    (
                        harness.network.stats.messages,
                        harness.network.stats.bytes_total,
                        {c.viewer_id: c.displayed() for c in room},
                    )
                )
        assert totals[0] == totals[1]
