"""The ARQ layer: retry, dedup, ordering, corruption, bounded failure."""

from collections import Counter

import pytest

from repro import obs
from repro.chaos import CORRUPT, ChaosNetwork, FaultPlan
from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.errors import DeliveryFailed
from repro.net import Link, Message, NET_ACK, SimulatedNetwork
from repro.net.reliable import MAX_ATTEMPTS
from repro.net import reliable
from repro.net.codec import checksum_of
from repro.net.link import MBPS
from repro.server import InteractionServer
from tests.net.frames import frame_of


@pytest.fixture(autouse=True)
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


class Recorder:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []
        self.failures = []

    def receive(self, message):
        self.received.append(message)

    def on_delivery_failed(self, error):
        self.failures.append(error)


class LossyNetwork(SimulatedNetwork):
    """Drop / mangle scripted transmissions (by transmission index)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.drop_next = set()
        self.corrupt_next = set()
        self.mangled = {"mangled": True}
        self.sent = 0

    def _transmit(self, message):
        index = self.sent
        self.sent += 1
        if index in self.drop_next:
            return
        if index in self.corrupt_next:
            message = message._replace(payload=self.mangled)
        super()._transmit(message)


def rig(network_cls=SimulatedNetwork, **kwargs):
    network = network_cls(reliability=True, **kwargs)
    hub = Recorder("server")
    client = Recorder("c1")
    network.attach_hub(hub)
    network.attach_client(client, uplink=Link(), downlink=Link())
    return network, hub, client


class TestHappyPath:
    def test_frames_carry_seq_and_checksum(self):
        network, hub, _ = rig()
        message = network.send("c1", "server", frame_of("choice", {"v": 1}, size_bytes=10))
        assert message.seq == 1 and message.checksum is not None
        network.run()
        assert [m.kind for m in hub.received] == ["choice"]

    def test_acks_are_consumed_by_the_transport(self):
        network, hub, client = rig()
        network.send("c1", "server", frame_of("choice", {"v": 1}, size_bytes=10))
        network.run()
        # The client never sees the ack as an application message.
        assert all(m.kind != NET_ACK for m in client.received)
        assert network.reliability.in_flight == 0

    def test_seq_is_per_directed_pair(self):
        network, _, _ = rig()
        a = network.send("c1", "server", frame_of("choice", {}, size_bytes=1))
        b = network.send("server", "c1", frame_of("payload", {}, size_bytes=1))
        c = network.send("c1", "server", frame_of("choice", {}, size_bytes=1))
        assert (a.seq, b.seq, c.seq) == (1, 1, 2)

    def test_unreliable_kinds_skip_sequencing_but_keep_checksums(self):
        network, _, _ = rig()
        frame = frame_of("heartbeat", {"n": "c1"}, size_bytes=8)
        message = network.send("c1", "server", frame)
        assert message.seq is None
        assert message.checksum == frame.checksum
        network.run()
        assert network.reliability.in_flight == 0


class TestRetry:
    def test_dropped_frame_is_retransmitted(self, fresh_obs):
        registry, _ = fresh_obs
        network, hub, _ = rig(LossyNetwork)
        network.drop_next = {0}  # first transmission lost
        network.send("c1", "server", frame_of("choice", {"v": 1}, size_bytes=10))
        network.run()
        assert [m.payload for m in hub.received] == [{"v": 1}]
        assert hub.received[0].attempt == 1  # the retry delivered it
        counters = registry.snapshot()["counters"]
        assert counters['net.retries{kind="choice"}'] == 1

    def test_retransmission_performs_zero_new_encodes(self, fresh_obs):
        """A retry reuses the cached frame: encode count frozen, reuse
        counters advance (the encode-once contract, PR 5)."""
        from repro.net.codec import encode_message

        registry, _ = fresh_obs
        network, hub, _ = rig(LossyNetwork)
        network.drop_next = {1}  # the ack is lost; the frame retransmits
        payload = {"session_id": "s", "value": "full"}
        frame = encode_message("choice", payload)
        before = registry.snapshot()["counters"]["codec.encodes"]
        network.send("c1", "server", frame)
        network.run()
        assert [m.payload for m in hub.received] == [payload]  # dup dropped
        assert hub.received[0].frame is frame
        counters = registry.snapshot()["counters"]
        assert counters['net.retries{kind="choice"}'] == 1
        # Two wire transmissions of the frame, zero encodes after it was
        # built — the retransmission reused the cached bytes.
        assert counters["codec.encodes"] == before
        assert counters["codec.encodes_saved"] == 1
        assert counters["codec.bytes_saved"] == frame.size_bytes

    def test_lost_ack_causes_dup_which_is_dropped(self, fresh_obs):
        registry, _ = fresh_obs
        network, hub, _ = rig(LossyNetwork)
        network.drop_next = {1}  # the ack of the first frame
        network.send("c1", "server", frame_of("choice", {"v": 1}, size_bytes=10))
        network.run()
        # Delivered once to the application despite the retransmission.
        assert [m.payload for m in hub.received] == [{"v": 1}]
        counters = registry.snapshot()["counters"]
        assert counters['net.dup_dropped{kind="choice"}'] == 1
        assert network.reliability.in_flight == 0

    def test_total_loss_surfaces_delivery_failed_within_budget(self):
        network = LossyNetwork(reliability=True)
        hub, client = Recorder("server"), Recorder("c1")
        network.attach_hub(hub)
        network.attach_client(client)
        network.drop_next = set(range(10_000))  # 100% loss, forever
        network.send("c1", "server", frame_of("choice", {"v": 1}, size_bytes=10))
        events = network.run()
        # Terminates (no livelock) and surfaces the typed error both ways.
        assert events > 0
        assert len(network.delivery_failures) == 1
        failure = network.delivery_failures[0]
        assert isinstance(failure, DeliveryFailed)
        assert failure.reason == "retry_budget_exhausted"
        assert failure.attempts == MAX_ATTEMPTS
        assert client.failures == [failure]
        assert hub.received == []

    def test_abandoned_frame_does_not_wedge_its_stream(self):
        # Every transmission of frame 1 is held up; frame 2 gets through
        # first and is held back behind it. Once the sender gives up on
        # frame 1, the receiver stops waiting: frame 2 and everything
        # after it is delivered, in order, and a late copy of frame 1 is
        # a duplicate.
        class HoldFirstFrame(SimulatedNetwork):
            held = []

            def _transmit(self, message):
                if message.seq == 1 and message.kind == "choice":
                    self.held.append(message)
                    return
                super()._transmit(message)

        network, hub, client = rig(HoldFirstFrame)
        network.send("c1", "server", frame_of("choice", {"n": 1}, size_bytes=5))
        network.send("c1", "server", frame_of("choice", {"n": 2}, size_bytes=5))
        network.run()
        assert [f.seq for f in client.failures] == [1]
        network.send("c1", "server", frame_of("choice", {"n": 3}, size_bytes=5))
        SimulatedNetwork._transmit(network, network.held[0])
        network.run()
        assert [m.payload["n"] for m in hub.received] == [2, 3]

    def test_recipient_detach_fails_fast_not_forever(self):
        network, hub, client = rig()
        network.send("server", "c1", frame_of("payload", {}, size_bytes=10))
        network.detach_client("c1")  # departs with the frame in flight
        network.run()
        assert [f.reason for f in network.delivery_failures] == ["recipient_detached"]
        assert client.received == []


class TestOrderingAndCorruption:
    def test_reordered_frames_are_held_back_and_delivered_in_order(self):
        class Swapper(SimulatedNetwork):
            """Deliver the second transmission before the first."""

            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.delay_first = True

            def _transmit(self, message):
                if self.delay_first and message.kind == "choice":
                    self.delay_first = False
                    self.clock.schedule(
                        0.5, lambda: SimulatedNetwork._transmit(self, message)
                    )
                    return
                super()._transmit(message)

        network = Swapper(reliability=True)
        hub, client = Recorder("server"), Recorder("c1")
        network.attach_hub(hub)
        network.attach_client(client)
        network.send("c1", "server", frame_of("choice", {"n": 1}, size_bytes=5))
        network.send("c1", "server", frame_of("choice", {"n": 2}, size_bytes=5))
        network.run()
        assert [m.payload["n"] for m in hub.received] == [1, 2]
        assert [m.seq for m in hub.received] == [1, 2]

    def test_corrupt_frame_is_quarantined_and_repaired(self, fresh_obs):
        registry, _ = fresh_obs
        network, hub, _ = rig(LossyNetwork)
        network.corrupt_next = {0}
        network.send("c1", "server", frame_of("choice", {"v": "good"}, size_bytes=10))
        network.run()
        # The mangled frame never reached the application; the retry did.
        assert [m.payload for m in hub.received] == [{"v": "good"}]
        counters = registry.snapshot()["counters"]
        assert counters["net.corrupt_dropped"] == 1

    def test_without_reliability_corruption_goes_undetected(self):
        network = LossyNetwork()  # no reliability layer
        hub, client = Recorder("server"), Recorder("c1")
        network.attach_hub(hub)
        network.attach_client(client)
        network.corrupt_next = {0}
        network.send("c1", "server", frame_of("choice", {"v": "good"}, size_bytes=10))
        network.run()
        assert [m.payload for m in hub.received] == [{"mangled": True}]


def _counters(registry):
    return registry.snapshot()["counters"]


class TestAcks:
    """An ack is ``{"seq": <int>}`` under that body's checksum, nothing else."""

    def _assert_repaired_exactly_once(self, registry, network, hub):
        counters = _counters(registry)
        assert counters["net.corrupt_dropped"] == 1
        assert counters['net.retries{kind="choice"}'] == 1
        assert counters['net.dup_dropped{kind="choice"}'] == 1
        assert [m.payload for m in hub.received] == [{"v": 1}]
        assert network.reliability.in_flight == 0

    def test_chaos_corrupted_ack_is_refused_and_the_frame_repaired(self, fresh_obs):
        registry, _ = fresh_obs
        plan = FaultPlan()
        fired = []

        def corrupt_first_ack(kind):
            if kind == NET_ACK and not fired:
                fired.append(kind)
                return (CORRUPT, 0.0)
            return None

        plan.decide = corrupt_first_ack
        network, hub, _ = rig(ChaosNetwork, plan=plan)
        network.send("c1", "server", frame_of("choice", {"v": 1}, size_bytes=10))
        network.run()
        assert fired == [NET_ACK]
        self._assert_repaired_exactly_once(registry, network, hub)

    @pytest.mark.parametrize("body", [{"seq": 1, "x": 1}, {"seq": True}, None, {"seq": 2}])
    def test_wrong_body_under_the_stamped_checksum_is_refused(self, fresh_obs, body):
        registry, _ = fresh_obs
        network, hub, _ = rig(LossyNetwork)
        network.mangled = body
        network.corrupt_next = {1}  # the ack keeps the checksum of {"seq": 1}
        network.send("c1", "server", frame_of("choice", {"v": 1}, size_bytes=10))
        network.run()
        self._assert_repaired_exactly_once(registry, network, hub)

    def test_hand_built_ack_is_accepted_as_a_recompute_would(self, fresh_obs):
        registry, _ = fresh_obs
        network, hub, _ = rig(LossyNetwork)
        network.drop_next = {1}  # the transport's own ack is lost
        network.send("c1", "server", frame_of("choice", {"v": 1}, size_bytes=10))

        def ack(seq, checksum):
            hand_built = Message("server", "c1", NET_ACK, {"seq": seq}, 16, checksum=checksum)
            SimulatedNetwork._transmit(network, hand_built)  # past the scripted losses

        # A seq nobody ever acked: right checksum, nothing outstanding.
        ack(999, checksum_of(NET_ACK, {"seq": 999}))
        network.clock.run_until(0.05)
        assert network.reliability.in_flight == 1
        assert _counters(registry)["net.corrupt_dropped"] == 0
        # The same seq under another body's checksum is not an ack.
        ack(999, checksum_of(NET_ACK, {"seq": 1}))
        # An equal body built elsewhere acks the frame before it times out.
        ack(1, checksum_of(NET_ACK, {"seq": 1}))
        network.run()
        counters = _counters(registry)
        assert counters["net.corrupt_dropped"] == 1
        assert counters["net.acks"] == 1
        assert counters.get('net.retries{kind="choice"}', 0) == 0
        assert [m.payload for m in hub.received] == [{"v": 1}]
        assert network.reliability.in_flight == 0

    def test_stream_longer_than_the_memo_still_verifies_every_ack(self, fresh_obs):
        registry, _ = fresh_obs
        bound = reliable._ack_checksum.cache_info().maxsize
        frames = bound + 40
        network, hub, _ = rig()
        for n in range(frames):
            network.send("c1", "server", frame_of("choice", {"n": n}, size_bytes=10))
        network.run()
        assert [m.payload["n"] for m in hub.received] == list(range(frames))
        counters = _counters(registry)
        assert counters["net.acks"] == frames
        assert counters["net.corrupt_dropped"] == 0
        assert not any(v for k, v in counters.items() if k.startswith("net.retries"))
        assert reliable._ack_checksum.cache_info().currsize <= bound


class TestCarryingCost:
    """Exact counts (named in ISSUE 18) of what one conference allocates
    and encodes: they repeat, so a regression shows as a number."""

    def test_one_message_per_send_one_encode_per_ack_seq_one_record_per_stream(
        self, fresh_obs, tmp_path, monkeypatch
    ):
        registry, _ = fresh_obs
        built = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            Message, "__new__", staticmethod(counting("new", Message.__new__))
        )
        monkeypatch.setattr(Message, "_replace", counting("copy", Message._replace))
        for owner, name in (
            (SimulatedNetwork, "send"),
            (reliable.ReliableTransport, "prepare"),
            (reliable.ReliableTransport, "_send_ack"),
        ):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))

        ack_encodes = Counter()
        encode_ack = reliable.checksum_of
        reliable._ack_checksum.cache_clear()  # the memo is the process's, not the test's

        def counting_checksum(kind, payload):
            if kind == NET_ACK:
                ack_encodes[payload["seq"]] += 1
            return encode_ack(kind, payload)

        monkeypatch.setattr(reliable, "checksum_of", counting_checksum)

        class CountedStream(reliable._Stream):
            __slots__ = ()

            def __init__(self):
                built["stream"] += 1
                super().__init__()

        monkeypatch.setattr(reliable, "_Stream", CountedStream)

        db = Database(str(tmp_path / "db"))
        try:
            store = MultimediaObjectStore(db)
            store.store_document(build_sample_medical_record())
            plan = FaultPlan(
                seed=3, drop_rate=0.1, dup_rate=0.05, corrupt_rate=0.05, reorder_rate=0.05
            )
            network = ChaosNetwork(reliability=True, plan=plan)
            InteractionServer(store, network=network, batch_window_s=0.01)
            clients = [ClientModule(f"v{i}", network=network) for i in range(3)]
            for client in clients:
                network.attach_client(client)
                client.join("record-17")
            network.run()
            for client, value in zip(clients, ("segmented", "flat", "icon")):
                client.choose("imaging.ct_head", value)
            network.run()
            assert not any(client.errors for client in clients)
        finally:
            db.close()

        counters = _counters(registry)
        retries = sum(v for k, v in counters.items() if k.startswith("net.retries"))
        corrupted = network.injected_counts().get(CORRUPT, 0)
        assert retries and corrupted and counters["net.batch_unpacked"]
        assert built["prepare"] == built["send"]
        assert built["new"] == (
            built["send"] + built["_send_ack"] + counters["net.batch_unpacked"]
        )
        assert built["copy"] == retries + corrupted
        assert ack_encodes and set(ack_encodes.values()) == {1}
        assert built["stream"] == len(network.reliability._streams)


class TestRttAwareTimeouts:
    def test_slow_transfer_does_not_trigger_spurious_retry(self, fresh_obs):
        registry, _ = fresh_obs
        # 4 MB over 10 Mbps ≈ 3.2 s — far beyond the 0.2 s base timeout.
        network = SimulatedNetwork(reliability=True)
        hub, client = Recorder("server"), Recorder("c1")
        network.attach_hub(hub)
        network.attach_client(client, downlink=Link(bandwidth_bps=10 * MBPS))
        network.send("server", "c1", frame_of("payload", {"k": 1}, size_bytes=4_000_000))
        network.run()
        assert [m.payload for m in client.received] == [{"k": 1}]
        counters = registry.snapshot()["counters"]
        assert counters.get('net.retries{kind="payload"}', 0) == 0


    def test_vanished_endpoint_has_no_route_to_estimate(self):
        network, _, _ = rig()
        message = network.send("server", "c1", frame_of("update", {"k": 1}, size_bytes=1000))
        assert network.reliability._estimate_rtt(message) > 0.0
        # Detaching drops the resolved route with the node: the estimate
        # falls back to zero and the timeout path handles the rest.
        network.detach_client("c1")
        assert network.reliability._estimate_rtt(message) == 0.0


class TestDetachPeerLinks:
    def test_detach_removes_stale_backbone_peer_links(self):
        network = SimulatedNetwork()
        network.attach_hub(Recorder("hub"))
        a, b = Recorder("s1"), Recorder("s2")
        network.attach_backbone(a)
        network.attach_backbone(b)
        custom = Link(bandwidth_bps=1 * MBPS)
        network.set_peer_link("s1", "s2", custom)
        assert network._resolve_link("s1", "s2") is custom
        network.detach_client("s1")
        assert all("s1" not in pair for pair in network._peer_links)
        # Reattaching a node with the same id starts from clean links.
        network.attach_backbone(Recorder("s1"))
        assert network._resolve_link("s1", "s2") is not custom
