"""Unit tests for protocol wire-size accounting and sessions."""


from repro.client import client as client_module
from repro.cluster import replication
from repro.cluster.admission import LANE_CONTROL, LANE_DATA, LANE_JOIN, lane_of
from repro.net.codec import STATIC_STRINGS
from repro.server import InteractionServer, MessageKind, Session, encoded_size
from repro.server.protocol import PROTOCOL


class TestEncodedSize:
    def test_scalars(self):
        assert encoded_size(5) == 2  # tag + varint
        assert encoded_size(True) == 1  # single tag byte
        assert encoded_size(None) == 1  # single tag byte
        assert encoded_size("abc") == 5  # tag + varint length + utf-8

    def test_bytes_charged_raw_plus_framing(self):
        # Raw bytes cross the wire untouched: tag + varint(1000) + body.
        assert encoded_size(b"\x00" * 1000) == 1003

    def test_structures(self):
        flat = {"a": 1, "b": 2}
        assert encoded_size(flat) > encoded_size({"a": 1})
        assert encoded_size([1, 2, 3]) > encoded_size([1])

    def test_nested_bytes_dominate(self):
        payload = {"media_ref": "T:1", "data": b"\x01" * 10_000}
        assert encoded_size(payload) > 10_000

    def test_monotone_in_entries(self):
        small = {"changes": {"a": "x"}}
        large = {"changes": {f"c{i}": "value" for i in range(50)}}
        assert encoded_size(large) > 10 * encoded_size(small)

    def test_empty_containers(self):
        assert encoded_size({}) == 2
        assert encoded_size([]) == 2


class TestMessageKinds:
    def test_disjoint_directions(self):
        assert not set(MessageKind.CLIENT_KINDS) & set(MessageKind.SERVER_KINDS)

    def test_all_kinds_distinct(self):
        kinds = (
            MessageKind.CLIENT_KINDS
            + MessageKind.SERVER_KINDS
            + MessageKind.CLUSTER_KINDS
            + MessageKind.GATEWAY_KINDS
        )
        assert len(set(kinds)) == len(kinds)

    def test_cluster_kinds_are_backbone_only(self):
        # Cluster traffic never masquerades as client or server protocol.
        cluster = set(MessageKind.CLUSTER_KINDS)
        assert not cluster & set(MessageKind.CLIENT_KINDS)
        assert not cluster & set(MessageKind.SERVER_KINDS)
        assert {
            MessageKind.ROUTE,
            MessageKind.REPLICATE,
            MessageKind.ACK,
            MessageKind.HEARTBEAT,
            MessageKind.PROMOTE,
        } == cluster

    def test_gateway_kinds_are_control_plane_only(self):
        # Route-cache control traffic stays off every other vocabulary.
        gateway = set(MessageKind.GATEWAY_KINDS)
        assert not gateway & set(MessageKind.CLIENT_KINDS)
        assert not gateway & set(MessageKind.SERVER_KINDS)
        assert not gateway & set(MessageKind.CLUSTER_KINDS)
        assert {
            MessageKind.ROUTE_REPORT,
            MessageKind.ROUTE_LOOKUP,
            MessageKind.ROUTE_INFO,
            MessageKind.ROUTE_INVALIDATE,
        } == gateway


class TestProtocolTable:
    """Everything that used to keep its own list of kinds now reads the
    rows. The literals below are what each list held, written out, at
    the commit before the table existed."""

    def test_client_kinds(self):
        assert MessageKind.CLIENT_KINDS == (
            "join", "leave", "choice", "operation", "freeze", "release",
            "fetch_payload", "annotate", "monitor", "subscribe", "unsubscribe",
        )

    def test_client_replay_log_kinds(self):
        assert client_module._PARKED_KINDS == frozenset({
            "leave", "choice", "operation", "annotate", "freeze", "release",
            "subscribe", "unsubscribe",
        })

    def test_traced_kinds(self):
        assert client_module._TRACED_KINDS == frozenset(
            {"choice", "operation", "annotate", "freeze", "release"}
        )

    def test_admission_lanes(self):
        every_kind = (
            MessageKind.CLIENT_KINDS + MessageKind.SERVER_KINDS
            + MessageKind.CLUSTER_KINDS + MessageKind.GATEWAY_KINDS
        )
        lanes = {lane: {k for k in every_kind if lane_of(k) == lane}
                 for lane in (LANE_JOIN, LANE_DATA, LANE_CONTROL)}
        assert lanes[LANE_JOIN] == {"join"}
        assert lanes[LANE_DATA] == {
            "choice", "operation", "annotate", "freeze", "release",
            "fetch_payload", "subscribe", "unsubscribe",
        }
        assert lanes[LANE_CONTROL] == set(every_kind) - lanes[LANE_JOIN] - lanes[LANE_DATA]

    def test_replicated_ops(self):
        assert replication.REPLICATED_OPS == {
            "join": "join", "leave": "leave", "choice": "choice",
            "operation": "operation", "annotate": "annotation",
            "freeze": "freeze", "release": "release",
            "subscribe": "subscribe", "unsubscribe": "unsubscribe",
        }
        assert replication._KIND_OF_OP == {
            op: kind for kind, op in replication.REPLICATED_OPS.items()
        }
        assert len(replication._KIND_OF_OP) == len(replication.REPLICATED_OPS)

    def test_every_name_on_the_wire_is_a_static_string(self):
        # A row's kind and field names cross the wire on every message:
        # outside the static table each would cost a literal per frame.
        for row in PROTOCOL.values():
            for name in (row.kind, *row.required, *row.optional):
                assert name in STATIC_STRINGS, (row.kind, name)
            if row.op is not None:
                assert row.op in STATIC_STRINGS, (row.kind, row.op)

    def test_every_handler_resolves_on_the_server(self):
        for row in PROTOCOL.values():
            assert callable(getattr(InteractionServer, row.handler)), row.kind


class TestSession:
    def test_spec_tracking(self):
        session = Session("s1", "lee", "node-1")
        assert not session.in_room
        session.remember_spec("doc", {"a": "x"})
        assert session.known_spec("doc") == {"a": "x"}
        session.forget_spec("doc")
        assert session.known_spec("doc") is None

    def test_remember_copies(self):
        session = Session("s1", "lee", "node-1")
        outcome = {"a": "x"}
        session.remember_spec("doc", outcome)
        outcome["a"] = "mutated"
        assert session.known_spec("doc") == {"a": "x"}
