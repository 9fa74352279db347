"""Unit and property tests for the canonical binary wire codec (PR 5)."""

import enum
import hashlib
import random
from collections import OrderedDict, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import codec
from repro.net.codec import (
    MAX_DYNAMIC_STRINGS,
    STATIC_STRINGS,
    CodecError,
    StringInterner,
    checksum_of,
    decode_batch,
    decode_envelope,
    decode_message,
    encode_batch,
    encode_envelope,
    encode_message,
    mark_reuse,
    value_size,
)
from repro.cluster.admission import retry_after_body
from repro.cluster.wire import (
    clientbound_wrapper,
    encode_clientbound,
    encode_shardbound,
    shardbound_wrapper,
)
from repro.obs import MetricsRegistry, use_registry
from repro.server.protocol import MessageKind, encoded_size

#: One representative payload per message kind, shaped like the real
#: protocol traffic each kind carries.
KIND_PAYLOADS = {
    MessageKind.JOIN: {"viewer_id": "dr-lee", "doc_id": "record-17"},
    MessageKind.LEAVE: {"session_id": "server:session-1"},
    MessageKind.CHOICE: {
        "session_id": "server:session-1", "component": "imaging.ct_head",
        "value": "segmented", "scope": "shared",
    },
    MessageKind.OPERATION: {
        "session_id": "server:session-1", "component": "imaging.ct_head",
        "operation": "edge_detect", "global": False,
    },
    MessageKind.FREEZE: {"session_id": "s", "component": "imaging.ct_head"},
    MessageKind.RELEASE: {"session_id": "s", "component": "imaging.ct_head"},
    MessageKind.FETCH_PAYLOAD: {
        "session_id": "s", "component": "labs", "value": "full",
    },
    MessageKind.ANNOTATE: {
        "session_id": "s", "component": "labs",
        "annotation": {"text": "look here", "rect": [10, 20, 30, 40]},
    },
    MessageKind.MONITOR: {"viewer_id": "ops"},
    MessageKind.SUBSCRIBE: {
        "session_id": "server:session-1",
        "components": ["imaging.ct_head", "labs"],
        "replace": True,
    },
    MessageKind.UNSUBSCRIBE: {
        "session_id": "server:session-1", "components": ["labs"], "all": False,
    },
    MessageKind.JOIN_ACK: {
        "session_id": "server:session-1", "room_id": "server:room-1",
        "doc_id": "record-17",
        "structure": [
            {"path": "labs", "sizes": {"full": 12288, "hidden": 0}},
        ],
        "outcome": {"labs": "full"},
    },
    MessageKind.PRESENTATION_UPDATE: {
        "doc_id": "record-17", "changes": {"labs": "hidden"}, "seq": 7,
    },
    MessageKind.PEER_EVENT: {
        "viewer": "dr-lee", "kind": "choice",
        "data": {"component": "labs", "value": "hidden"},
    },
    MessageKind.PAYLOAD: {
        "component": "labs", "value": "full", "size": 12288, "media_ref": "T:9",
    },
    MessageKind.BROADCAST: {"event": "speaker_change", "viewer": "dr-wu"},
    MessageKind.ERROR: {"error": "RoomError", "detail": "no such session"},
    MessageKind.MONITOR_ACK: {"session_id": "m-1", "interval": 0.5},
    MessageKind.TELEMETRY: {
        "session_id": "m-1", "at": 12.25,
        "diff": {"counters": {"net.messages": 4}, "gauges": {}, "histograms": {}},
    },
    MessageKind.TELEMETRY_EVENT: {
        "session_id": "m-1", "event": {"name": "room.joined", "severity": "INFO"},
    },
    MessageKind.SUBSCRIBE_ACK: {
        "session_id": "server:session-1", "room_id": "server:room-1",
        "subscribed": ["imaging.ct_head", "labs"],
        "outcome": {"labs": "full"},
    },
    MessageKind.ROUTE: {
        "sender": "client-dr-lee", "kind": "choice",
        "payload": {"session_id": "s", "component": "labs", "value": "full"},
    },
    MessageKind.REPLICATE: {
        "primary": "shard-0",
        "entries": [{"seq": 1, "room_key": "record-17", "op": "join", "data": {}}],
    },
    MessageKind.ACK: {"seq": 3, "replica": "shard-1"},
    MessageKind.HEARTBEAT: {"node": "shard-0", "at": 4.5},
    MessageKind.PROMOTE: {"primary": "shard-0"},
    MessageKind.ROUTE_REPORT: {
        "session_id": "shard-0:session-1", "key": "record-17", "shard": "shard-0",
    },
    MessageKind.ROUTE_LOOKUP: {"session_id": "shard-0:session-1"},
    MessageKind.ROUTE_INFO: {
        "session_id": "shard-0:session-1", "shard": "shard-0", "key": "record-17",
    },
    MessageKind.ROUTE_INVALIDATE: {"shard": "shard-2"},
}


def all_message_kinds() -> list[str]:
    return [
        value
        for name, value in vars(MessageKind).items()
        if isinstance(value, str) and not name.startswith("_")
    ]


class TestRoundtrip:
    @pytest.mark.parametrize("kind", sorted(KIND_PAYLOADS))
    def test_every_kind_payload_shape(self, kind):
        payload = KIND_PAYLOADS[kind]
        frame = encode_message(kind, payload)
        assert decode_message(frame.data) == (kind, payload)

    def test_scalars(self):
        for value in (None, True, False, 0, 7, -1, -300, 1.5, -2.25, 0.0,
                      "", "abc", b"", b"\x00\xff", [], {}, [1, [2, [3]]],
                      {"a": {"b": {"c": None}}}):
            frame = encode_message("error", {"v": value})
            assert decode_message(frame.data) == ("error", {"v": value})

    def test_unicode(self):
        payload = {"detail": "консультація 診断 🏥", "naïve": "café"}
        frame = encode_message(MessageKind.ERROR, payload)
        assert decode_message(frame.data) == (MessageKind.ERROR, payload)

    def test_deeply_nested(self):
        payload: dict = {"changes": {}}
        node = payload["changes"]
        for depth in range(60):
            node[f"level{depth}"] = {"seq": depth, "next": {}}
            node = node[f"level{depth}"]["next"]
        frame = encode_message(MessageKind.PRESENTATION_UPDATE, payload)
        assert decode_message(frame.data) == (
            MessageKind.PRESENTATION_UPDATE, payload
        )

    def test_large_int_and_bytes(self):
        payload = {"size": 2**40, "data": b"\x01" * 5000, "seq": -(2**33)}
        frame = encode_message(MessageKind.PAYLOAD, payload)
        assert decode_message(frame.data) == (MessageKind.PAYLOAD, payload)

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False)
            | st.text(max_size=20)
            | st.binary(max_size=20),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=10), inner, max_size=4),
            max_leaves=25,
        )
    )
    def test_property_roundtrip(self, payload):
        frame = encode_message("error", payload)
        kind, decoded = decode_message(frame.data)
        assert kind == "error"
        # Lists and tuples both encode as lists; everything else must be
        # value-identical after a roundtrip.
        assert decoded == payload
        assert frame.size_bytes == len(frame.data)


class TestStaticTable:
    def test_every_message_kind_is_static(self):
        for kind in all_message_kinds():
            assert kind in STATIC_STRINGS, kind

    def test_append_only_prefix_stable(self):
        # The first entries are the protocol kinds in wire order; moving
        # them would break checked-in benchmark snapshots.
        assert STATIC_STRINGS.index("join") == 0
        assert STATIC_STRINGS.index("net_ack") == 23
        assert STATIC_STRINGS.index("batch") == 24

    def test_interest_kinds_appended_after_pinned_prefix(self):
        # New vocabulary goes at the end, never into the pinned prefix.
        for s in ("subscribe", "unsubscribe", "subscribe_ack"):
            assert STATIC_STRINGS.index(s) > STATIC_STRINGS.index("batch")

    def test_static_strings_are_unique(self):
        assert len(set(STATIC_STRINGS)) == len(STATIC_STRINGS)

    def test_static_reference_is_two_bytes(self):
        # kind + one-key dict with static key and static value.
        frame = encode_message("choice", {"scope": "shared"})
        # tag+id (kind) + tag+count (dict) + tag+id (key) + tag+id (value)
        assert frame.size_bytes == 8


class TestInterning:
    def test_repeated_string_within_payload_compresses(self):
        long = "imaging.ct_head.slice-0042"
        once = value_size({"a": long})
        twice = value_size({"a": long, "b": long})
        # The second occurrence is a reference, far below the literal.
        assert twice - once < len(long) // 2

    def test_cross_frame_compression_with_connection_table(self):
        table = StringInterner()
        session = "server:session-123456"
        first = encode_message("leave", {"session_id": session}, interner=table)
        second = encode_message("leave", {"session_id": session}, interner=table)
        assert second.size_bytes < first.size_bytes
        # A stateless encoder pays the literal every time.
        stateless = encode_message("leave", {"session_id": session})
        assert stateless.size_bytes == first.size_bytes

    def test_decoder_table_stays_in_lockstep(self):
        enc, dec = StringInterner(), StringInterner()
        frames = [
            encode_message("choice", {"session_id": "s-9", "value": f"v{i}"},
                           interner=enc)
            for i in range(5)
        ]
        for i, frame in enumerate(frames):
            assert decode_message(frame.data, interner=dec) == (
                "choice", {"session_id": "s-9", "value": f"v{i}"}
            )

    def test_reset_on_reconnect(self):
        table = StringInterner()
        first = encode_message("leave", {"session_id": "s-abcdef"}, interner=table)
        encode_message("leave", {"session_id": "s-abcdef"}, interner=table)
        table.reset()
        assert len(table) == 0
        # A fresh connection re-pays the literal: byte-identical to the
        # first frame of the previous connection.
        again = encode_message("leave", {"session_id": "s-abcdef"}, interner=table)
        assert again.data == first.data

    def test_table_growth_is_bounded(self):
        table = StringInterner(max_entries=2)
        for s in ("one", "two", "three"):
            table.register(s)
        assert len(table) == 2
        assert table.id_of("three") is None
        # Beyond the bound both ends fall back to literals — still decodable.
        frame = encode_message("error", {"detail": "three"}, interner=table)
        dec = StringInterner(max_entries=2)
        dec.register("one")
        dec.register("two")
        assert decode_message(frame.data, interner=dec) == (
            "error", {"detail": "three"}
        )
        assert MAX_DYNAMIC_STRINGS >= 1024  # production bound stays generous


class TestFrameHonesty:
    def test_size_is_len_of_bytes(self):
        for kind, payload in KIND_PAYLOADS.items():
            frame = encode_message(kind, payload)
            assert frame.size_bytes == len(frame.data)

    def test_checksum_of_matches_frame(self):
        for kind, payload in KIND_PAYLOADS.items():
            frame = encode_message(kind, payload)
            assert checksum_of(kind, payload) == frame.checksum

    def test_payload_identity_preserved(self):
        payload = {"session_id": "s"}
        frame = encode_message("leave", payload)
        assert frame.payload is payload

    def test_value_size_matches_encoding(self):
        for payload in KIND_PAYLOADS.values():
            frame = encode_message("error", payload)  # stateless
            kind_prefix = value_size("error")
            assert value_size(payload) == frame.size_bytes - kind_prefix


def stateless_len(value) -> int:
    """The reference: actually encode *value* against a fresh table."""
    out = bytearray()
    codec._write_value(out, value, StringInterner())
    return len(out)


_sized_texts = st.one_of(
    st.sampled_from(STATIC_STRINGS),
    # a small pool, so the same dynamic string recurs within one value (IREF)
    st.sampled_from(["imaging.ct_head", "labs.ecg", "segmented", "dr-lee", "né-ü"]),
    st.text(max_size=12),  # any code point but lone surrogates
)
_sized_ints = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from(
        [0, 127, 128, 16383, 16384, -1, -128, -129, 2**63, 2**64, -(2**63) - 1]
    ),
)
_sized_buffers = st.binary(max_size=300).flatmap(
    lambda raw: st.sampled_from([raw, bytearray(raw), memoryview(raw)])
)
_sized_keys = st.one_of(_sized_texts, _sized_ints)
_sized_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), _sized_ints, st.floats(), _sized_texts,
        _sized_buffers,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(_sized_keys, children, max_size=6),
    ),
    max_leaves=40,
)
_unencodable = st.sampled_from([{1, 2}, frozenset(), 1j, object, range(3)])

def _outcome(count: int, seed: int) -> dict[str, str]:
    """A presentation outcome's shape: a flat ``str -> str`` mapping of
    many distinct paths onto few distinct values. Up to 300 entries, so
    intern ids cross the one-byte varint; stems of 130 bytes and more, so
    literal lengths do too; non-ASCII paths; a few static-string keys;
    values that are static, repeat, or equal an earlier key (a reference
    to a string a *key* registered)."""
    rng = random.Random(seed)
    stems = ["imaging.ct_head", "labs", "né-ü.scan", "x" * 130, "ü" * 70]
    stems += STATIC_STRINGS[:4]
    pool = ["hidden", "shown", "segmented", "applied", "plain", "né-ü", ""]
    keys: list[str] = []
    outcome: dict[str, str] = {}
    for index in range(count):
        stem = rng.choice(stems)
        key = stem if stem in STATIC_STRINGS and stem not in outcome else f"{stem}.{index}"
        keys.append(key)
        # Recent keys carry the high intern ids of a long outcome.
        recent = keys[-1 - rng.randrange(min(len(keys), 12))]
        outcome[key] = rng.choice(pool + [recent, recent])
    return outcome


_outcomes = st.builds(
    _outcome,
    count=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _buried(bad, wrappers):
    """*bad* nested inside lists/tuples/dicts, with encodable siblings."""
    value = bad
    for wrapper in wrappers:
        if wrapper == "list":
            value = ["labs", value]
        elif wrapper == "tuple":
            value = (7, value, "after")
        else:
            value = {"doc_id": "d", "labs.ecg": value}
    return value


class TestArithmeticSizing:
    """``value_size`` computes what the stateless encoder would emit —
    tag for tag, varint for varint, intern id for intern id — without
    emitting it."""

    @settings(max_examples=300)
    @given(_sized_values)
    def test_matches_stateless_encoding(self, value):
        assert value_size(value) == stateless_len(value)
        assert encoded_size(value) == stateless_len(value)

    @settings(max_examples=100)
    @given(_outcomes)
    def test_whole_outcomes_match_stateless_encoding(self, outcome):
        assert value_size(outcome) == stateless_len(outcome)
        # ...and nested, where the table already holds strings on entry.
        wrapped = {"doc_id": "d", "labs": ["labs.0", outcome], "outcome": outcome}
        assert value_size(wrapped) == stateless_len(wrapped)

    @settings(max_examples=25)
    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(st.integers(min_value=0, max_value=MAX_DYNAMIC_STRINGS + 39), max_size=8),
    )
    def test_dynamic_table_bound(self, overflow, repeats):
        # More distinct strings than the table holds: the first
        # MAX_DYNAMIC_STRINGS become back-references (1- and 2-byte ids),
        # the overflow stays literal however often it recurs.
        distinct = [f"s{i}" for i in range(MAX_DYNAMIC_STRINGS + overflow)]
        value = distinct + [distinct[i % len(distinct)] for i in repeats]
        assert value_size(value) == stateless_len(value)
        as_dict = dict(zip(distinct, reversed(distinct)))
        assert value_size(as_dict) == stateless_len(as_dict)

    def test_multibyte_memoryview_counts_raw_bytes(self):
        import array

        items = array.array("I", [1, 2, 3])
        view = memoryview(items)
        assert value_size(view) == stateless_len(view)
        # The length prefix is the byte count, not the item count, so the
        # frame decodes — to the raw bytes behind the view.
        frame = encode_message("payload", {"data": view})
        assert decode_message(frame.data) == ("payload", {"data": items.tobytes()})

    @given(_unencodable, st.lists(st.sampled_from(["list", "tuple", "dict"]), max_size=4))
    def test_same_error_for_unencodable_values(self, bad, wrappers):
        value = _buried(bad, wrappers)
        with pytest.raises(CodecError) as encoding:
            stateless_len(value)
        with pytest.raises(CodecError) as sizing:
            value_size(value)
        assert str(sizing.value) == str(encoding.value)

    def test_lone_surrogate_raises_what_the_encoder_raises(self):
        with pytest.raises(UnicodeEncodeError):
            stateless_len({"detail": "\ud800"})
        with pytest.raises(UnicodeEncodeError):
            value_size({"detail": "\ud800"})

    def test_sizing_encodes_nothing(self, monkeypatch):
        def no_encoding(*args):
            raise AssertionError("value_size must not encode")

        registry = MetricsRegistry()
        with use_registry(registry):
            monkeypatch.setattr(codec, "_write_value", no_encoding)
            monkeypatch.setattr(codec, "StringInterner", no_encoding)
            for payload in KIND_PAYLOADS.values():
                assert value_size(payload) > 0
                assert encoded_size(payload) == value_size(payload)
        assert registry.snapshot()["counters"] == {}


class _Path(str):
    pass


class _Level(enum.IntEnum):
    LOW = 3
    HIGH = 300


def _golden_frames() -> dict[str, bytes]:
    """Name → encoded bytes of every golden case, built from scratch."""

    def message(kind, payload=None):
        return encode_message(kind, KIND_PAYLOADS[kind] if payload is None else payload).data

    frames = {
        kind: message(kind)
        for kind in (
            MessageKind.JOIN, MessageKind.CHOICE, MessageKind.FETCH_PAYLOAD,
            MessageKind.JOIN_ACK, MessageKind.PRESENTATION_UPDATE, MessageKind.REPLICATE,
        )
    }
    choice = KIND_PAYLOADS[MessageKind.CHOICE]
    frames["retry_after"] = message(
        MessageKind.RETRY_AFTER,
        retry_after_body(MessageKind.CHOICE, {**choice, "op_seq": 9}, 0.75, "shard-0"),
    )
    # Envelopes on a persistent connection table: the second frame's
    # client node id is a back-reference into the first frame's literal.
    to_shard, to_gateway = StringInterner(), StringInterner()
    for index, value in enumerate(("segmented", "raw")):
        payload = {**choice, "value": value}
        inner = encode_message(MessageKind.CHOICE, payload)
        wrapper = shardbound_wrapper("client-dr-lee", MessageKind.CHOICE, payload)
        frames[f"route_shardbound_{index}"] = encode_shardbound(
            wrapper, inner, to_shard
        ).data
        update = {**KIND_PAYLOADS[MessageKind.PRESENTATION_UPDATE], "seq": index}
        inner = encode_message(MessageKind.PRESENTATION_UPDATE, update)
        wrapper = clientbound_wrapper(
            "client-dr-lee", MessageKind.PRESENTATION_UPDATE, update, inner.size_bytes
        )
        frames[f"route_clientbound_{index}"] = encode_clientbound(
            wrapper, inner, to_gateway
        )[0].data
    frames["batch"] = encode_batch(
        [
            encode_message(MessageKind.PEER_EVENT, {"viewer": "dr-lee", "seq": i})
            for i in range(3)
        ],
        [],
    ).data
    # What a type → writer table could get wrong.
    frames["bools_are_not_ints"] = message("error", [True, 1, False, 0, 1.0, None])
    frames["subclasses"] = message(
        "error",
        {
            _Path("labs"): _Path("full"), "factor": _Level.LOW, "size": _Level.HIGH,
            "changes": defaultdict(list, {"labs": [1]}),
            "outcome": OrderedDict([("b", 1), ("a", 2)]),
        },
    )
    frames["int_edges"] = message(
        "error",
        [127, 128, 16383, 16384, -1, -128, -129, 2**63 - 1, 2**63, 2**64, -(2**63) - 1],
    )
    frames["buffers_and_tuples"] = message(
        "payload",
        {"data": b"\x00\xff", "rect": (1, 2.5, bytearray(b"ab"), memoryview(b"cd"))},
    )
    frames["unicode"] = message(
        "error", {"detail": "консультація 診断 🏥", "naïve": "café"}
    )
    frames["list_of_128"] = message("error", list(range(128)))
    frames["dict_of_128"] = message("error", {i: None for i in range(128)})
    distinct = [f"s{i}" for i in range(129)]
    frames["iref_128"] = message(
        "error", distinct + [distinct[127], distinct[128], distinct[0]]
    )
    distinct = [f"s{i}" for i in range(MAX_DYNAMIC_STRINGS + 1)]
    frames["dynamic_table_bound"] = message(
        "error",
        distinct + [distinct[MAX_DYNAMIC_STRINGS - 1], distinct[MAX_DYNAMIC_STRINGS]],
    )
    return frames


#: Recorded at the commit before the writer became table-driven (PR 14's
#: parent). Hex up to 120 bytes, ``sha256:<digest>:<length>`` beyond.
#: A mismatch means the wire changed: that is a protocol break (checked-in
#: benchmark snapshots, the E13 wire guard), never a fixture to refresh.
GOLDEN_WIRE = {
    "join": "07000b02073e060664722d6c6565072006097265636f72642d3137",
    "choice": (
        "07020b04073606107365727665723a73657373696f6e2d31071c060f696d6167696e67"
        "2e63745f68656164073c06097365676d656e7465640733073f"
    ),
    "fetch_payload": "07060b030736060173071c06046c616273073c0743",
    "join_ack": (
        "07090b05073606107365727665723a73657373696f6e2d310731060d7365727665723a"
        "726f6f6d2d31072006097265636f72642d3137073a0a010b02072d06046c6162730739"
        "0b02074303806007420300072c0b0108030743"
    ),
    "presentation_update": (
        "070a0b03072006097265636f72642d3137071b0b0106046c616273074207340307"
    ),
    "replicate": (
        "07130b02072e060773686172642d3007220a010b0407340301073206097265636f7264"
        "2d3137072b0700071d0b00"
    ),
    "retry_after": (
        "07550b06072707020756053fe8000000000000075707590729060773686172642d3007"
        "3606107365727665723a73657373696f6e2d3107510309"
    ),
    "route_shardbound_0": (
        "07120b020735060d636c69656e742d64722d6c6565072707023c07020b040736061073"
        "65727665723a73657373696f6e2d31071c060f696d6167696e672e63745f6865616407"
        "3c06097365676d656e7465640733073f"
    ),
    "route_clientbound_0": (
        "07120b03073b060d636c69656e742d64722d6c65650727070a0738032121070a0b0307"
        "2006097265636f72642d3137071b0b0106046c616273074207340300"
    ),
    "route_shardbound_1": (
        "07120b0207350800072707023607020b04073606107365727665723a73657373696f6e"
        "2d31071c060f696d6167696e672e63745f68656164073c06037261770733073f"
    ),
    "route_clientbound_1": (
        "07120b03073b08000727070a0738032121070a0b03072006097265636f72642d313707"
        "1b0b0106046c616273074207340301"
    ),
    "batch": (
        "07180312070b0b02073d060664722d6c65650734030012070b0b02073d060664722d6c"
        "65650734030112070b0b02073d060664722d6c656507340302"
    ),
    "bools_are_not_ints": "070e0a06010301020300053ff000000000000000",
    "subclasses": (
        "070e0b0506046c616273074307240303073803ac02071b0b0108000a010301072c0b02"
        "06016203010601610302"
    ),
    "int_edges": (
        "070e0a0b037f03800103ff7f038080010400047f04800103ffffffffffffffff7f0380"
        "80808080808080800103808080808080808080020480808080808080808001"
    ),
    "buffers_and_tuples": (
        "070c0b02071d090200ff072f0a0403010540040000000000000902616209026364"
    ),
    "unicode": (
        "070e0b02071e0624d0bad0bed0bdd181d183d0bbd18cd182d0b0d186d196d18f20e8a8"
        "bae696ad20f09f8fa506066e61c3af76650605636166c3a9"
    ),
    "list_of_128": (
        "sha256:b6ee38ff38974f0a7788c4d541afe9c5f8ed757f3d32286ff1c86d56cac170ca:261"
    ),
    "dict_of_128": (
        "sha256:ed43a22a0772ed6ca63642e9fc2e721d0dbc6eeb7c8421e7607ece93f026731a:389"
    ),
    "iref_128": (
        "sha256:bab43ab36354e881718620e5d22d8dfce22f0f2e5153e950180af7c099f0f159:676"
    ),
    "dynamic_table_bound": (
        "sha256:166af34ac3de9a49ace63f524d29387bfc561b2a2873fd2dee25a0b0657f88ca:27584"
    ),
}


class TestGoldenWireBytes:
    """The bytes on the wire are pinned, case by case."""

    @pytest.fixture(scope="class")
    def frames(self):
        return _golden_frames()

    def test_table_covers_every_case(self, frames):
        assert set(frames) == set(GOLDEN_WIRE)

    @pytest.mark.parametrize("name", sorted(GOLDEN_WIRE))
    def test_encoding_is_unchanged(self, frames, name):
        data = frames[name]
        expected = GOLDEN_WIRE[name]
        if expected.startswith("sha256:"):
            assert f"sha256:{hashlib.sha256(data).hexdigest()}:{len(data)}" == expected
        else:
            assert data.hex() == expected

    def test_counts_and_references_grow_a_second_byte_at_128(self, frames):
        # kind (2 bytes), then tag + two-byte varint count.
        assert frames["list_of_128"][2:5] == bytes.fromhex("0a8001")
        assert frames["dict_of_128"][2:5] == bytes.fromhex("0b8001")
        # ... id 127 in one byte, id 128 in two, id 0 still one.
        assert frames["iref_128"].endswith(bytes.fromhex("087f 088001 0800"))

    def test_table_bound_leaves_the_overflow_literal(self, frames):
        # The last string that fit is a (two-byte) reference; the first
        # that did not is spelled out again.
        last_id = bytes.fromhex("08ff1f")  # varint(MAX_DYNAMIC_STRINGS - 1)
        literal = b"\x06\x05s4096"
        assert MAX_DYNAMIC_STRINGS == 4096
        assert frames["dynamic_table_bound"].endswith(last_id + literal)


class TestInterestKinds:
    """The three repro.interest kinds behave like first-class protocol."""

    def test_component_paths_compress_across_churn(self):
        # Subscribe/unsubscribe churn repeats the same component paths;
        # on one connection table the repeats collapse to references.
        enc, dec = StringInterner(), StringInterner()
        paths = ["imaging0.item2", "imaging0.item4"]
        first = encode_message(
            MessageKind.SUBSCRIBE,
            {"session_id": "server:session-9", "components": paths},
            interner=enc,
        )
        second = encode_message(
            MessageKind.UNSUBSCRIBE,
            {"session_id": "server:session-9", "components": paths},
            interner=enc,
        )
        assert second.size_bytes < first.size_bytes
        for frame, kind in ((first, "subscribe"), (second, "unsubscribe")):
            got_kind, payload = decode_message(frame.data, interner=dec)
            assert got_kind == kind
            assert payload["components"] == paths

    def test_ack_roundtrips_catchup_outcome(self):
        payload = {
            "session_id": "s", "room_id": "r",
            "subscribed": ["labs"], "outcome": {"labs": "full", "notes": "text"},
        }
        frame = encode_message(MessageKind.SUBSCRIBE_ACK, payload)
        assert decode_message(frame.data) == (MessageKind.SUBSCRIBE_ACK, payload)

    @pytest.mark.parametrize(
        "kind",
        [MessageKind.SUBSCRIBE, MessageKind.UNSUBSCRIBE, MessageKind.SUBSCRIBE_ACK],
    )
    def test_malformed_frames_raise(self, kind):
        frame = encode_message(kind, KIND_PAYLOADS[kind])
        with pytest.raises(CodecError):
            decode_message(frame.data[:-2])  # truncated
        with pytest.raises(CodecError):
            decode_message(frame.data + b"\x01")  # trailing garbage


class TestEnvelopeAndBatch:
    def test_envelope_roundtrip(self):
        inner = encode_message("choice", {"session_id": "s", "value": "full"})
        header = {"sender": "client-dr-lee", "kind": "choice"}
        env = encode_envelope("route", header, inner, {"wrapper": True})
        kind, got_header, got_inner = decode_envelope(env.data)
        assert kind == "route"
        assert got_header == header
        assert got_inner == ("choice", {"session_id": "s", "value": "full"})

    def test_envelope_embeds_inner_bytes_verbatim(self):
        inner = encode_message("choice", {"session_id": "s-x", "value": "full"})
        env = encode_envelope("route", {"kind": "choice"}, inner, None)
        assert inner.data in env.data

    def test_interned_inner_decodes_with_its_own_table(self):
        enc = StringInterner()
        encode_message("leave", {"session_id": "s-long-id"}, interner=enc)
        inner = encode_message("leave", {"session_id": "s-long-id"}, interner=enc)
        env = encode_envelope("route", {"kind": "leave"}, inner, None)
        dec = StringInterner()
        dec.register("s-long-id")
        _, _, got = decode_envelope(env.data, inner_interner=dec)
        assert got == ("leave", {"session_id": "s-long-id"})

    def test_batch_roundtrip(self):
        frames = [
            encode_message("peer_event", {"viewer": "a", "seq": i})
            for i in range(3)
        ]
        batch = encode_batch(frames, [])
        assert decode_batch(batch.data) == [
            ("peer_event", {"viewer": "a", "seq": i}) for i in range(3)
        ]

    def test_batch_smaller_than_sum_of_frames(self):
        frames = [
            encode_message("peer_event", {"viewer": "dr-lee", "seq": i})
            for i in range(8)
        ]
        batch = encode_batch(frames, [])
        assert batch.size_bytes < sum(f.size_bytes for f in frames) + 16


class TestErrors:
    def test_unencodable_type(self):
        with pytest.raises(CodecError):
            encode_message("error", {"bad": {1, 2, 3}})

    def test_truncated_frame(self):
        frame = encode_message("error", {"detail": "hello truncation"})
        with pytest.raises(CodecError):
            decode_message(frame.data[:-3])

    def test_trailing_bytes(self):
        frame = encode_message("error", {})
        with pytest.raises(CodecError):
            decode_message(frame.data + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(CodecError):
            decode_message(b"\xf3")

    def test_dangling_intern_reference(self):
        table = StringInterner()
        table.register("only-encoder-knows")
        # "detail" is static, so the decoder's dynamic table stays empty
        # and the stale back-reference cannot alias anything.
        frame = encode_message(
            "error", {"detail": "only-encoder-knows"}, interner=table
        )
        with pytest.raises(CodecError):
            decode_message(frame.data)


class TestMetrics:
    def test_encode_and_reuse_accounting(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            frame = encode_message("leave", {"session_id": "s"})
            mark_reuse(frame)  # the first transmission: not a saving
            mark_reuse(frame)  # fan-out/retransmit: one encode saved
            mark_reuse(frame)
        counters = registry.snapshot()["counters"]
        assert counters["codec.encodes"] == 1
        assert counters["codec.bytes_encoded"] == frame.size_bytes
        assert counters["codec.encodes_saved"] == 2
        assert counters["codec.bytes_saved"] == 2 * frame.size_bytes

    def test_envelope_charges_only_header_bytes(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            inner = encode_message("choice", {"value": "full"})
            env = encode_envelope("route", {"kind": "choice"}, inner, None)
            env2 = encode_envelope("route", {"kind": "choice"}, inner, None)
        counters = registry.snapshot()["counters"]
        assert counters["codec.bytes_encoded"] == (
            inner.size_bytes
            + (env.size_bytes - inner.size_bytes)
            + (env2.size_bytes - inner.size_bytes)
        )
        # The first embedding is the inner frame's first use; the second
        # is an encode the per-recipient scheme would have re-paid.
        assert counters["codec.encodes"] == 3
        assert counters["codec.encodes_saved"] == 1
        assert counters["codec.bytes_saved"] == inner.size_bytes
