"""Unit and property tests for the canonical binary wire codec (PR 5)."""

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

        view = memoryview(array.array("i", [1, 2, 3]))
        assert value_size(view) == stateless_len(view)

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
