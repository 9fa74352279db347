"""Trace-context trailer tests: stamping, roundtrips, malformed wires.

The trailer is the only wire-format change delivery tracing makes:
``magic 0xD7, varint count, count x (trace id, span id, hop, sent-at
us)`` appended after the message body. These tests pin that stamping
never re-encodes a body, that every protocol kind roundtrips with its
contexts intact (including BATCH and ROUTE embedding), and that junk or
truncated trailers fail loudly as :class:`CodecError`.
"""

import gc
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.codec import (
    TRACE_TRAILER_MAGIC,
    CodecError,
    Frame,
    StringInterner,
    decode_batch_traced,
    decode_envelope_traced,
    decode_message,
    decode_message_traced,
    encode_batch,
    encode_envelope,
    encode_message,
    encode_trace_trailer,
    stamp_frame,
)
from repro.obs import MetricsRegistry, use_registry
from repro.obs.dtrace import NULL_CONTEXT, TraceContext
from repro.server.protocol import MessageKind

from tests.net.test_codec import KIND_PAYLOADS

CTX = TraceContext(trace_id=7, span_id=3, hop=2, sent_at_us=1_250_000)
CTX2 = TraceContext(trace_id=7, span_id=9, hop=3, sent_at_us=1_300_000)


@pytest.mark.parametrize("kind", sorted(KIND_PAYLOADS))
def test_every_kind_roundtrips_with_trailer(kind):
    frame = encode_message(kind, KIND_PAYLOADS[kind])
    stamped = stamp_frame(frame, (CTX,))
    got_kind, got_payload, contexts = decode_message_traced(stamped.data)
    assert got_kind == kind
    assert got_payload == KIND_PAYLOADS[kind]
    assert contexts == (CTX,)
    # The plain decoder validates and skips the trailer.
    assert decode_message(stamped.data) == (kind, KIND_PAYLOADS[kind])


def test_unstamped_frame_decodes_with_no_contexts():
    frame = encode_message(MessageKind.CHOICE, KIND_PAYLOADS[MessageKind.CHOICE])
    _, _, contexts = decode_message_traced(frame.data)
    assert contexts == ()
    assert frame.trace == ()


def test_stamping_never_reencodes_the_body():
    """Pinned: a stamp is body-bytes reuse plus an incremental checksum."""
    registry = MetricsRegistry()
    with use_registry(registry):
        frame = encode_message(
            MessageKind.PRESENTATION_UPDATE,
            KIND_PAYLOADS[MessageKind.PRESENTATION_UPDATE],
        )
        encodes_before = registry.snapshot()["counters"]["codec.encodes"]
        stamped = stamp_frame(frame, (CTX,))
        counters = registry.snapshot()["counters"]
        assert counters["codec.encodes"] == encodes_before
        assert counters["codec.trace_stamps"] == 1
    trailer = encode_trace_trailer((CTX,))
    assert stamped.data == frame.data + trailer
    assert stamped.payload is frame.payload
    assert stamped.checksum == zlib.crc32(trailer, frame.checksum)
    assert stamped.checksum == zlib.crc32(stamped.data)


def test_stamp_cache_reuses_fanout_variant():
    registry = MetricsRegistry()
    with use_registry(registry):
        frame = encode_message(MessageKind.CHOICE, KIND_PAYLOADS[MessageKind.CHOICE])
        first = stamp_frame(frame, (CTX,))
        again = stamp_frame(frame, (CTX,))
        other = stamp_frame(frame, (CTX2,))
        assert first is again
        assert other is not first
        assert registry.snapshot()["counters"]["codec.trace_stamps"] == 2


def test_stamp_memo_holds_one_variant_however_many_contexts():
    """A long-lived cached frame (a room's payload descriptor) is stamped
    under a new context by every traced send: it must not keep them all."""
    registry = MetricsRegistry()
    with use_registry(registry):
        frame = encode_message(MessageKind.CHOICE, KIND_PAYLOADS[MessageKind.CHOICE])
        for n in range(1, 201):
            stamp_frame(frame, (TraceContext(n, 1, 0, 0),))
        gc.collect()
        variants = [
            obj for obj in gc.get_objects()
            if isinstance(obj, Frame) and obj is not frame and obj.payload is frame.payload
        ]
        assert len(variants) == 1 and variants[0].trace == (TraceContext(200, 1, 0, 0),)
        # One fan-out under one context is still one trailer encode.
        before = registry.snapshot()["counters"]["codec.trace_stamps"]
        fanned = {id(stamp_frame(frame, (CTX,))) for _ in range(32)}
        assert len(fanned) == 1
        assert registry.snapshot()["counters"]["codec.trace_stamps"] == before + 1


def test_restamp_appends_and_last_trailer_wins():
    frame = encode_message(MessageKind.CHOICE, KIND_PAYLOADS[MessageKind.CHOICE])
    twice = stamp_frame(stamp_frame(frame, (CTX,)), (CTX2,))
    _, _, contexts = decode_message_traced(twice.data)
    assert contexts == (CTX2,)
    assert twice.trace == (CTX2,)


def test_junk_trailing_bytes_raise():
    frame = encode_message(MessageKind.CHOICE, KIND_PAYLOADS[MessageKind.CHOICE])
    with pytest.raises(CodecError, match="trailing bytes after message"):
        decode_message(frame.data + b"\x00junk")


def test_truncated_trailer_raises():
    frame = encode_message(MessageKind.CHOICE, KIND_PAYLOADS[MessageKind.CHOICE])
    stamped = stamp_frame(frame, (CTX,))
    for cut in range(len(frame.data) + 1, len(stamped.data)):
        with pytest.raises(CodecError):
            decode_message_traced(stamped.data[:cut])


def test_trailer_magic_alone_is_truncated():
    frame = encode_message(MessageKind.CHOICE, KIND_PAYLOADS[MessageKind.CHOICE])
    with pytest.raises(CodecError):
        decode_message_traced(frame.data + bytes((TRACE_TRAILER_MAGIC,)))


def test_route_envelope_keeps_inner_and_envelope_contexts_apart():
    inner_table = StringInterner()
    inner = stamp_frame(
        encode_message(
            MessageKind.CHOICE, KIND_PAYLOADS[MessageKind.CHOICE], interner=inner_table
        ),
        (CTX,),
    )
    header = {"sender": "client-a", "kind": MessageKind.CHOICE}
    envelope = stamp_frame(
        encode_envelope(MessageKind.ROUTE, header, inner, header, None), (CTX2,)
    )
    kind, got_header, (inner_kind, inner_payload), contexts = decode_envelope_traced(
        envelope.data, inner_interner=StringInterner()
    )
    assert kind == MessageKind.ROUTE
    assert got_header == header
    assert inner_kind == MessageKind.CHOICE
    assert inner_payload == KIND_PAYLOADS[MessageKind.CHOICE]
    # The envelope hop's context, not the embedded frame's.
    assert contexts == (CTX2,)
    # The inner frame's own trailer survived inside the opaque bytes.
    _, _, inner_contexts = decode_message_traced(inner.data)
    assert inner_contexts == (CTX,)


def test_untraced_envelope_around_stamped_inner():
    inner = stamp_frame(
        encode_message(MessageKind.CHOICE, KIND_PAYLOADS[MessageKind.CHOICE]), (CTX,)
    )
    header = {"sender": "client-a", "kind": MessageKind.CHOICE}
    envelope = encode_envelope(MessageKind.ROUTE, header, inner, header, None)
    _, _, inner_msg, contexts = decode_envelope_traced(envelope.data)
    assert contexts == ()
    assert inner_msg == (MessageKind.CHOICE, KIND_PAYLOADS[MessageKind.CHOICE])


def test_batch_carries_one_context_per_member():
    kinds = (
        MessageKind.PRESENTATION_UPDATE,
        MessageKind.PEER_EVENT,
        MessageKind.BROADCAST,
    )
    frames = [encode_message(k, KIND_PAYLOADS[k]) for k in kinds]
    entries = [
        {"kind": f.kind, "payload": f.payload, "size": f.size_bytes} for f in frames
    ]
    contexts = (CTX, NULL_CONTEXT, CTX2)  # middle member untraced
    batch = stamp_frame(encode_batch(frames, entries), contexts)
    got_entries, got_contexts = decode_batch_traced(batch.data)
    assert [k for k, _ in got_entries] == list(kinds)
    assert [p for _, p in got_entries] == [KIND_PAYLOADS[k] for k in kinds]
    assert got_contexts == contexts
    assert got_contexts[1].trace_id == 0  # the untraced placeholder


def test_batch_trailing_junk_raises():
    frames = [
        encode_message(
            MessageKind.PEER_EVENT, KIND_PAYLOADS[MessageKind.PEER_EVENT]
        )
    ]
    batch = encode_batch(frames, [{"kind": frames[0].kind}])
    with pytest.raises(CodecError, match="trailing bytes"):
        decode_batch_traced(batch.data + b"\xff")


contexts_strategy = st.tuples(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=2**50),
).map(lambda t: TraceContext(*t))


@given(
    st.lists(contexts_strategy, min_size=0, max_size=6),
    st.integers(min_value=0, max_value=2**32),
    st.lists(st.sampled_from(("stamp", "envelope")), max_size=6),
)
def test_trailer_roundtrip_sweep(contexts, declared, chain):
    """Any context tuple (varint-range ids, µs timestamps) roundtrips,
    and any chain of stamps and envelopes around a media frame of any
    declared size keeps its declared excess: a frame's wire size is its
    bytes plus exactly what its descriptor stands for."""
    frame = encode_message(MessageKind.CHOICE, KIND_PAYLOADS[MessageKind.CHOICE])
    stamped = stamp_frame(frame, tuple(contexts))
    _, _, got = decode_message_traced(stamped.data)
    assert got == tuple(contexts)
    assert stamped.size_bytes == len(stamped.data)
    media = encode_message(MessageKind.PAYLOAD, {"component": "labs", "size": declared})
    media.size_bytes = max(declared, media.size_bytes)  # as Room.payload_frame does
    excess = media.size_bytes - len(media.data)
    for step in chain:
        if step == "stamp":
            media = stamp_frame(media, tuple(contexts))
        else:
            media = encode_envelope(MessageKind.ROUTE, {"kind": media.kind}, media, None, None)
        assert media.size_bytes - len(media.data) == excess
