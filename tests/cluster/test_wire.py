"""The fixed-layout ``ROUTE`` writers are the dict writer, byte for byte.

``encode_clientbound`` and ``encode_shardbound`` write their headers
straight into the bytes, and a client-bound envelope reuses everything
after ``to`` across the copies of one inner frame. The oracle is the
generic :func:`repro.net.codec.encode_envelope` with the header dict
those bytes spell: the same data, wire size, string-table evolution and
``codec.*`` counters, copy after copy, on one channel's table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.wire import ClientBound, ShardBound, encode_clientbound, encode_shardbound
from repro.net.codec import (
    BATCH,
    MAX_DYNAMIC_STRINGS,
    StringInterner,
    encode_envelope,
    encode_message,
)
from repro.obs import MetricsRegistry, use_registry
from repro.server.protocol import MessageKind

COUNTERS = ("codec.encodes", "codec.bytes_encoded", "codec.encodes_saved", "codec.bytes_saved")

#: Text without lone surrogates (the codec refuses those on both paths),
#: non-ASCII included.
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)

#: A routed frame's kind is a protocol word (the gateway refuses any
#: other), so it travels as a static reference.
kinds = st.sampled_from(MessageKind.CLIENT_KINDS + MessageKind.SERVER_KINDS + (BATCH,))

#: Recipient names drawn from a small pool, so names repeat (table
#: back-references) as well as appear for the first time (literals).
#: "to" and "join" are protocol words themselves.
names = st.lists(text | st.sampled_from(("to", "join", "client-dr-lee")), min_size=1, max_size=4)

inners = st.tuples(
    kinds,
    st.dictionaries(st.sampled_from(("seq", "doc_id", "changes", "x")), text | st.integers()),
    st.none() | st.integers(min_value=0, max_value=1 << 20),  # a declared media size
)

#: Per copy: which inner frame, which recipient, which ``size`` field.
copies = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(min_value=0), st.integers(0, 1 << 16)),
    min_size=1, max_size=8,
)


def build(specs):
    frames = []
    for kind, payload, declared in specs:
        frame = encode_message(kind, payload)
        if declared is not None:
            frame.size_bytes = max(declared, len(frame.data))
        frames.append(frame)
    return frames


def channel(full):
    table = StringInterner()
    if full:
        for index in range(MAX_DYNAMIC_STRINGS):
            table.register(f"earlier-{index}")
    return table


def run(specs, pool, plan, full, envelope):
    """Encode *plan*'s copies on one channel; returns what to compare."""
    registry = MetricsRegistry()
    with use_registry(registry):
        frames = build(specs)
        table = channel(full)
        out = []
        for which, who, size in plan:
            frame = envelope(pool[who % len(pool)], frames[which % len(frames)], size, table)
            out.append((frame.data, frame.size_bytes, frame.kind))
    return out, list(table._strings), [registry.counter(c).value for c in COUNTERS]


def clientbound_by_dict(to, inner, size, table):
    header = {"to": to, "kind": inner.kind, "size": size}
    return encode_envelope(MessageKind.ROUTE, header, inner, None, table)


def shardbound_by_dict(sender, inner, size, table):
    header = {"sender": sender, "kind": inner.kind}
    return encode_envelope(MessageKind.ROUTE, header, inner, None, table)


class TestFixedLayoutIsTheDictLayout:
    @settings(max_examples=150, deadline=None)
    @given(specs=st.lists(inners, min_size=1, max_size=3), pool=names, plan=copies,
           full=st.booleans())
    def test_clientbound(self, specs, pool, plan, full):
        fixed = run(specs, pool, plan, full, encode_clientbound)
        assert fixed == run(specs, pool, plan, full, clientbound_by_dict)

    @settings(max_examples=100, deadline=None)
    @given(specs=st.lists(inners, min_size=1, max_size=3), pool=names, plan=copies,
           full=st.booleans())
    def test_shardbound(self, specs, pool, plan, full):
        def fixed_shardbound(sender, inner, size, table):
            return encode_shardbound(sender, inner, table)

        fixed = run(specs, pool, plan, full, fixed_shardbound)
        assert fixed == run(specs, pool, plan, full, shardbound_by_dict)


def test_payloads_are_records_of_the_inner_frame():
    inner = encode_message(MessageKind.PEER_EVENT, {"seq": 1})
    assert encode_clientbound("client-a", inner, 7).payload == ClientBound("client-a", 7, inner)
    assert encode_shardbound("client-a", inner).payload == ShardBound("client-a", inner)


def test_copies_share_what_follows_the_recipient():
    # The second and later copies of one frame differ only in ``to``.
    inner = encode_message(MessageKind.PRESENTATION_UPDATE, {"seq": 3, "changes": {}})
    table = StringInterner()
    first = encode_clientbound("client-a", inner, inner.size_bytes, table)
    second = encode_clientbound("client-b", inner, inner.size_bytes, table)
    tail = inner.tail[1]
    assert first.data.endswith(tail) and second.data.endswith(tail)
    assert first.data[: -len(tail)] != second.data[: -len(tail)]
    # A copy that says another size does not reuse a stale tail.
    other = encode_clientbound("client-a", inner, 0)
    assert other.data == clientbound_by_dict("client-a", inner, 0, StringInterner()).data


def test_a_kind_outside_the_protocol_is_refused():
    inner = encode_message("not-a-kind", {})
    with pytest.raises(KeyError):
        encode_clientbound("client-a", inner, 0)
    with pytest.raises(KeyError):
        encode_shardbound("client-a", inner)
