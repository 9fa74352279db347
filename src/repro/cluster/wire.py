"""Framing for gateway↔shard ``ROUTE`` envelopes.

A routed message embeds the *already-encoded* inner frame as opaque
bytes — the gateway and shards never re-serialize what a client or
server has encoded once. The envelope's wire size is its own bytes plus
the inner frame's declared excess, which for ``PAYLOAD`` messages is
positive (media bytes are charged at presentation size, exactly as on
the client links); the codec carries it, so nothing here sizes a
message by hand.

Both envelopes are fixed-layout: a header dict on the wire
(``{"to", "kind", "size"}`` client-bound, ``{"sender", "kind"}``
shard-bound), written straight into the bytes by
:func:`repro.net.codec.encode_keyed_envelope` with no dict built. The
network carries a small record as the envelope's payload,
:class:`ClientBound` or :class:`ShardBound`, whose ``frame`` is the
inner :class:`~repro.net.codec.Frame` (its ``kind`` and ``payload`` are
the routed message's). A server fans one frame out to every member, so
everything after ``to`` — kind, size and the embedded frame — is built
once per inner frame and kept on it (``Frame.tail``); each further copy
writes only its recipient.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.net.codec import (
    Frame,
    StringInterner,
    encode_keyed_envelope,
    envelope_tail,
    fixed_header,
)
from repro.server.protocol import MessageKind

_CLIENTBOUND_HEAD = fixed_header(MessageKind.ROUTE, ("to", "kind", "size"))
_SHARDBOUND_HEAD = fixed_header(MessageKind.ROUTE, ("sender", "kind"))


class ClientBound(NamedTuple):
    """A shard→gateway ``ROUTE``'s payload: the client it goes to, its
    header's ``size`` field, and the server's frame for that client."""

    to: str
    size: int
    frame: Frame


class ShardBound(NamedTuple):
    """A gateway→shard ``ROUTE``'s payload: the client that sent the
    frame, and the frame."""

    sender: str
    frame: Frame


def encode_shardbound(
    sender: str, inner: Frame, interner: StringInterner | None = None
) -> Frame:
    """Frame a gateway→shard envelope around the client's *inner* frame."""
    # ShardBound(sender, inner), without the Python-level __new__ call.
    payload = tuple.__new__(ShardBound, (sender, inner))
    tail = envelope_tail(inner, "kind", inner.kind)
    return encode_keyed_envelope(
        MessageKind.ROUTE, _SHARDBOUND_HEAD, sender, tail, inner, payload, interner
    )


def encode_clientbound(
    to: str, inner: Frame, size: int, interner: StringInterner | None = None
) -> Frame:
    """Frame a shard→gateway envelope around one server response.

    *size* is the header's ``size`` field. The gateway forwards *inner*
    to the client link untouched.
    """
    # ClientBound(to, size, inner), without the Python-level __new__ call.
    payload = tuple.__new__(ClientBound, (to, size, inner))
    kept = inner.tail
    if kept is None or kept[0] != size:
        kept = inner.tail = (size, envelope_tail(inner, "kind", inner.kind, "size", size))
    return encode_keyed_envelope(
        MessageKind.ROUTE, _CLIENTBOUND_HEAD, to, kept[1], inner, payload, interner
    )
