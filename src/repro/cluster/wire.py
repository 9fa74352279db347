"""Framing for gateway↔shard ``ROUTE`` envelopes.

A routed message embeds the *already-encoded* inner frame as opaque
bytes (:func:`repro.net.codec.encode_envelope`) — the gateway and shards
never re-serialize what a client or server has encoded once. The
envelope's wire size is its own bytes plus the inner frame's declared
excess, which for ``PAYLOAD`` messages is positive (media bytes are
charged at presentation size, exactly as on the client links); the
codec carries it, so nothing here sizes a message by hand.
"""

from __future__ import annotations

from repro.net.codec import Frame, StringInterner, encode_envelope
from repro.server.protocol import MessageKind


def encode_shardbound(
    sender: str, inner: Frame, interner: StringInterner | None = None
) -> Frame:
    """Frame a gateway→shard envelope around the client's *inner* frame.

    The envelope's payload is the wrapper dict ``{"sender", "kind",
    "payload"}`` the shard serves.
    """
    wrapper = {"sender": sender, "kind": inner.kind, "payload": inner.payload}
    header = {"sender": sender, "kind": inner.kind}
    return encode_envelope(MessageKind.ROUTE, header, inner, wrapper, interner)


def encode_clientbound(
    to: str, inner: Frame, size: int, interner: StringInterner | None = None
) -> Frame:
    """Frame a shard→gateway envelope around one server response.

    *size* is the header's ``size`` field. The envelope's payload is the
    wrapper dict ``{"to", "kind", "size", "payload", "frame"}``: the
    gateway forwards the same inner frame to the client link untouched.
    """
    wrapper = {
        "to": to, "kind": inner.kind, "size": size, "payload": inner.payload,
        "frame": inner,
    }
    header = {"to": to, "kind": inner.kind, "size": size}
    return encode_envelope(MessageKind.ROUTE, header, inner, wrapper, interner)
