"""Honest wire sizing and framing for gateway↔shard ``ROUTE`` envelopes.

A routed message embeds the *already-encoded* inner frame as opaque
bytes (:func:`repro.net.codec.encode_envelope`) — the gateway and shards
never re-serialize what a client or server has encoded once. The
envelope is charged its own header plus the *declared* size of the inner
message, which for ``PAYLOAD`` messages exceeds the encoding (media
bytes are charged at presentation size, exactly as on the client links).
Nothing crosses a backbone link at a made-up size.
"""

from __future__ import annotations

from typing import Any

from repro.net.codec import Frame, StringInterner, encode_envelope, encode_message
from repro.server.protocol import MessageKind


def shardbound_wrapper(sender: str, kind: str, payload: Any) -> dict[str, Any]:
    """Gateway→shard envelope around one client message."""
    return {"sender": sender, "kind": kind, "payload": payload}


def encode_shardbound(
    wrapper: dict[str, Any],
    inner: Frame | None = None,
    interner: StringInterner | None = None,
) -> Frame:
    """Frame a gateway→shard envelope, reusing the client's *inner* frame.

    Without one (a route retry re-entering outside the receive path) the
    inner message is encoded here — once, and the resulting envelope
    frame is itself cached for any further retries.
    """
    if inner is None:
        inner = encode_message(wrapper["kind"], wrapper["payload"])
    header = {"sender": wrapper["sender"], "kind": wrapper["kind"]}
    return encode_envelope(MessageKind.ROUTE, header, inner, wrapper, interner)


def clientbound_wrapper(to: str, kind: str, payload: Any, size: int) -> dict[str, Any]:
    """Shard→gateway envelope around one server response."""
    return {"to": to, "kind": kind, "size": size, "payload": payload}


def encode_clientbound(
    wrapper: dict[str, Any],
    inner: Frame,
    interner: StringInterner | None = None,
) -> tuple[Frame, int]:
    """Frame a shard→gateway envelope; returns ``(frame, wire_size)``.

    ``wire_size`` is the envelope bytes plus any declared-size excess of
    the inner message (media payloads are charged at presentation size,
    which the encoding of their descriptor does not reach).
    """
    header = {"to": wrapper["to"], "kind": wrapper["kind"], "size": wrapper["size"]}
    frame = encode_envelope(MessageKind.ROUTE, header, inner, wrapper, interner)
    excess = wrapper["size"] - len(inner.data)
    return frame, len(frame.data) + (excess if excess > 0 else 0)
