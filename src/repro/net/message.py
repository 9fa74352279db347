"""Network messages.

A message is one transmission of an encoded
:class:`~repro.net.codec.Frame` between two nodes. The simulation
charges the links by ``size_bytes``, which is always the frame's own
``Frame.size_bytes``: a sender hands the network a frame and nothing
else, so no sender sizes a message by hand.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.codec import Frame

_new = tuple.__new__
_FIELDS = "sender recipient kind payload size_bytes seq checksum attempt frame"


class Message(namedtuple("Message", _FIELDS)):
    """One unit of transfer between two nodes. Immutable.

    ``seq`` and ``checksum`` are set by the reliable transport when it is
    enabled: ``seq`` numbers the frame within its directed
    sender→recipient stream (dedup + in-order delivery), ``checksum``
    protects the payload against injected corruption. ``attempt`` counts
    retransmissions of the same logical frame (0 = first transmission).

    ``frame`` is the encoding the message was sent as (see
    :mod:`repro.net.codec`): ``kind``, ``payload``, ``size_bytes`` and
    ``checksum`` are read off it, and every retransmission reuses it
    instead of re-encoding. It is ``None`` only for a transport ack
    (built inside :mod:`repro.net.reliable`), a batch member handed to
    ``receive`` and an op a shard hands its own server.

    The stack builds one per transmission, so the record is a tuple
    filled in one call. ``_replace(field=...)`` derives a copy (a
    retransmission, a corrupted frame). A message carries no id: nothing
    compares, hashes or looks one up.
    """

    __slots__ = ()

    def __new__(
        cls, sender: str, recipient: str, kind: str, payload: Any = None,
        size_bytes: int = 0, seq: int | None = None, checksum: int | None = None,
        attempt: int = 0, frame: "Frame | None" = None,
    ) -> "Message":
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        return _new(
            cls, (sender, recipient, kind, payload, size_bytes, seq, checksum, attempt, frame)
        )

    def __str__(self) -> str:
        retry = f" retry#{self.attempt}" if self.attempt else ""
        return (
            f"Message {self.sender}->{self.recipient} "
            f"{self.kind} ({self.size_bytes}B){retry}"
        )
