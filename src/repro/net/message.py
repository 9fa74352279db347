"""Network messages.

A message is one transmission of an encoded
:class:`~repro.net.codec.Frame` between two nodes. The simulation
charges the links by ``size_bytes``, which is always the frame's own
``Frame.size_bytes``: a sender hands the network a frame and nothing
else, so no sender sizes a message by hand.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.codec import Frame

next_message_id = itertools.count(1).__next__
_new = tuple.__new__
_FIELDS = "sender recipient kind payload size_bytes message_id seq checksum attempt frame"


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
    ``receive`` and an op a shard hands its own server. Excluded from
    equality — it is a cache, not message state.

    The stack builds one per transmission, so the record is a tuple
    filled in one call. ``_replace(field=...)`` derives a copy (a
    retransmission, a corrupted frame) that keeps its ``message_id``.
    """

    __slots__ = ()

    def __new__(
        cls, sender: str, recipient: str, kind: str, payload: Any = None,
        size_bytes: int = 0, message_id: int | None = None, seq: int | None = None,
        checksum: int | None = None, attempt: int = 0, frame: "Frame | None" = None,
    ) -> "Message":
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        if message_id is None:
            message_id = next_message_id()
        return _new(
            cls,
            (sender, recipient, kind, payload, size_bytes, message_id,
             seq, checksum, attempt, frame),
        )

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Message and self[:-1] == other[:-1]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:-1])

    def __str__(self) -> str:
        retry = f" retry#{self.attempt}" if self.attempt else ""
        return (
            f"Message#{self.message_id} {self.sender}->{self.recipient} "
            f"{self.kind} ({self.size_bytes}B){retry}"
        )
