"""Network messages.

A message is addressed application payload plus an explicit wire size —
the simulation charges the links by ``size_bytes``, so protocol encoders
must account honestly for what they would serialize.
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

    ``frame`` is the payload's cached canonical encoding (see
    :mod:`repro.net.codec`) when the sender produced one: the wire size,
    the reliable layer's checksum and every retransmission reuse it
    instead of re-encoding. Excluded from equality — it is a cache, not
    message state.

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
