"""Discrete-event simulated network.

The paper's prototype runs over Java RMI on real links; this package is
the measurable substitute. A :class:`~repro.net.simclock.SimClock` orders
events; :class:`~repro.net.link.Link` models per-client bandwidth and
latency (including FIFO serialization on a busy link); a
:class:`~repro.net.network.SimulatedNetwork` is the star topology of the
paper's Figure 1 — every client connected to the interaction server —
with per-link byte/message accounting so benchmarks E4/E5/E7/E9 can
report message volume and transfer times.

:mod:`repro.net.codec` is the canonical binary wire format: payloads are
encoded exactly once into a cached :class:`~repro.net.codec.Frame`
(varints, interned strings, crc32), which sizing, the reliable layer and
retransmissions all share; :mod:`repro.net.batch` coalesces small
same-destination frames into one framed batch on a simclock window.
"""

from repro.net.batch import Batcher
from repro.net.codec import (
    BATCH,
    Frame,
    StringInterner,
    decode_batch,
    decode_envelope,
    decode_message,
    encode_batch,
    encode_envelope,
    encode_message,
)
from repro.net.link import Link
from repro.net.message import Message
from repro.net.network import NetworkStats, SimulatedNetwork
from repro.net.reliable import NET_ACK, ReliableTransport
from repro.net.simclock import SimClock

__all__ = [
    "BATCH",
    "Batcher",
    "Frame",
    "Link",
    "Message",
    "NET_ACK",
    "NetworkStats",
    "ReliableTransport",
    "SimClock",
    "SimulatedNetwork",
    "StringInterner",
    "decode_batch",
    "decode_envelope",
    "decode_message",
    "encode_batch",
    "encode_envelope",
    "encode_message",
]
