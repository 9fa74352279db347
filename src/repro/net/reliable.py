"""Reliable, ordered, exactly-once delivery over the lossy simulated wire.

The raw :class:`~repro.net.network.SimulatedNetwork` delivers whatever
the links carry — which, once :mod:`repro.chaos` is attached, includes
dropped, duplicated, reordered and corrupted frames. This module is the
end-to-end repair layer, modelled on the classic ARQ design:

- every application frame on a directed ``sender→recipient`` stream
  carries a **monotonic sequence number** and a **payload checksum**;
- the receiver **acks** each frame (tiny ``net_ack`` control frames that
  never reach application code), **drops duplicates** idempotently,
  **quarantines corrupt frames** (no ack — the sender retransmits), and
  **holds back out-of-order frames** so application code sees each
  stream exactly once, in order;
- the sender **retransmits on timeout** with exponential backoff under a
  bounded retry budget; exhausting the budget surfaces a typed
  :class:`~repro.errors.DeliveryFailed` to the sending node (via an
  ``on_delivery_failed`` hook) instead of livelocking — the guarantee
  that makes 100% loss a reportable condition, not a hang. The receiver
  then skips the abandoned frame: a stream is in order, and its only
  gaps are frames whose sender was told so.

Liveness kinds (heartbeats, telemetry pushes) stay best-effort: a
retried heartbeat is a lie, and a lost telemetry diff is superseded by
the next one. They still get checksums, so corruption never crashes a
receiver.

All timers run on the shared :class:`~repro.net.simclock.SimClock`, so
retry schedules — and therefore every chaos experiment — are
deterministic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any

from repro.errors import DeliveryFailed, NetworkError
from repro.net.codec import checksum_of
from repro.net.message import Message
from repro.obs import get_event_log, get_registry
from repro.obs.dtrace import HOP_RETRANSMIT, get_dtrace
from repro.util.tally import LabelCounts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.net.codec import Frame
    from repro.net.link import Link
    from repro.net.network import SimulatedNetwork

#: Transport-level ack frame kind. Consumed by the network layer; no
#: node ever receives one.
NET_ACK = "net_ack"

#: Kinds that stay best-effort (see module docstring). ``net_ack``
#: itself must never be acked (ack-of-ack loop).
UNRELIABLE_KINDS = (NET_ACK, "heartbeat", "telemetry", "telemetry_event")

# Retransmission: a frame is transmitted up to MAX_ATTEMPTS times over
# ``BASE_TIMEOUT_S * (BACKOFF^MAX_ATTEMPTS - 1) ≈ 25`` simulated seconds
# (plus RTT estimates) before the sender gives up — generous enough to
# ride out a multi-second partition window, finite enough that total
# loss terminates.
BASE_TIMEOUT_S = 0.2
BACKOFF = 2.0
MAX_ATTEMPTS = 7
ACK_SIZE_BYTES = 16
#: Hold-back window: a frame further than this past the next expected
#: seq is not acked (the sender retries it later).
REORDER_BUFFER = 512


@lru_cache(maxsize=1024)
def _ack_checksum(seq: int) -> int:
    """Checksum of the one valid ack body for *seq*. An ack says nothing
    but a sequence number, so it is the same on every stream of every
    network: encoded for the first ack sent or received, looked up after."""
    return checksum_of(NET_ACK, {"seq": seq})


@dataclass(slots=True)
class _Outstanding:
    """Sender-side state of one unacked reliable frame."""

    message: Message
    last_sent: float  # sim time of the latest transmission
    attempts: int = 1  # transmissions so far


class _Stream:
    """One directed sender→recipient stream: the sender's numbering and
    unacked frames, the receiver's dedup horizon and hold-back buffer.

    A ``None`` in the hold-back buffer is a tombstone: a seq the sender
    gave up on, skipped instead of waited for. Both ends share this
    record, so the give-up reaches the receiver at once — as a forward
    notice would on a real wire, carrying the strings the skipped frame
    added to the stream's dynamic table."""

    __slots__ = ("next_seq", "outstanding", "expected", "buffer")

    def __init__(self) -> None:
        self.next_seq = 1
        self.outstanding: dict[int, _Outstanding] = {}
        self.expected = 1
        self.buffer: dict[int, Message | None] = {}


class ReliableTransport:
    """ARQ layer owned by a :class:`SimulatedNetwork` (when enabled)."""

    def __init__(self, network: "SimulatedNetwork") -> None:
        self._network = network
        self._streams: dict[tuple[str, str], _Stream] = defaultdict(_Stream)
        registry = get_registry()
        self._events = get_event_log()
        self._dtrace = get_dtrace()
        counts = self.counts = {"acks": 0, "corrupt_dropped": 0, "delivery_failed": 0}
        registry.counter("net.acks", read=lambda: counts["acks"])
        registry.counter("net.corrupt_dropped", read=lambda: counts["corrupt_dropped"])
        registry.counter("net.delivery_failed", read=lambda: counts["delivery_failed"])
        self.retries = LabelCounts(registry.counter_family("net.retries", ("kind",)))
        self.dup_dropped = LabelCounts(registry.counter_family("net.dup_dropped", ("kind",)))

    def _emit(self, name: str, severity: str, message: Message, **extra: Any) -> None:
        """One flight-recorder event about *message*, stamped with sim time."""
        self._events.emit(
            name, severity=severity, at=self._network.clock.now,
            sender=message.sender, recipient=message.recipient,
            kind=message.kind, seq=message.seq, **extra,
        )

    # ----- sender side ------------------------------------------------------------

    def prepare(
        self, sender: str, recipient: str, frame: "Frame", forward: "Link"
    ) -> Message:
        """Build the message ``send`` was asked for, already stamped:
        the frame's checksum (always) and a seq (reliable kinds).
        *forward* is the link ``send`` resolved for it. The transport
        never encodes what is already encoded.
        """
        kind, payload, size = frame.kind, frame.payload, frame.size_bytes
        if kind in UNRELIABLE_KINDS:
            return Message(
                sender, recipient, kind, payload, size, checksum=frame.checksum, frame=frame
            )
        stream = self._streams[(sender, recipient)]
        seq = stream.next_seq
        message = Message(
            sender, recipient, kind, payload, size, seq=seq, checksum=frame.checksum,
            frame=frame,
        )
        stream.next_seq = seq + 1
        out = stream.outstanding[seq] = _Outstanding(message, self._network.clock.now)
        self._arm_timer(stream, out, forward)
        return message

    def _arm_timer(
        self, stream: _Stream, out: _Outstanding, forward: "Link | None" = None
    ) -> None:
        timeout = self._estimate_rtt(out.message, forward) + BASE_TIMEOUT_S * (
            BACKOFF ** (out.attempts - 1)
        )
        seq = out.message.seq
        self._network.clock.schedule(timeout, lambda: self._on_timeout(stream, seq))

    def _estimate_rtt(self, message: Message, forward: "Link | None" = None) -> float:
        """Expected send→ack round trip, from the known link schedules.

        Without this a multi-second image transfer trips the fixed
        timeout and the sender pointlessly retransmits megabytes into an
        already-congested link. A real ARQ estimates RTT from samples;
        the simulation can read the same quantity off its own links.
        """
        network = self._network
        try:
            if forward is None:
                forward = network._resolve_link(message.sender, message.recipient)
            reverse = network._resolve_link(message.recipient, message.sender)
        except NetworkError:
            return 0.0  # endpoint vanished: timeout path handles it
        now = network.clock.now
        return (
            forward.queueing_delay(now)
            + forward.transmission_time(message.size_bytes)
            + forward.latency_s
            + reverse.queueing_delay(now)
            + reverse.transmission_time(ACK_SIZE_BYTES)
            + reverse.latency_s
        )

    def _on_timeout(self, stream: _Stream, seq: int) -> None:
        out = stream.outstanding.get(seq)
        if out is None:
            return  # acked since: every attempt's timer still pops
        message = out.message
        if not self._network.has_node(message.sender):
            # The sender fail-stopped; a dead node retransmits nothing.
            del stream.outstanding[seq]
            return
        if not self._network.has_node(message.recipient):
            self._fail(stream, out, reason="recipient_detached")
            return
        if out.attempts >= MAX_ATTEMPTS:
            self._fail(stream, out, reason="retry_budget_exhausted")
            return
        out.attempts += 1
        now = self._network.clock.now
        self.retries[message.kind] += 1
        dtrace = self._dtrace
        frame = message.frame
        if dtrace.enabled and frame is not None and frame.trace:
            # Each retransmission becomes a child span of the context the
            # frame carries — a *sibling* of the wire hop it repairs, so
            # the analyzer can carve backoff time out of that leg. The
            # span covers the wait since the previous transmission.
            for ctx in frame.trace:
                if ctx.trace_id:
                    dtrace.record_hop(
                        ctx, HOP_RETRANSMIT, message.sender, out.last_sent, now,
                        attempt=out.attempts - 1, kind=message.kind,
                    )
        out.last_sent = now
        self._network._transmit(message._replace(attempt=out.attempts - 1))
        self._arm_timer(stream, out)

    def _fail(self, stream: _Stream, out: _Outstanding, reason: str) -> None:
        message = out.message
        del stream.outstanding[message.seq]
        if message.seq >= stream.expected:
            # The receiver stops waiting for it (a no-op if it arrived).
            stream.buffer.setdefault(message.seq, None)
            self._release(stream)
        error = DeliveryFailed(
            sender=message.sender, recipient=message.recipient, kind=message.kind,
            seq=message.seq or 0, attempts=out.attempts, reason=reason,
            payload=message.payload,
        )
        self.counts["delivery_failed"] += 1
        self._emit("net.delivery_failed", "ERROR", message, attempts=out.attempts, reason=reason)
        self._network.delivery_failures.append(error)
        sender = self._network._nodes.get(message.sender)
        hook = getattr(sender, "on_delivery_failed", None)
        if hook is not None:
            hook(error)

    def on_ack(self, ack: Message) -> None:
        """An ack arrived (ack.sender is the *receiver* of the stream).

        Under a checksum only ``{"seq": <int>}`` stamped with that body's
        checksum is an ack; anything else is a corrupted one (the
        retransmit path handles it)."""
        body = ack.payload
        if ack.checksum is None:
            seq = (body or {}).get("seq")
        else:
            seq = body.get("seq") if type(body) is dict and len(body) == 1 else None
            if type(seq) is not int or ack.checksum != _ack_checksum(seq):
                self.counts["corrupt_dropped"] += 1
                return
        stream = self._streams.get((ack.recipient, ack.sender))
        if stream is not None and stream.outstanding.pop(seq, None) is not None:
            self.counts["acks"] += 1

    # ----- receiver side ----------------------------------------------------------

    def verify(self, message: Message) -> bool:
        """Checksum check; False means the frame must be quarantined.

        A message verifies by *identity*: the payload object delivered
        must be the one its frame encodes (retransmits preserve it;
        chaos corruption swaps it) and the stamped checksum must match
        the frame's. No encoder runs — acks, the one frameless message,
        are checked by :meth:`on_ack` before delivery gets here.
        """
        frame = message.frame
        if message.payload is frame.payload and message.checksum == frame.checksum:
            return True
        self.counts["corrupt_dropped"] += 1
        self._emit("net.corrupt_dropped", "WARN", message)
        return False

    def on_frame(self, message: Message) -> None:
        """Dedup, ack, and deliver a sequenced frame in stream order."""
        stream = self._streams[(message.sender, message.recipient)]
        seq = message.seq
        assert seq is not None
        buffer = stream.buffer
        if seq < stream.expected or seq in buffer:
            self.dup_dropped[message.kind] += 1
            self._emit("net.dup_dropped", "DEBUG", message)
            self._send_ack(message)  # the previous ack may have been lost
            return
        if seq - stream.expected > REORDER_BUFFER:
            return  # hold-back overflow: no ack, the sender will retry
        buffer[seq] = message
        self._send_ack(message)
        self._release(stream)

    def _release(self, stream: _Stream) -> None:
        """Hand off held-back frames in stream order, skipping tombstones."""
        buffer = stream.buffer
        while stream.expected in buffer:
            frame = buffer.pop(stream.expected)
            stream.expected += 1
            if frame is not None:
                self._network._hand_off(frame)

    def _send_ack(self, message: Message) -> None:
        network = self._network
        if not network.has_node(message.sender):
            return  # acking a dead sender is pointless
        seq, size = message.seq, ACK_SIZE_BYTES
        ack = Message(
            message.recipient, message.sender, NET_ACK, {"seq": seq}, size,
            checksum=_ack_checksum(seq),
        )
        network._transmit(ack)

    # ----- introspection ----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Reliable frames sent but not yet acked."""
        return sum(len(stream.outstanding) for stream in self._streams.values())
