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
  that makes 100% loss a reportable condition, not a hang.

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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.net.codec import Frame
    from repro.net.link import Link
    from repro.net.network import SimulatedNetwork

#: Transport-level ack frame kind. Consumed by the network layer; no
#: node ever receives one.
NET_ACK = "net_ack"

#: Kinds that stay best-effort even when reliability is on (see module
#: docstring). ``net_ack`` itself must never be acked (ack-of-ack loop).
DEFAULT_UNRELIABLE_KINDS = (NET_ACK, "heartbeat", "telemetry", "telemetry_event")


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission and dedup-window configuration.

    With the defaults a frame is transmitted up to 7 times over
    ``0.2 * (2^7 - 1) ≈ 25`` simulated seconds before the sender gives
    up — generous enough to ride out a multi-second partition window,
    finite enough that total loss terminates.
    """

    base_timeout_s: float = 0.2
    backoff: float = 2.0
    max_attempts: int = 7
    ack_size_bytes: int = 16
    reorder_buffer: int = 512
    unreliable_kinds: tuple[str, ...] = DEFAULT_UNRELIABLE_KINDS

    def __post_init__(self) -> None:
        if self.base_timeout_s <= 0:
            raise ValueError(f"base_timeout_s must be > 0, got {self.base_timeout_s}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def timeout_after(self, attempt: int) -> float:
        """Backoff component of the timeout after transmission *attempt*
        (0-based). The transport adds its RTT estimate on top."""
        return self.base_timeout_s * (self.backoff**attempt)


#: The checksum of a message without a cached codec frame: one ephemeral
#: canonical encode. Messages *with* a frame reuse ``Frame.checksum``,
#: computed once at encode time, and verify by payload identity.
payload_checksum = checksum_of


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
    unacked frames, the receiver's dedup horizon and hold-back buffer."""

    __slots__ = ("next_seq", "outstanding", "expected", "buffer")

    def __init__(self) -> None:
        self.next_seq = 1
        self.outstanding: dict[int, _Outstanding] = {}
        self.expected = 1
        self.buffer: dict[int, Message] = {}


class ReliableTransport:
    """ARQ layer owned by a :class:`SimulatedNetwork` (when enabled)."""

    def __init__(self, network: "SimulatedNetwork", policy: RetryPolicy) -> None:
        self._network = network
        self.policy = policy
        self._streams: dict[tuple[str, str], _Stream] = defaultdict(_Stream)
        registry = get_registry()
        self._events = get_event_log()
        self._dtrace = get_dtrace()
        self._f_retries = registry.counter_family("net.retries", ("kind",))
        self._f_dup_dropped = registry.counter_family("net.dup_dropped", ("kind",))
        self._m_corrupt = registry.counter("net.corrupt_dropped")
        self._m_failed = registry.counter("net.delivery_failed")
        self._m_acks = registry.counter("net.acks")
        self._m_held = registry.counter("net.reorder_held")

    def _emit(self, name: str, severity: str, message: Message, **extra: Any) -> None:
        """One flight-recorder event about *message*, stamped with sim time."""
        self._events.emit(
            name, severity=severity, at=self._network.clock.now,
            sender=message.sender, recipient=message.recipient,
            kind=message.kind, seq=message.seq, **extra,
        )

    # ----- sender side ------------------------------------------------------------

    def prepare(
        self, sender: str, recipient: str, kind: str, payload: Any,
        size_bytes: int, frame: "Frame | None", forward: "Link",
    ) -> Message:
        """Build the message ``send`` was asked for, already stamped:
        checksum (always) and seq (reliable kinds). *forward* is the
        link ``send`` resolved for it. A cached codec frame supplies its
        checksum — the transport never encodes what is already encoded.
        """
        checksum = frame.checksum if frame is not None else checksum_of(kind, payload)
        if kind in self.policy.unreliable_kinds:
            return Message(
                sender, recipient, kind, payload, size_bytes, checksum=checksum, frame=frame
            )
        stream = self._streams[(sender, recipient)]
        seq = stream.next_seq
        message = Message(
            sender, recipient, kind, payload, size_bytes, seq=seq, checksum=checksum, frame=frame
        )
        stream.next_seq = seq + 1
        out = stream.outstanding[seq] = _Outstanding(message, self._network.clock.now)
        self._arm_timer(stream, out, forward)
        return message

    def _arm_timer(
        self, stream: _Stream, out: _Outstanding, forward: "Link | None" = None
    ) -> None:
        timeout = self._estimate_rtt(out.message, forward) + self.policy.timeout_after(
            out.attempts - 1
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
                forward, _ = network._resolve_link(message.sender, message.recipient)
            reverse, _ = network._resolve_link(message.recipient, message.sender)
        except NetworkError:
            return 0.0  # endpoint vanished: timeout path handles it
        now = network.clock.now
        return (
            forward.queueing_delay(now)
            + forward.transmission_time(message.size_bytes)
            + forward.latency_s
            + reverse.queueing_delay(now)
            + reverse.transmission_time(self.policy.ack_size_bytes)
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
        if out.attempts >= self.policy.max_attempts:
            self._fail(stream, out, reason="retry_budget_exhausted")
            return
        out.attempts += 1
        now = self._network.clock.now
        self._f_retries.labels(message.kind).inc()
        self._emit("net.retry", "DEBUG", message, attempt=out.attempts)
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
        error = DeliveryFailed(
            sender=message.sender, recipient=message.recipient, kind=message.kind,
            seq=message.seq or 0, attempts=out.attempts, reason=reason,
            payload=message.payload,
        )
        self._m_failed.inc()
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
                self._m_corrupt.inc()
                return
        stream = self._streams.get((ack.recipient, ack.sender))
        if stream is not None and stream.outstanding.pop(seq, None) is not None:
            self._m_acks.inc()

    # ----- receiver side ----------------------------------------------------------

    def verify(self, message: Message) -> bool:
        """Checksum check; False means the frame must be quarantined.

        Frames with a cached encoding verify by *identity*: the payload
        object delivered must be the one the frame encodes (retransmits
        preserve it; chaos corruption swaps it) and the stamped checksum
        must match the frame's — zero re-encoding on the hot path. The
        frameless fallback recomputes the canonical checksum.
        """
        if message.checksum is None:
            return True
        frame = message.frame
        if frame is not None:
            if message.payload is frame.payload and message.checksum == frame.checksum:
                return True
        elif message.checksum == checksum_of(message.kind, message.payload):
            return True
        self._m_corrupt.inc()
        self._emit("net.corrupt_dropped", "WARN", message)
        return False

    def on_frame(self, message: Message) -> None:
        """Dedup, ack, and deliver a sequenced frame in stream order."""
        stream = self._streams[(message.sender, message.recipient)]
        seq = message.seq
        assert seq is not None
        buffer = stream.buffer
        if seq < stream.expected or seq in buffer:
            self._f_dup_dropped.labels(message.kind).inc()
            self._emit("net.dup_dropped", "DEBUG", message)
            self._send_ack(message)  # the previous ack may have been lost
            return
        if seq - stream.expected > self.policy.reorder_buffer:
            return  # hold-back overflow: no ack, the sender will retry
        if seq != stream.expected:
            self._m_held.inc()
        buffer[seq] = message
        self._send_ack(message)
        while stream.expected in buffer:
            frame = buffer.pop(stream.expected)
            stream.expected += 1
            self._network._hand_off(frame)

    def _send_ack(self, message: Message) -> None:
        network = self._network
        if not network.has_node(message.sender):
            return  # acking a dead sender is pointless
        seq, size = message.seq, self.policy.ack_size_bytes
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
