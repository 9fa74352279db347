"""Per-destination coalescing of small messages into one framed batch.

The propagation fan-out sends many tiny frames to the same client in the
same instant (a presentation diff, then the peer event, then the next
change's diff...). Each one is individually acked by the reliable layer
— so a room of N members costs 2·N·changes frames on the wire. The
:class:`Batcher` sits between a sender and its ``transmit(recipient,
frame)`` step and coalesces consecutive small messages per destination
into one ``BATCH`` frame, flushed on the first of:

* a **simclock deadline** — ``window_s`` after the first enqueued frame;
* a **byte budget** — the pending run reaching :data:`MAX_BYTES`;
* a **barrier kind** — any message outside :data:`BATCH_KINDS` (JOIN_ACK,
  ERROR, PROMOTE, payloads...) flushes the destination first and is then
  sent unbatched, preserving per-destination order. So is a frame whose
  wire size exceeds its bytes (declared-size media): a batch embeds
  bytes, and only its members' bytes. Heartbeats never pass through a
  batcher at all (they ride the links' priority lane).

``window_s=0`` (every server's default) is a pure pass-through: every
send goes straight to *transmit*, byte-for-byte identical to the
unbatched system. Batching is an opt-in measured by E13.

Senders hand the batcher frames, as they would the network. The batch
envelope embeds the already-encoded sub-frames as opaque bytes (see
:func:`repro.net.codec.encode_batch`) — coalescing costs zero
re-encodes. The network layer unwraps batches at delivery, so receivers
only ever see ordinary messages.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net.codec import Frame, encode_batch, stamp_frame
from repro.net.simclock import SimClock
from repro.obs import get_registry
from repro.obs.dtrace import HOP_BATCH_WAIT, NULL_CONTEXT, get_dtrace

#: Kinds eligible for coalescing: the high-rate, small propagation
#: traffic. Everything else acts as an ordering barrier.
BATCH_KINDS = frozenset(("presentation_update", "peer_event", "broadcast"))

#: Byte budget of one destination's pending run; a frame larger than
#: this is sent unbatched.
MAX_BYTES = 4096


class Batcher:
    """Coalesces one sender's small outbound messages per destination."""

    def __init__(
        self, clock: SimClock, transmit: Callable[[str, Frame], None], sender: str,
        window_s: float,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        self._clock = clock
        self._transmit = transmit
        self._sender = sender
        self.window_s = window_s
        # Per destination: (frame, its trace context or None, enqueue time).
        self._pending: dict[str, list[tuple[Frame, Any, float]]] = {}
        self._pending_bytes: dict[str, int] = {}
        self._armed: set[str] = set()
        self._dtrace = get_dtrace()
        counts = self.counts = {"flushes": 0, "messages_coalesced": 0}
        registry = get_registry()
        registry.counter("batch.flushes", read=lambda: counts["flushes"])
        registry.counter("batch.messages_coalesced", read=lambda: counts["messages_coalesced"])

    def send(self, recipient: str, frame: Frame) -> None:
        """Send (possibly deferred and coalesced) one frame."""
        encoded = len(frame.data)
        batchable = (
            self.window_s > 0
            and frame.kind in BATCH_KINDS
            and frame.size_bytes == encoded  # declared-size media never batches
            and encoded <= MAX_BYTES
        )
        if not batchable:
            # Barrier semantics: anything unbatchable must not overtake
            # frames already queued for this destination.
            if self._pending:
                self.flush(recipient)
            self._transmit(recipient, frame)
            return
        queue = self._pending.setdefault(recipient, [])
        ctx = frame.trace[-1] if frame.trace else None
        queue.append((frame, ctx, self._clock.now))
        pending = self._pending_bytes.get(recipient, 0) + encoded
        self._pending_bytes[recipient] = pending
        if pending >= MAX_BYTES:
            self.flush(recipient)
        elif recipient not in self._armed:
            self._armed.add(recipient)
            self._clock.schedule(self.window_s, lambda: self._on_deadline(recipient))

    def _on_deadline(self, recipient: str) -> None:
        self._armed.discard(recipient)
        self.flush(recipient)

    def flush(self, recipient: str | None = None) -> None:
        """Send pending frames now (all destinations when *recipient* is None)."""
        if recipient is None:
            for destination in list(self._pending):
                self.flush(destination)
            return
        items = self._pending.pop(recipient, None)
        self._pending_bytes.pop(recipient, None)
        if not items:
            return
        self.counts["flushes"] += 1
        dtrace = self._dtrace
        now = self._clock.now
        if len(items) == 1:
            frame, ctx, enqueued_at = items[0]
            if dtrace.enabled and ctx is not None:
                # The lone frame still waited out the window: record the
                # batch_wait span and restamp so downstream hops chain
                # from the flush, not the enqueue.
                ctx = dtrace.record_hop(
                    ctx, HOP_BATCH_WAIT, self._sender, enqueued_at, now, size=1
                )
                frame = stamp_frame(frame, (ctx,))
            self._transmit(recipient, frame)
            return
        frames = [frame for frame, _, _ in items]
        entries = [
            {"kind": f.kind, "payload": f.payload, "size": f.size_bytes}
            for f in frames
        ]
        batch = encode_batch(frames, entries)
        if dtrace.enabled and any(ctx is not None for _, ctx, _ in items):
            # The batch trailer links each member's span chain through
            # the shared frame: one context per entry, in entry order.
            contexts = tuple(
                dtrace.record_hop(
                    ctx, HOP_BATCH_WAIT, self._sender, enqueued_at, now,
                    size=len(items),
                )
                if ctx is not None
                else NULL_CONTEXT
                for _, ctx, enqueued_at in items
            )
            batch = stamp_frame(batch, contexts)
        self.counts["messages_coalesced"] += len(frames)
        self._transmit(recipient, batch)

    @property
    def pending_count(self) -> int:
        """Frames enqueued but not yet flushed (all destinations)."""
        return sum(len(items) for items in self._pending.values())
