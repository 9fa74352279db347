"""Per-destination coalescing of small messages into one framed batch.

The propagation fan-out sends many tiny frames to the same client in the
same instant (a presentation diff, then the peer event, then the next
change's diff...). Each one is individually acked by the reliable layer
— so a room of N members costs 2·N·changes frames on the wire. The
:class:`Batcher` sits between a sender and the network and coalesces
consecutive small messages per destination into one ``BATCH`` frame,
flushed on the first of:

* a **simclock deadline** — ``window_s`` after the first enqueued frame;
* a **byte budget** — the pending run reaching ``max_bytes``;
* a **barrier kind** — any message outside ``batch_kinds`` (JOIN_ACK,
  ERROR, PROMOTE, payloads...) flushes the destination first and is then
  sent unbatched, preserving per-destination order. Heartbeats never
  pass through a batcher at all (they ride the links' priority lane).

``window_s=0`` (the default) is a pure pass-through: every send goes
straight to the network, byte-for-byte identical to the unbatched
system. Batching is an opt-in measured by E13.

The batch envelope embeds the already-encoded sub-frames as opaque bytes
(see :func:`repro.net.codec.encode_batch`) — coalescing costs zero
re-encodes. The network layer unwraps batches at delivery, so receivers
only ever see ordinary messages.
"""

from __future__ import annotations

from typing import Any

from repro.net.codec import Frame, encode_batch, encode_message, stamp_frame
from repro.obs import COUNT_BUCKETS, get_registry
from repro.obs.dtrace import HOP_BATCH_WAIT, NULL_CONTEXT, get_dtrace

#: Kinds eligible for coalescing by default: the high-rate, small
#: propagation traffic. Everything else acts as an ordering barrier.
DEFAULT_BATCH_KINDS = ("presentation_update", "peer_event", "broadcast")


class Batcher:
    """Coalesces one sender's small outbound messages per destination."""

    def __init__(
        self,
        network: Any,
        sender: str,
        window_s: float = 0.0,
        max_bytes: int = 4096,
        batch_kinds: tuple[str, ...] = DEFAULT_BATCH_KINDS,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        self._network = network
        self._sender = sender
        self.window_s = window_s
        self.max_bytes = max_bytes
        self.batch_kinds = frozenset(batch_kinds)
        # Per destination: (frame, its trace context or None, enqueue time).
        self._pending: dict[str, list[tuple[Frame, Any, float]]] = {}
        self._pending_bytes: dict[str, int] = {}
        self._armed: set[str] = set()
        self._dtrace = get_dtrace()
        registry = get_registry()
        self._m_enqueued = registry.counter("batch.enqueued")
        self._m_flushes = registry.counter("batch.flushes")
        self._m_coalesced = registry.counter("batch.messages_coalesced")
        self._m_bytes = registry.counter("batch.bytes")
        self._h_occupancy = registry.histogram("batch.occupancy", COUNT_BUCKETS)

    def send(
        self,
        recipient: str,
        kind: str,
        payload: Any = None,
        size_bytes: int | None = None,
        frame: Frame | None = None,
    ) -> None:
        """Send (possibly deferred and coalesced) one message."""
        if frame is None:
            frame = encode_message(kind, payload)
        encoded = len(frame.data)
        if size_bytes is None:
            size_bytes = encoded
        batchable = (
            self.window_s > 0
            and kind in self.batch_kinds
            and size_bytes == encoded  # declared-size media never batches
            and encoded <= self.max_bytes
        )
        if not batchable:
            # Barrier semantics: anything unbatchable must not overtake
            # frames already queued for this destination.
            if self._pending:
                self.flush(recipient)
            self._network.send(
                self._sender, recipient, kind,
                payload=payload, size_bytes=size_bytes, frame=frame,
            )
            return
        queue = self._pending.setdefault(recipient, [])
        ctx = frame.trace[-1] if frame.trace else None
        queue.append((frame, ctx, self._network.clock.now))
        self._m_enqueued.inc()
        pending = self._pending_bytes.get(recipient, 0) + encoded
        self._pending_bytes[recipient] = pending
        if pending >= self.max_bytes:
            self.flush(recipient)
        elif recipient not in self._armed:
            self._armed.add(recipient)
            self._network.clock.schedule(
                self.window_s, lambda: self._on_deadline(recipient)
            )

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
        has_node = getattr(self._network, "has_node", None)
        if has_node is not None and not has_node(recipient):
            return  # destination detached while the window was open
        self._m_flushes.inc()
        self._h_occupancy.observe(len(items))
        dtrace = self._dtrace
        now = self._network.clock.now
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
            self._network.send(
                self._sender, recipient, frame.kind,
                payload=frame.payload, size_bytes=frame.size_bytes, frame=frame,
            )
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
        self._m_coalesced.inc(len(frames))
        self._m_bytes.inc(batch.size_bytes)
        self._network.send(
            self._sender, recipient, batch.kind,
            payload=batch.payload, size_bytes=batch.size_bytes, frame=batch,
        )

    @property
    def pending_count(self) -> int:
        """Frames enqueued but not yet flushed (all destinations)."""
        return sum(len(items) for items in self._pending.values())
