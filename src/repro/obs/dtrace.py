"""Delivery tracing: wire-propagated trace context across every hop.

Why did a choice take 80 ms to reach the last interested subscriber
three nodes away? This module answers with Dapper-style *delivery
tracing* on the simulated clock:

* a :class:`TraceContext` — trace id, parent span id, hop count and send
  timestamp, all LEB128 varints on the wire — stamped onto codec frames
  as an **optional trailer** (see :func:`repro.net.codec.stamp_frame`),
  so cached fan-out frames stay encode-once;
* a :class:`DeliveryTracer` that records :class:`HopSpan`\\ s as stamped
  frames cross the network (``uplink``, ``gateway_route``,
  ``shard_queue``, ``replicate``, ``batch_wait``, ``retransmit``,
  ``downlink``), feeding per-hop latency histograms
  (``dtrace.hop.latency{hop}``) and end-to-end per-room latency
  (``dtrace.e2e.latency{room}``, actor send → each subscriber delivery);
* a :class:`TraceStore` — a bounded ring keyed by trace id — plus a
  critical-path analyzer (:func:`analyze_delivery`) that reconstructs the
  delivery tree of any trace and attributes end-to-end time to queueing
  vs. batch window vs. retransmit backoff vs. wire, with a text view
  (:func:`render_delivery_tree`) and a flight-recorder event when a
  delivery breaches the SLO budget.

The default tracer is :class:`NullDeliveryTracer` (disabled): untraced
runs pay one attribute check per send site. Install a real tracer with
:func:`set_dtrace`/:func:`use_dtrace` *before* constructing the network
and nodes, exactly like the metrics registry. Trace and span ids come
from deterministic counters — tracing never perturbs the simulation.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

# ----- wire context ---------------------------------------------------------------

#: Microseconds per simulated second: send timestamps travel as integer
#: varints, not floats, so the trailer stays compact.
MICROS = 1_000_000


@dataclass(frozen=True, slots=True)
class TraceContext:
    """One hop's worth of trace context, as carried on the wire."""

    trace_id: int
    span_id: int   # parent span for whatever the receiver records
    hop: int       # hops travelled so far (depth in the delivery tree)
    sent_at_us: int

    @property
    def sent_at_s(self) -> float:
        return self.sent_at_us / MICROS


#: Placeholder for untraced members inside a batch trailer: keeps the
#: context list aligned 1:1 with the batch entries.
NULL_CONTEXT = TraceContext(0, 0, 0, 0)


def context_at(trace_id: int, span_id: int, hop: int, now: float) -> TraceContext:
    """Build a context stamped at simulated time *now* (seconds)."""
    return TraceContext(trace_id, span_id, hop, int(round(now * MICROS)))


# ----- hop taxonomy ---------------------------------------------------------------

HOP_UPLINK = "uplink"
HOP_GATEWAY_ROUTE = "gateway_route"
HOP_GATEWAY_QUEUE = "gateway_queue"
HOP_DIRECTORY_LOOKUP = "directory_lookup"
HOP_SHARD_QUEUE = "shard_queue"
HOP_REPLICATE = "replicate"
HOP_BATCH_WAIT = "batch_wait"
HOP_RETRANSMIT = "retransmit"
HOP_DOWNLINK = "downlink"
HOP_SHED_WAIT = "shed_wait"

ALL_HOPS = (
    HOP_UPLINK,
    HOP_GATEWAY_ROUTE,
    HOP_GATEWAY_QUEUE,
    HOP_DIRECTORY_LOOKUP,
    HOP_SHARD_QUEUE,
    HOP_REPLICATE,
    HOP_BATCH_WAIT,
    HOP_RETRANSMIT,
    HOP_DOWNLINK,
    HOP_SHED_WAIT,
)

#: Critical-path attribution buckets. Everything not explicitly queueing,
#: batch window or retransmit backoff is time on the (simulated) wire.
#: A gateway's routing-capacity wait and a route-cache miss's round trip
#: to the directory are both queueing: time spent not moving bytes.
HOP_CATEGORY = {
    HOP_GATEWAY_QUEUE: "queueing",
    HOP_DIRECTORY_LOOKUP: "queueing",
    HOP_SHARD_QUEUE: "queueing",
    HOP_SHED_WAIT: "queueing",
    HOP_BATCH_WAIT: "batch_window",
    HOP_RETRANSMIT: "retransmit_backoff",
}

CATEGORIES = ("wire", "queueing", "batch_window", "retransmit_backoff")

def hop_category(hop: str) -> str:
    return HOP_CATEGORY.get(hop, "wire")


# ----- recorded spans -------------------------------------------------------------

@dataclass(slots=True)
class HopSpan:
    """One recorded hop of one delivery (a node in the delivery tree)."""

    span_id: int
    parent_id: int
    trace_id: int
    hop: str
    node: str
    start: float
    end: float
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass(slots=True)
class TraceRecord:
    """Everything the store knows about one trace."""

    trace_id: int
    origin: str
    kind: str
    room: str | None
    started_at: float
    root_span_id: int
    spans: list[HopSpan] = field(default_factory=list)
    deliveries: list[dict[str, Any]] = field(default_factory=list)


class TraceStore:
    """Bounded ring of :class:`TraceRecord`, keyed by trace id.

    Oldest traces are evicted once *max_traces* are held; spans arriving
    for an evicted trace are dropped silently (the histograms still see
    them — the store is the debugging view, not the metric source).
    """

    def __init__(self, max_traces: int = 256) -> None:
        self.max_traces = max_traces
        self._records: OrderedDict[int, TraceRecord] = OrderedDict()
        self._next_trace_id = 1
        self._next_span_id = 1
        self.evicted = 0
        self.dropped_spans = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records.values())

    def next_span_id(self) -> int:
        span_id = self._next_span_id
        self._next_span_id += 1
        return span_id

    def begin(
        self, origin: str, kind: str, now: float, room: str | None = None
    ) -> TraceRecord:
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        record = TraceRecord(
            trace_id=trace_id,
            origin=origin,
            kind=kind,
            room=room,
            started_at=now,
            root_span_id=self.next_span_id(),
        )
        self._records[trace_id] = record
        while len(self._records) > self.max_traces:
            self._records.popitem(last=False)
            self.evicted += 1
        return record

    def get(self, trace_id: int) -> TraceRecord | None:
        return self._records.get(trace_id)

    def add_span(
        self,
        trace_id: int,
        parent_id: int,
        hop: str,
        node: str,
        start: float,
        end: float,
        detail: dict[str, Any] | None = None,
    ) -> int:
        """Record one hop span; returns its span id (allocated even when
        the trace was already evicted, so child parenting stays stable)."""
        span_id = self.next_span_id()
        record = self._records.get(trace_id)
        if record is None:
            self.dropped_spans += 1
            return span_id
        record.spans.append(
            HopSpan(
                span_id=span_id,
                parent_id=parent_id,
                trace_id=trace_id,
                hop=hop,
                node=node,
                start=start,
                end=end,
                detail=detail or {},
            )
        )
        return span_id

    def record_delivery(
        self, trace_id: int, node: str, span_id: int, at: float
    ) -> dict[str, Any] | None:
        record = self._records.get(trace_id)
        if record is None:
            return None
        delivery = {
            "node": node,
            "span_id": span_id,
            "at": at,
            "e2e": max(0.0, at - record.started_at),
        }
        record.deliveries.append(delivery)
        return delivery

    def drop_origin(self, node: str) -> int:
        """Forget every trace originated by *node* (session departure)."""
        doomed = [t for t, r in self._records.items() if r.origin == node]
        for trace_id in doomed:
            del self._records[trace_id]
        return len(doomed)

    def drop_room(self, room: str) -> int:
        """Forget every trace recorded against *room* (room closed)."""
        doomed = [t for t, r in self._records.items() if r.room == room]
        for trace_id in doomed:
            del self._records[trace_id]
        return len(doomed)


# ----- the tracer -----------------------------------------------------------------

class DeliveryTracer:
    """Records delivery spans and latency histograms on the sim clock.

    ``sample_every=N`` traces every Nth root operation (deterministic
    counter, no randomness); sampled-out operations cost one modulo at
    the client and nothing anywhere else, which is how the production
    profile keeps wire overhead under the E15 budget. ``slo_budget_s``
    arms a flight-recorder event (``dtrace.slo_breach``) carrying the
    critical-path breakdown whenever a delivery lands over budget.
    """

    enabled = True

    def __init__(
        self,
        max_traces: int = 256,
        sample_every: int = 1,
        slo_budget_s: float | None = None,
        registry: Any | None = None,
        event_log: Any | None = None,
    ) -> None:
        if registry is None or event_log is None:
            from repro.obs import get_event_log, get_registry

            registry = registry if registry is not None else get_registry()
            event_log = event_log if event_log is not None else get_event_log()
        self.store = TraceStore(max_traces)
        self.sample_every = max(1, int(sample_every))
        self.slo_budget_s = slo_budget_s
        self._event_log = event_log
        self._h_hop = registry.histogram_family("dtrace.hop.latency", ("hop",))
        self._h_e2e = registry.histogram_family("dtrace.e2e.latency", ("room",))
        self._c_traces = registry.counter("dtrace.traces_started")
        self._c_sampled_out = registry.counter("dtrace.sampled_out")
        self._c_spans = registry.counter("dtrace.spans")
        self._c_deliveries = registry.counter("dtrace.deliveries")
        self._c_breaches = registry.counter("dtrace.slo_breaches")
        self._op_counter = 0
        self._inbound: TraceContext | None = None

    # -- roots and sampling --------------------------------------------------------

    def start_trace(
        self, origin: str, kind: str, now: float, room: str | None = None
    ) -> TraceContext | None:
        """Open a root trace at the actor; ``None`` when sampled out."""
        index = self._op_counter
        self._op_counter += 1
        if index % self.sample_every:
            self._c_sampled_out.inc()
            return None
        record = self.store.begin(origin, kind, now, room=room)
        self._c_traces.inc()
        return context_at(record.trace_id, record.root_span_id, 0, now)

    # -- hop recording -------------------------------------------------------------

    def record_hop(
        self,
        ctx: TraceContext,
        hop: str,
        node: str,
        start: float,
        end: float,
        **detail: Any,
    ) -> TraceContext:
        """Record one hop span under *ctx*; returns the advanced context
        (new parent span, hop+1, stamped at *end*) for onward sends."""
        span_id = self.store.add_span(
            ctx.trace_id, ctx.span_id, hop, node, start, end, detail or None
        )
        self._c_spans.inc()
        self._h_hop.labels(hop).observe(max(0.0, end - start))
        return context_at(ctx.trace_id, span_id, ctx.hop + 1, end)

    # -- inbound context plumbing --------------------------------------------------

    def current(self) -> TraceContext | None:
        """The context of the delivery currently being handled, if any."""
        return self._inbound

    @contextmanager
    def inbound(self, ctx: TraceContext | None) -> Iterator[None]:
        """Scope *ctx* over one ``receive`` (single-threaded sim)."""
        previous = self._inbound
        self._inbound = ctx
        try:
            yield
        finally:
            self._inbound = previous

    # -- terminal deliveries -------------------------------------------------------

    def finish_delivery(self, ctx: TraceContext, node: str, now: float) -> None:
        """A subscriber displayed the update: close the e2e measurement."""
        record = self.store.get(ctx.trace_id)
        if record is None:
            return
        delivery = self.store.record_delivery(ctx.trace_id, node, ctx.span_id, now)
        if delivery is None:
            return
        self._c_deliveries.inc()
        self._h_e2e.labels(record.room or "?").observe(delivery["e2e"])
        budget = self.slo_budget_s
        if budget is not None and delivery["e2e"] > budget:
            self._c_breaches.inc()
            breakdown = analyze_delivery(record, delivery)
            self._event_log.emit(
                "dtrace.slo_breach",
                severity="WARN",
                at=now,
                trace_id=record.trace_id,
                room=record.room,
                node=node,
                e2e_s=round(delivery["e2e"], 6),
                budget_s=budget,
                **{k: round(v, 6) for k, v in breakdown["categories"].items()},
            )

    # -- lifecycle hygiene ---------------------------------------------------------

    def drop_session(self, node: str) -> None:
        """Forget a departed session's traces (no per-session residue)."""
        self.store.drop_origin(node)

    def drop_room(self, room: str) -> None:
        """Room closed: retire its e2e series and stored traces."""
        self._h_e2e.remove(room)
        self.store.drop_room(room)


class NullDeliveryTracer:
    """Disabled tracer: every send site pays one attribute check."""

    enabled = False

    def __init__(self) -> None:
        self.store = TraceStore(0)
        self.sample_every = 1
        self.slo_budget_s = None

    def start_trace(self, origin, kind, now, room=None):
        return None

    def record_hop(self, ctx, hop, node, start, end, **detail):
        return ctx

    def current(self):
        return None

    @contextmanager
    def inbound(self, ctx):
        yield

    def finish_delivery(self, ctx, node, now):
        return None

    def drop_session(self, node):
        return None

    def drop_room(self, room):
        return None


_dtrace: DeliveryTracer | NullDeliveryTracer = NullDeliveryTracer()


def get_dtrace() -> DeliveryTracer | NullDeliveryTracer:
    """The process-default delivery tracer (Null unless installed)."""
    return _dtrace


def set_dtrace(
    tracer: DeliveryTracer | NullDeliveryTracer,
) -> DeliveryTracer | NullDeliveryTracer:
    """Replace the default delivery tracer; returns it.

    Components cache the handle at construction — install before
    building the network and nodes, like :func:`repro.obs.set_registry`.
    """
    global _dtrace
    _dtrace = tracer
    return tracer


@contextmanager
def use_dtrace(
    tracer: DeliveryTracer | NullDeliveryTracer,
) -> Iterator[DeliveryTracer | NullDeliveryTracer]:
    """Temporarily install *tracer* as the default (test isolation)."""
    previous = get_dtrace()
    set_dtrace(tracer)
    try:
        yield tracer
    finally:
        set_dtrace(previous)


# ----- critical-path analysis -----------------------------------------------------

def delivery_tree(record: TraceRecord) -> dict[int, list[HopSpan]]:
    """Children-by-parent-span-id index over the record's spans."""
    children: dict[int, list[HopSpan]] = {}
    for span in record.spans:
        children.setdefault(span.parent_id, []).append(span)
    return children


def critical_path(record: TraceRecord, span_id: int) -> list[HopSpan]:
    """The hop chain from the root down to *span_id* (delivery leaf)."""
    by_id = {span.span_id: span for span in record.spans}
    path: list[HopSpan] = []
    cursor = by_id.get(span_id)
    while cursor is not None:
        path.append(cursor)
        cursor = by_id.get(cursor.parent_id)
    path.reverse()
    return path


def analyze_delivery(
    record: TraceRecord, delivery: dict[str, Any]
) -> dict[str, Any]:
    """Attribute one delivery's end-to-end time to its cost categories.

    Queueing and batch-window time are measured directly by their spans.
    Retransmit backoff is carved out of the wire legs it delayed: a
    retransmit span is recorded as a *sibling* of the wire hop it
    repaired (same parent context), so each path hop's wire time is its
    duration minus its sibling retransmits. Whatever the spans do not
    cover (origin-side think time, scheduler slack) lands in ``other``.
    """
    path = critical_path(record, delivery["span_id"])
    siblings = delivery_tree(record)
    categories = dict.fromkeys(CATEGORIES, 0.0)
    hops: list[dict[str, Any]] = []
    for span in path:
        duration = span.duration
        category = hop_category(span.hop)
        if category == "wire":
            backoff = sum(
                other.duration
                for other in siblings.get(span.parent_id, ())
                if other.hop == HOP_RETRANSMIT
            )
            backoff = min(backoff, duration)
            categories["retransmit_backoff"] += backoff
            categories["wire"] += duration - backoff
        else:
            categories[category] += duration
        hops.append(
            {
                "hop": span.hop,
                "node": span.node,
                "duration": duration,
                "category": category,
            }
        )
    e2e = delivery["e2e"]
    covered = sum(categories.values())
    return {
        "trace_id": record.trace_id,
        "node": delivery["node"],
        "e2e": e2e,
        "categories": categories,
        "other": max(0.0, e2e - covered),
        "hops": hops,
    }


def render_delivery_tree(record: TraceRecord, unit: str = "ms") -> str:
    """Text rendering of one trace's delivery tree (for humans)."""
    scale = 1_000.0 if unit == "ms" else 1.0
    children = delivery_tree(record)
    delivered_at = {d["span_id"]: d for d in record.deliveries}
    lines = [
        f"trace {record.trace_id} {record.kind!r} from {record.origin}"
        f" room={record.room or '?'} deliveries={len(record.deliveries)}"
    ]

    def visit(parent_id: int, depth: int) -> None:
        for span in sorted(
            children.get(parent_id, ()), key=lambda s: (s.start, s.span_id)
        ):
            marker = ""
            delivery = delivered_at.get(span.span_id)
            if delivery is not None:
                marker = (
                    f"  ← delivered e2e={delivery['e2e'] * scale:.3f}{unit}"
                )
            lines.append(
                f"{'  ' * depth}- {span.hop} @{span.node} "
                f"{span.duration * scale:.3f}{unit}{marker}"
            )
            visit(span.span_id, depth + 1)

    visit(record.root_span_id, 1)
    return "\n".join(lines)
