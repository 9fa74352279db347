"""``repro.obs`` — metrics, events and delivery tracing for every tier.

Three substrates, one process-wide default of each:

- a :class:`MetricsRegistry` (:func:`get_registry`) — how much;
- an :class:`EventLog` flight recorder (:func:`get_event_log`) — what
  happened, in what order;
- a :class:`DeliveryTracer` (:func:`get_dtrace`, off by default) — where
  one delivery's simulated time went, hop by hop across nodes.

Instrumented components resolve their handles from the getters at
construction time; swap in the Null variants via the ``set_*`` /
``use_*`` helpers *before* constructing components to turn observability
off, or fresh instances to isolate a run's counts. One tally per fact
(:mod:`repro.obs.metrics`): what an owner counts on its hot path is an
integer it keeps, read at snapshot. The codec reads ``_registry`` on
every encode (an attribute load, not a call) to notice a swap.

The figure benchmarks snapshot the default registry before and after the
measured region and report :func:`diff` of the two; the ledger and the
chaos convergence harness install a fresh registry and event log per run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    MAX_SERIES,
    OVERFLOW_LABEL,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
    Readers,
)
from repro.obs.export import diff, to_json, to_lines
from repro.obs.events import (
    DEBUG,
    ERROR,
    INFO,
    SEVERITIES,
    WARN,
    Event,
    EventLog,
    severity_rank,
)
from repro.obs.dashboard import render_dashboard
from repro.obs.dtrace import (
    DeliveryTracer,
    NullDeliveryTracer,
    TraceContext,
    TraceStore,
    analyze_delivery,
    get_dtrace,
    render_delivery_tree,
    set_dtrace,
    use_dtrace,
)

__all__ = [
    "COUNT_BUCKETS",
    "DEBUG",
    "ERROR",
    "Event",
    "EventLog",
    "INFO",
    "LATENCY_BUCKETS",
    "MAX_SERIES",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
    "OVERFLOW_LABEL",
    "Readers",
    "SEVERITIES",
    "SIZE_BUCKETS",
    "Counter",
    "DeliveryTracer",
    "Gauge",
    "Histogram",
    "NullDeliveryTracer",
    "TraceContext",
    "TraceStore",
    "WARN",
    "analyze_delivery",
    "diff",
    "get_dtrace",
    "get_event_log",
    "get_registry",
    "render_dashboard",
    "render_delivery_tree",
    "set_dtrace",
    "set_event_log",
    "set_registry",
    "severity_rank",
    "snapshot",
    "to_json",
    "to_lines",
    "use_dtrace",
    "use_event_log",
    "use_registry",
]

_registry: MetricsRegistry | NullRegistry = MetricsRegistry()

_event_log: EventLog = EventLog()


def get_registry() -> MetricsRegistry | NullRegistry:
    """The process-default registry instrumented code resolves handles from."""
    return _registry


def set_registry(registry: MetricsRegistry | NullRegistry) -> MetricsRegistry | NullRegistry:
    """Replace the default registry; returns it.

    Components cache instrument handles at construction, so swap before
    building whatever you want measured (or silenced).
    """
    global _registry
    _registry = registry
    return registry


@contextmanager
def use_registry(
    registry: MetricsRegistry | NullRegistry,
) -> Iterator[MetricsRegistry | NullRegistry]:
    """Temporarily install *registry* as the default (test isolation)."""
    previous = get_registry()
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def get_event_log() -> EventLog:
    """The process-default flight recorder."""
    return _event_log


def set_event_log(event_log: EventLog) -> EventLog:
    """Replace the default flight recorder; returns it.

    Components cache their log handle at construction, so swap before
    building whatever should record into it.
    """
    global _event_log
    _event_log = event_log
    return event_log


@contextmanager
def use_event_log(
    event_log: EventLog,
) -> Iterator[EventLog]:
    """Temporarily install *event_log* as the default (test isolation)."""
    previous = get_event_log()
    set_event_log(event_log)
    try:
        yield event_log
    finally:
        set_event_log(previous)


def snapshot() -> dict:
    """Snapshot of the default registry."""
    return _registry.snapshot()
