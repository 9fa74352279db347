"""Hierarchical trace spans with a context-local span stack.

Usage::

    with trace.span("server.propagate"):
        ...
        with trace.span("server.diff"):
            ...

Nesting is tracked per execution context (``contextvars``), so
concurrently traced flows never interleave their trees. The clock is
injectable: pass ``clock=lambda: simclock.now`` and a discrete-event
simulation drives fully deterministic span trees (the exporter output is
then byte-identical run to run).
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator


class Span:
    """One timed region; children are spans opened while it was open.

    ``span_id`` is unique within the owning tracer (a deterministic
    per-tracer sequence, so simulated runs produce identical ids) and is
    what flight-recorder events correlate to. ``error`` holds the
    exception type name when the traced block raised, ``None`` otherwise.
    """

    __slots__ = ("name", "start", "end", "children", "span_id", "error")

    def __init__(self, name: str, start: float, span_id: int = 0) -> None:
        self.name = name
        self.start = start
        self.end: float | None = None
        self.children: list["Span"] = []
        self.span_id = span_id
        self.error: str | None = None

    @property
    def duration(self) -> float:
        """Elapsed clock time (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict[str, Any]:
        """Deterministic serializable form of the subtree."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "error": self.error,
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration:.6f}s, {len(self.children)} children)"


class Tracer:
    """Produces span trees; retains a bounded history of finished roots.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time. Defaults to
        ``time.perf_counter``; inject a simulated clock for determinism.
    registry:
        When given, every finished span also records its duration into
        the registry histogram ``trace.<name>``.
    max_roots:
        Completed root spans retained (oldest dropped first), so an
        always-on tracer cannot grow without bound.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        registry: Any = None,
        max_roots: int = 256,
    ) -> None:
        self._clock = clock if clock is not None else time.perf_counter
        self._registry = registry
        self._roots: deque[Span] = deque(maxlen=max_roots)
        self._ids = itertools.count(1)
        self._listeners: list[Callable[[Span], None]] = []
        self._stack: ContextVar[tuple[Span, ...]] = ContextVar(
            "repro_obs_span_stack", default=()
        )

    def add_listener(self, listener: Callable[[Span], None]) -> Callable[[Span], None]:
        """Call *listener* with every finished span."""
        self._listeners.append(listener)
        return listener

    def remove_listener(self, listener: Callable[[Span], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a span named *name* under the innermost open span.

        A raising block still closes the span; the exception's type name
        is recorded on ``span.error`` and counted as
        ``trace.<name>.errors`` before the exception propagates.
        """
        opened = Span(name, self._clock(), span_id=next(self._ids))
        stack = self._stack.get()
        token = self._stack.set(stack + (opened,))
        try:
            yield opened
        except BaseException as exc:
            opened.error = type(exc).__name__
            raise
        finally:
            opened.end = self._clock()
            self._stack.reset(token)
            if stack:
                stack[-1].children.append(opened)
            else:
                self._roots.append(opened)
            if self._registry is not None:
                self._registry.histogram("trace." + name).observe(opened.duration)
                if opened.error is not None:
                    self._registry.counter(f"trace.{name}.errors").inc()
            for listener in tuple(self._listeners):
                listener(opened)

    @property
    def current(self) -> Span | None:
        """The innermost open span in this execution context."""
        stack = self._stack.get()
        return stack[-1] if stack else None

    @property
    def roots(self) -> tuple[Span, ...]:
        """Finished root spans, oldest first."""
        return tuple(self._roots)

    def last(self) -> Span | None:
        """The most recently finished root span."""
        return self._roots[-1] if self._roots else None

    def clear(self) -> None:
        """Drop retained roots and restart the span-id sequence.

        After ``clear()`` a repeated identical run produces identical
        span ids — what the byte-identical dashboard tests rely on.
        """
        self._roots.clear()
        self._ids = itertools.count(1)


def render_span_tree(span: Span, indent: str = "") -> str:
    """ASCII tree of a span and its descendants, durations in ms.

    Fully determined by span names and clock readings — with a simulated
    clock the output is byte-identical across runs.
    """
    error = f"  !error={span.error}" if span.error is not None else ""
    lines = [
        f"{indent}{span.name}  {span.duration * 1000:.3f} ms"
        f"  [{span.start:.6f} -> {span.end if span.end is not None else span.start:.6f}]"
        f"{error}"
    ]
    for child in span.children:
        lines.append(render_span_tree(child, indent + "  "))
    return "\n".join(lines)


@contextmanager
def timeit(
    label: str,
    tracer: Tracer | None = None,
    printer: Callable[[str], None] | None = None,
) -> Iterator[Span]:
    """Time a block as a span and report it CLI-style on exit.

    ``with timeit("retrieve"):`` opens a span on *tracer* (the package
    default when omitted) and prints ``[timeit] retrieve: 1.234 ms``
    through *printer* (default ``print``).
    """
    if tracer is None:
        from repro.obs import trace as tracer  # the package default

    with tracer.span(label) as span:
        yield span
    (printer or print)(f"[timeit] {label}: {span.duration * 1000:.3f} ms")
