"""Outside-in tracer: timing wrappers around each layer's public callables.

Nothing under ``src/`` knows about this. :meth:`Tracer.install` replaces
the boundary callables listed in ``layers.py`` — class attributes, and
for module functions every ``from``-imported binding under ``repro.*`` —
with wrappers that keep a stack of open spans; :meth:`Tracer.uninstall`
puts the original objects back. A span's self time is its duration minus
the time its child spans cover, so layer self times add up to the time
spent under root spans and nothing is counted twice.

Client ops are numbered at the ``ClientModule`` entry points and the
number rides along every ``SimClock.schedule`` made while it is current,
so the spans an op causes later on the simulated clock share its id.
Full span records are kept for every 16th op only; the per-layer
aggregates cover all of them. Everything stays in memory until the run
is over.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from layers import SPANNED

#: The callables that begin a client op (a subset of the client layer).
OP_ENTRY_POINTS = (
    "join", "leave", "choose", "operate", "annotate", "subscribe", "unsubscribe"
)
SPAN_SAMPLE_EVERY = 16


class Tracer:
    def __init__(self) -> None:
        #: (layer, callable) -> call count / summed self seconds.
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        #: Sampled span records: (name, start, end, parent index, op id).
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        #: Open spans, innermost last: [child seconds, span index or -1].
        self._stack: list[list[Any]] = []
        self._op: int | None = None
        self._ops_seen = 0
        self._sampling = False
        #: (owner, attribute, original object) for every replaced binding.
        self._patched: list[tuple[Any, str, Any]] = []

    # ----- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for layer in SPANNED:
            for module_name, class_name, names in layer.boundary:
                module = importlib.import_module(module_name)
                for name in names:
                    if class_name is None:
                        self._wrap_function(layer.name, module, name)
                    else:
                        self._wrap_method(
                            layer.name, getattr(module, class_name), name
                        )
        # schedule_at delegates to schedule, so one carrier covers both.
        clock_cls = importlib.import_module("repro.net.simclock").SimClock
        self._replace(clock_cls, "schedule", self._carrying(clock_cls.schedule))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> list[tuple[Any, str, Any]]:
        """(owner, attribute, original) of every binding now replaced."""
        return list(self._patched)

    def _replace(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap_method(self, layer: str, cls: type, name: str) -> None:
        starts_op = layer == "client" and name in OP_ENTRY_POINTS
        wrapper = self._span(layer, f"{cls.__name__}.{name}", cls.__dict__[name],
                             starts_op)
        self._replace(cls, name, wrapper)

    def _wrap_function(self, layer: str, module: Any, name: str) -> None:
        original = getattr(module, name)
        wrapper = self._span(layer, name, original, False)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)

    # ----- wrappers ------------------------------------------------------------------

    def _span(
        self, layer: str, name: str, fn: Callable[..., Any], starts_op: bool
    ) -> Callable[..., Any]:
        key = (layer, name)
        label = f"{layer}:{name}"
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if starts_op:
                outer_op = tracer._op
                tracer._set_op(tracer._next_op())
            index = -1
            if tracer._sampling:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                calls[key] += 1
                self_s[key] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if index >= 0:
                    spans[index] = (
                        label, start, start + duration,
                        parent[1] if parent is not None else -1, tracer._op,
                    )
                if starts_op:
                    tracer._set_op(outer_op)

        traced.__wrapped__ = fn
        return traced

    def _carrying(self, schedule: Callable[..., Any]) -> Callable[..., Any]:
        """``SimClock.schedule`` that hands the current op id to the callback."""
        tracer = self

        def carried(clock: Any, delay: float, callback: Callable[[], None]) -> Any:
            op = tracer._op
            if op is None:
                return schedule(clock, delay, callback)

            def resume() -> None:
                outer_op = tracer._op
                tracer._set_op(op)
                try:
                    callback()
                finally:
                    tracer._set_op(outer_op)

            return schedule(clock, delay, resume)

        carried.__wrapped__ = schedule
        return carried

    def _next_op(self) -> int:
        self._ops_seen += 1
        return self._ops_seen

    def _set_op(self, op: int | None) -> None:
        self._op = op
        self._sampling = op is not None and op % SPAN_SAMPLE_EVERY == 0

    # ----- reading -------------------------------------------------------------------

    def totals(self) -> tuple[dict[tuple[str, str], int], dict[tuple[str, str], float]]:
        """Copies of (calls, self seconds) per (layer, callable) so far."""
        return dict(self.calls), dict(self.self_s)

    def span_records(self) -> list[dict[str, Any]]:
        """The sampled spans; ``parent`` is an index into this list, or -1."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
