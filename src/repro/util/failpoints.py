"""Named failpoints: deterministic crash/fault injection at code points.

A component that participates in chaos testing calls
``failpoints.fire("subsystem.point", **context)`` at the places where a
real deployment could die mid-operation (a journal append, a replication
ship, an ack apply). In production-shaped runs nothing is armed and the
call is a dictionary miss. A test (or a :class:`~repro.chaos.FaultPlan`)
arms a point with :meth:`Failpoints.arm`; the next matching ``fire``
returns the armed *mode* string and the component acts it out — tearing
a write, crashing a shard — at exactly that point, every run.

Like the ``repro.obs`` defaults, there is one process-wide instance
(:func:`get_failpoints`); components resolve it at construction, and
tests isolate themselves with :func:`use_failpoints`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class _Arm:
    """One armed trigger at a failpoint."""

    mode: str
    after: int = 0           # skip this many matching hits first
    count: int = 1           # then trigger this many times
    match: dict[str, Any] = field(default_factory=dict)

    def matches(self, context: dict[str, Any]) -> bool:
        return all(context.get(key) == value for key, value in self.match.items())


class Failpoints:
    """A registry of armed failure triggers, keyed by point name."""

    def __init__(self) -> None:
        self._arms: dict[str, list[_Arm]] = {}
        #: every (point, mode) that actually triggered, in order.
        self.fired: list[tuple[str, str]] = []
        #: hit counts per point (armed or not) — lets tests assert that a
        #: crash point is actually on the exercised code path.
        self.hits: dict[str, int] = {}

    def arm(
        self,
        point: str,
        mode: str,
        after: int = 0,
        count: int = 1,
        match: dict[str, Any] | None = None,
    ) -> None:
        """Arm *point*: after *after* matching hits, trigger *count* times.

        *match* restricts the trigger to calls whose context includes the
        given key/value pairs (e.g. ``match={"shard": "shard-2"}``).
        """
        if after < 0 or count < 1:
            raise ValueError(f"need after >= 0 and count >= 1, got {after}/{count}")
        self._arms.setdefault(point, []).append(
            _Arm(mode=mode, after=after, count=count, match=dict(match or {}))
        )

    def fire(self, point: str, **context: Any) -> str | None:
        """Report reaching *point*; returns the armed mode when triggered."""
        self.hits[point] = self.hits.get(point, 0) + 1
        arms = self._arms.get(point)
        if not arms:
            return None
        for arm in arms:
            if not arm.matches(context):
                continue
            if arm.after > 0:
                arm.after -= 1
                continue
            arm.count -= 1
            if arm.count <= 0:
                arms.remove(arm)
                if not arms:
                    del self._arms[point]
            self.fired.append((point, arm.mode))
            return arm.mode
        return None

    def armed(self, point: str) -> bool:
        return bool(self._arms.get(point))

    def clear(self) -> None:
        self._arms.clear()
        self.fired.clear()
        self.hits.clear()


_failpoints = Failpoints()


def get_failpoints() -> Failpoints:
    """The process-default failpoint registry."""
    return _failpoints


def set_failpoints(failpoints: Failpoints) -> Failpoints:
    """Replace the default registry; returns it."""
    global _failpoints
    _failpoints = failpoints
    return failpoints


@contextmanager
def use_failpoints() -> Iterator[Failpoints]:
    """Temporarily install a fresh registry."""
    failpoints = Failpoints()
    previous = get_failpoints()
    set_failpoints(failpoints)
    try:
        yield failpoints
    finally:
        set_failpoints(previous)
