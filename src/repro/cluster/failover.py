"""Deterministic failure detection and heartbeat scheduling.

Liveness is decided entirely on the shared :class:`SimClock`: shards
send ``HEARTBEAT`` messages on a fixed interval, the gateway sweeps its
:class:`FailureDetector` on a fixed interval, and a shard whose last
beat is older than the timeout is declared dead — same inputs, same
verdicts, every run. Both schedules carry an explicit ``until`` horizon
so the event queue still drains (an unbounded periodic timer would keep
the simulation alive forever).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.net.simclock import SimClock


class FailureDetector:
    """Heartbeat bookkeeping: dead = no beat for longer than *timeout*."""

    def __init__(self, timeout: float) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout
        self._last_beat: dict[str, float] = {}

    def watch(self, node_id: str, now: float) -> None:
        """Start watching a node; it gets a full timeout from *now*."""
        self._last_beat.setdefault(node_id, now)

    def forget(self, node_id: str) -> None:
        self._last_beat.pop(node_id, None)

    def beat(self, node_id: str, at: float) -> None:
        if node_id in self._last_beat:
            self._last_beat[node_id] = max(self._last_beat[node_id], at)

    def last_beat(self, node_id: str) -> float | None:
        return self._last_beat.get(node_id)

    @property
    def watched(self) -> tuple[str, ...]:
        return tuple(sorted(self._last_beat))

    def dead(self, now: float) -> list[str]:
        """Watched nodes whose last beat is older than the timeout."""
        return sorted(
            node
            for node, last in self._last_beat.items()
            if now - last > self.timeout
        )


def schedule_periodic(
    clock: SimClock,
    interval: float,
    until: float,
    tick: Callable[[], bool | None],
) -> None:
    """Run *tick* every *interval* clock seconds up to the *until* horizon.

    The first tick fires one interval from now. *tick* may return
    ``False`` to stop rescheduling (a crashed shard stops beating).
    """
    if interval <= 0:
        raise ValueError(f"interval must be > 0, got {interval}")
    clock.schedule(interval, partial(_fire, clock, interval, until, tick))


def _fire(
    clock: SimClock, interval: float, until: float, tick: Callable[[], bool | None]
) -> None:
    """One tick of a periodic timer, which schedules the next as a new
    partial: the timer holds no reference to itself, so one past its
    horizon is freed by reference counting."""
    if clock.now > until:
        return
    if tick() is False:
        return
    if clock.now + interval <= until:
        clock.schedule(interval, partial(_fire, clock, interval, until, tick))
