"""The client's bounded buffer, used as a payload cache.

"Instead, we download components most likely to be requested by the user,
using the user's buffer as a cache" (paper §4.4). Entries carry a
priority (the pre-fetcher's likelihood score); eviction removes the
lowest-priority, least-recently-used entries first, and never evicts
entries pinned by the current display.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import BufferFullError
from repro.obs import get_event_log, get_registry
from repro.util.validation import check_positive


@dataclass
class BufferEntry:
    """One cached payload."""

    key: str            # "<component-path>=<presentation-value>"
    size: int
    priority: float = 0.0
    pinned: bool = False
    last_used: int = field(default=0)


def entry_key(component: str, value: str) -> str:
    """Canonical cache key of one presentation alternative's payload."""
    return f"{component}={value}"


class ClientBuffer:
    """Size-bounded cache with priority-then-LRU eviction."""

    def __init__(self, capacity_bytes: int, owner: str = "client") -> None:
        check_positive(capacity_bytes, "capacity_bytes")
        self.capacity_bytes = int(capacity_bytes)
        self.owner = owner
        self._entries: dict[str, BufferEntry] = {}
        self._used = 0
        self._pinned = 0  # bytes of pinned entries, kept through every pin change
        self._tick = itertools.count(1)
        self.hits = 0
        self.misses = 0
        obs = get_registry()
        self._events = get_event_log()
        entries = self._entries
        obs.gauge_family("client.buffer.occupancy_bytes", ("owner",)).labels(
            owner, read=lambda: sum(entry.size for entry in entries.values())
        )
        self._m_evictions = obs.counter_family(
            "client.buffer.evictions", ("owner",)
        ).labels(owner)

    # ----- queries ---------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def lookup(self, key: str) -> BufferEntry | None:
        """Cache probe: counts hit/miss and refreshes recency on hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        entry.last_used = next(self._tick)
        return entry

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ----- admission / eviction ----------------------------------------------------

    def admit(
        self,
        key: str,
        size: int,
        priority: float = 0.0,
        pinned: bool = False,
        evict_below: float | None = None,
    ) -> bool:
        """Insert (or refresh) an entry, evicting as needed.

        Returns False without caching when the payload cannot fit even
        after evicting everything evictable. Pinned admission raises
        :class:`BufferFullError` instead — the display *needs* that entry.
        With *evict_below*, only entries of strictly lower priority may be
        sacrificed (speculative prefetches must not displace more valuable
        material).
        """
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        existing = self._entries.get(key)
        if existing is not None:
            existing.priority = max(existing.priority, priority)
            if pinned:
                self.pin(key)
            existing.last_used = next(self._tick)
            return True
        if size > self.capacity_bytes - self._pinned:
            if pinned:
                raise BufferFullError(
                    f"pinned entry {key!r} ({size}B) cannot fit in "
                    f"{self.capacity_bytes}B buffer"
                )
            return False
        if not self._evict_until(size, evict_below):
            return False
        self._entries[key] = BufferEntry(
            key=key, size=size, priority=priority, pinned=pinned,
            last_used=next(self._tick),
        )
        self._used += size
        if pinned:
            self._pinned += size
        return True

    def _evict_until(self, needed: int, evict_below: float | None = None) -> bool:
        """Free space for *needed* bytes; False when constrained eviction
        cannot (nothing is removed speculatively in that case... entries
        already evicted stay evicted, mirroring a real cache)."""
        while self.free_bytes < needed:
            victim = min(
                (
                    e
                    for e in self._entries.values()
                    if not e.pinned
                    and (evict_below is None or e.priority < evict_below)
                ),
                key=lambda e: (e.priority, e.last_used),
                default=None,
            )
            if victim is None:
                if evict_below is not None:
                    return False
                raise BufferFullError(
                    f"cannot free {needed}B: all {self._used}B are pinned"
                )
            self._m_evictions.inc()
            self._events.emit(
                "client.buffer.evict",
                severity="DEBUG",
                owner=self.owner,
                key=victim.key,
                size=victim.size,
                priority=victim.priority,
            )
            self.remove(victim.key)
        return True

    def remove(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used -= entry.size
            if entry.pinned:
                self._pinned -= entry.size

    def pin(self, key: str) -> None:
        """Protect an entry from eviction (it is on screen)."""
        entry = self._entries.get(key)
        if entry is not None and not entry.pinned:
            entry.pinned = True
            self._pinned += entry.size

    def unpin(self, key: str) -> None:
        entry = self._entries.get(key)
        if entry is not None and entry.pinned:
            entry.pinned = False
            self._pinned -= entry.size

    def unpin_all(self) -> None:
        for entry in self._entries.values():
            entry.pinned = False
        self._pinned = 0

    def clear(self) -> None:
        self._entries.clear()
        self._used = self._pinned = 0
