"""Deterministic identifier generation.

The simulation layers (server, rooms, transfers) need ids that are unique
*and* reproducible run-to-run, so tests and benchmarks are deterministic.
We therefore use per-prefix counters rather than UUIDs.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict


class IdGenerator:
    """Thread-safe generator of ids like ``"room-1"``, ``"room-2"``, ...

    Each :class:`IdGenerator` keeps an independent counter per prefix, so a
    fresh generator always restarts numbering — which is what simulations
    want for reproducibility.

    With a *namespace* every id is prefixed ``"<namespace>:"`` — two
    generators with distinct namespaces can never mint the same id, which
    is what keeps room/session ids from different ``InteractionServer``
    instances collision-free at the cluster gateway.
    """

    def __init__(self, namespace: str | None = None) -> None:
        self.namespace = namespace
        self._counters: dict[str, itertools.count] = defaultdict(lambda: itertools.count(1))
        self._lock = threading.Lock()

    def next(self, prefix: str) -> str:
        """Return the next id for *prefix*."""
        with self._lock:
            number = next(self._counters[prefix])
        if self.namespace is not None:
            return f"{self.namespace}:{prefix}-{number}"
        return f"{prefix}-{number}"

    def reset(self) -> None:
        """Restart every counter at 1."""
        with self._lock:
            self._counters.clear()
