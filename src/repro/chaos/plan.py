"""Declarative, seeded fault plans.

A :class:`FaultPlan` is the complete description of one chaos run: the
per-frame fault rates (drop, duplicate, reorder, corrupt), the
partition windows on the time axis, and the single RNG —
``random.Random(seed)`` — every probabilistic decision is drawn from.
Same seed, same workload, same faults: a chaos failure is a test case
you can re-run, not a flake you chase.

The plan is pure policy. The enforcement hook is
:class:`repro.chaos.network.ChaosNetwork`, which consults
:meth:`FaultPlan.decide` for every frame it is about to put on a wire.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ChaosError
from repro.util.validation import check_probability

#: Fault action names (the labels on the ``chaos.injected`` counter).
DROP = "drop"
DUPLICATE = "duplicate"
REORDER = "reorder"
CORRUPT = "corrupt"
PARTITION_DROP = "partition_drop"

#: Kinds probabilistic faults never touch. Heartbeats are exempt:
#: lossy-link failure *detection* is a different experiment from
#: lossy-link *delivery* — a spurious promotion makes "byte-identical to
#: the control" the wrong assertion. Partitions still cut heartbeats (a
#: partition severs everything).
PROTECTED_KINDS = ("heartbeat",)

#: Upper bound of the extra delay a reordered frame waits, in sim-s.
REORDER_MAX_S = 0.05


@dataclass(frozen=True)
class PartitionWindow:
    """All traffic between node sets *a* and *b* is cut in [start, end)."""

    a: frozenset[str]
    b: frozenset[str]
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ChaosError(f"empty partition window [{self.start}, {self.end})")
        if self.a & self.b:
            raise ChaosError(f"partition sides overlap: {sorted(self.a & self.b)}")

    def cuts(self, sender: str, recipient: str, now: float) -> bool:
        if not (self.start <= now < self.end):
            return False
        return (sender in self.a and recipient in self.b) or (
            sender in self.b and recipient in self.a
        )


@dataclass
class FaultPlan:
    """Seeded fault policy for one chaos run.

    Rates are independent per-frame probabilities, applied in priority
    order drop > corrupt > duplicate > reorder (at most one fault per
    transmission, so a 30%-loss experiment means 30% loss). ``kinds``
    (when set) restricts probabilistic faults to those message kinds;
    :data:`PROTECTED_KINDS` are always exempt. Partition windows are
    added with :meth:`partition`.
    """

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    kinds: tuple[str, ...] | None = None
    partitions: list[PartitionWindow] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        for name in ("drop_rate", "dup_rate", "reorder_rate", "corrupt_rate"):
            check_probability(getattr(self, name), name)
        self._rng = random.Random(self.seed)

    # ----- schedule construction --------------------------------------------------

    def partition(
        self, a: Iterable[str], b: Iterable[str], start: float, end: float
    ) -> PartitionWindow:
        """Add (and return) a partition window between node sets."""
        window = PartitionWindow(frozenset(a), frozenset(b), start, end)
        self.partitions.append(window)
        return window

    # ----- per-frame decisions -----------------------------------------------------

    def severed(self, sender: str, recipient: str, now: float) -> str | None:
        """Partition verdict for a frame, or None when the path is up."""
        for window in self.partitions:
            if window.cuts(sender, recipient, now):
                return PARTITION_DROP
        return None

    def decide(self, kind: str) -> tuple[str, float] | None:
        """Probabilistic fault for one transmission: (action, extra_delay).

        Returns None for clean transmission. Deterministic in the
        sequence of calls — all randomness comes from the plan's seed.
        """
        if kind in PROTECTED_KINDS:
            return None
        if self.kinds is not None and kind not in self.kinds:
            return None
        roll = self._rng.random
        if self.drop_rate and roll() < self.drop_rate:
            return (DROP, 0.0)
        if self.corrupt_rate and roll() < self.corrupt_rate:
            return (CORRUPT, 0.0)
        if self.dup_rate and roll() < self.dup_rate:
            return (DUPLICATE, 0.0)
        if self.reorder_rate and roll() < self.reorder_rate:
            return (REORDER, roll() * REORDER_MAX_S)
        return None
