"""Sparse-interest conference shapes (benchmark E14, chaos churn).

A conferencing room rarely has every member watching every stream: a
64-member consultation over a 50-component record where each member
follows ~4 streams is ~8% coverage, and interest-managed fan-out should
cut wire bytes roughly by that factor. These helpers carve deterministic
sparse subscription sets out of a generated record so benchmarks, tests
and the chaos workload all shape "who watches what" the same way.
"""

from __future__ import annotations

from typing import Sequence

from repro.document.component import PrimitiveMultimediaComponent
from repro.document.document import MultimediaDocument

#: Streams each member follows in the sparse-interest scenario.
STREAMS_PER_MEMBER = 4


def primitive_paths(document: MultimediaDocument) -> list[str]:
    """Sorted paths of the document's primitive components (the streams)."""
    return sorted(
        path
        for path, node in document.components().items()
        if isinstance(node, PrimitiveMultimediaComponent)
    )


def sparse_subscriptions(paths: Sequence[str], member_index: int) -> list[str]:
    """The :data:`STREAMS_PER_MEMBER` consecutive paths member
    *member_index* watches.

    Members tile the path list with wrap-around, so coverage of any one
    path is ``population * STREAMS_PER_MEMBER / len(paths)`` on average —
    sparse as long as the room watches fewer streams than it has
    member-slots.
    """
    if not paths:
        return []
    start = (member_index * STREAMS_PER_MEMBER) % len(paths)
    return [paths[(start + i) % len(paths)] for i in range(STREAMS_PER_MEMBER)]
