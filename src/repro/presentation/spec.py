"""Presentation specifications: one computed configuration plus measures."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from repro.document.document import MultimediaDocument
from repro.net.codec import value_size


class PresentationView:
    """Everything a presentation derives from its outcome alone.

    Viewer-independent, so the engine keeps one per distinct completion
    and every viewer whose constraints complete to that outcome shares
    it. ``outcome`` is shared with it — read-only here;
    :meth:`spec_for` gives each viewer's spec a copy of its own.

    The measures are taken on first read and kept: a server that only
    diffs outcomes never walks the document tree for them, and
    ``wire_bytes`` is sized only for a completion that actually ships.
    """

    def __init__(self, document: MultimediaDocument, outcome: Mapping[str, str]) -> None:
        self.document = document
        self.outcome = outcome

    @cached_property
    def visible(self) -> tuple[str, ...]:
        return self.document.visible_components(self.outcome)

    @cached_property
    def total_bytes(self) -> int:
        return self.document.presentation_bytes(self.outcome)

    @cached_property
    def wire_bytes(self) -> int:
        """Canonical encoded size of the whole outcome: what a full
        (non-diff) resend of this presentation would cost on the wire."""
        return value_size(self.outcome)

    def spec_for(self, viewer_id: str, computed_at: float = 0.0) -> PresentationSpec:
        return PresentationSpec(
            doc_id=self.document.doc_id,
            viewer_id=viewer_id,
            outcome=dict(self.outcome),
            view=self,
            computed_at=computed_at,
        )


@dataclass(frozen=True)
class PresentationSpec:
    """The outcome of one presentation computation for one viewer.

    ``outcome`` maps every component path (and any operation variables) to
    its chosen presentation value; ``visible``, ``total_bytes`` and
    ``wire_bytes`` are derived measures used by clients, the pre-fetcher
    and the benchmarks, read through the completion's shared ``view``.
    """

    doc_id: str
    viewer_id: str
    outcome: dict[str, str]
    view: PresentationView = field(repr=False, compare=False)
    computed_at: float = 0.0

    @property
    def visible(self) -> tuple[str, ...]:
        return self.view.visible

    @property
    def total_bytes(self) -> int:
        return self.view.total_bytes

    @property
    def wire_bytes(self) -> int:
        return self.view.wire_bytes

    def value(self, path: str) -> str:
        return self.outcome[path]

    def is_visible(self, path: str) -> bool:
        return path in self.visible

    def __len__(self) -> int:
        return len(self.outcome)


def build_spec(
    document: MultimediaDocument,
    viewer_id: str,
    outcome: Mapping[str, str],
    computed_at: float = 0.0,
) -> PresentationSpec:
    """Assemble a spec from a raw CP-net outcome (copied: the measures
    are read later and must be those of the outcome as given)."""
    return PresentationView(document, dict(outcome)).spec_for(viewer_id, computed_at)


def diff_presentations(
    old: Mapping[str, str] | None, new: Mapping[str, str]
) -> dict[str, str]:
    """The changed entries between two outcomes (the paper's
    "sending only the relevant parts of the object" — clients that hold
    *old* need exactly this delta to show *new*)."""
    if old is None:
        return dict(new)
    return {path: value for path, value in new.items() if old.get(path) != value}
