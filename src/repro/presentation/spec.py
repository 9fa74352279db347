"""Presentation specifications: one computed configuration plus measures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.document.document import MultimediaDocument
from repro.net.codec import value_size


@dataclass(frozen=True)
class PresentationSpec:
    """The outcome of one presentation computation for one viewer.

    ``outcome`` maps every component path (and any operation variables) to
    its chosen presentation value; the remaining fields are derived
    measures used by clients, the pre-fetcher and the benchmarks.
    """

    doc_id: str
    viewer_id: str
    outcome: dict[str, str]
    visible: tuple[str, ...]
    total_bytes: int
    #: Canonical encoded size of the whole outcome: what a full (non-diff)
    #: resend of this presentation would cost on the wire.
    wire_bytes: int
    computed_at: float = 0.0

    def value(self, path: str) -> str:
        return self.outcome[path]

    def is_visible(self, path: str) -> bool:
        return path in self.visible

    def __len__(self) -> int:
        return len(self.outcome)


@dataclass(frozen=True)
class PresentationView:
    """Everything a presentation derives from its outcome alone.

    Viewer-independent, so the engine derives it once per distinct
    completion and every viewer whose constraints complete to that
    outcome shares it. ``outcome`` is shared with it — read-only here;
    :meth:`spec_for` gives each viewer's spec a copy of its own.
    """

    outcome: Mapping[str, str]
    visible: tuple[str, ...]
    total_bytes: int
    wire_bytes: int

    def spec_for(
        self, doc_id: str, viewer_id: str, computed_at: float = 0.0
    ) -> PresentationSpec:
        return PresentationSpec(
            doc_id=doc_id,
            viewer_id=viewer_id,
            outcome=dict(self.outcome),
            visible=self.visible,
            total_bytes=self.total_bytes,
            wire_bytes=self.wire_bytes,
            computed_at=computed_at,
        )


def derive_view(
    document: MultimediaDocument, outcome: Mapping[str, str]
) -> PresentationView:
    """Measure *outcome* as given (the view keeps it, uncopied)."""
    return PresentationView(
        outcome=outcome,
        visible=document.visible_components(outcome),
        total_bytes=document.presentation_bytes(outcome),
        wire_bytes=value_size(outcome),
    )


def build_spec(
    document: MultimediaDocument,
    viewer_id: str,
    outcome: Mapping[str, str],
    computed_at: float = 0.0,
) -> PresentationSpec:
    """Assemble a spec from a raw CP-net outcome."""
    return derive_view(document, outcome).spec_for(
        document.doc_id, viewer_id, computed_at
    )


def diff_presentations(
    old: Mapping[str, str] | None, new: Mapping[str, str]
) -> dict[str, str]:
    """The changed entries between two outcomes (the paper's
    "sending only the relevant parts of the object" — clients that hold
    *old* need exactly this delta to show *new*)."""
    if old is None:
        return dict(new)
    return {path: value for path, value in new.items() if old.get(path) != value}
