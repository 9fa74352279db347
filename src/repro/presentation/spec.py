"""Presentation specifications: one computed configuration plus measures."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping

from repro.document.document import MultimediaDocument

#: The empty overlay / nothing withheld: shared, so it is read-only.
NOTHING: Mapping[str, Any] = MappingProxyType({})


class PresentationView:
    """Everything a presentation derives from its base completion alone.

    Viewer-independent, so the engine keeps one per distinct completion
    of the base net and every viewer whose base constraints complete to
    it shares it, whatever their §4.2 overlays. ``outcome`` is shared
    with it — read-only here; a spec's ``outcome`` is a private copy.
    ``before_hiding`` holds the values subtree hiding overwrote in
    ``outcome``: an overlay is swept over the completion as the sweep
    left it, so an operation on a component under a hidden section still
    sees the component's own value.

    The measures are taken on first read and kept: a server that only
    diffs outcomes never walks the document tree for them. Overlay
    variables are never component paths, so they measure nothing. A view
    lives in its document's completion memo, so it holds the document
    weakly: measures are read while the document lives.
    """

    before_hiding: Mapping[str, str] = NOTHING

    def __init__(self, document: MultimediaDocument, outcome: Mapping[str, str]) -> None:
        self.doc_id = document.doc_id
        self._document = weakref.ref(document)
        self.outcome = outcome

    @cached_property
    def visible(self) -> tuple[str, ...]:
        return self._document().visible_components(self.outcome)

    @cached_property
    def total_bytes(self) -> int:
        return self._document().presentation_bytes(self.outcome)

    def spec_for(
        self,
        viewer_id: str,
        computed_at: float = 0.0,
        overlay: Mapping[str, str] = NOTHING,
    ) -> PresentationSpec:
        return PresentationSpec(self.doc_id, viewer_id, self, overlay, computed_at)


@dataclass(frozen=True, eq=False)
class PresentationSpec:
    """The outcome of one presentation computation for one viewer.

    The pair (``view``, ``overlay``): the room's shared base completion
    and this viewer's own §4.2 extension variables, which never name a
    base variable. Both are shared and never mutated. ``outcome`` maps
    every component path (and any operation variables) to its chosen
    presentation value — base topological order, then extension
    insertion order — as a private copy made when first read;
    ``visible`` and ``total_bytes`` are derived measures used by
    clients, the pre-fetcher and the benchmarks, read through ``view``.
    """

    doc_id: str
    viewer_id: str
    view: PresentationView = field(repr=False)
    overlay: Mapping[str, str] = field(repr=False)
    computed_at: float = 0.0

    @cached_property
    def outcome(self) -> dict[str, str]:
        return {**self.view.outcome, **self.overlay}

    @property
    def visible(self) -> tuple[str, ...]:
        return self.view.visible

    @property
    def total_bytes(self) -> int:
        return self.view.total_bytes

    def get(self, path: str, default: str | None = None) -> str | None:
        """One entry of the outcome, read without materializing it."""
        if path in self.overlay:
            return self.overlay[path]
        return self.view.outcome.get(path, default)

    def value(self, path: str) -> str:
        return self.outcome[path]

    def __len__(self) -> int:
        return len(self.outcome)


def build_spec(
    document: MultimediaDocument,
    viewer_id: str,
    outcome: Mapping[str, str],
) -> PresentationSpec:
    """Assemble a spec from a raw CP-net outcome (copied: the measures
    are read later and must be those of the outcome as given)."""
    return PresentationView(document, dict(outcome)).spec_for(viewer_id)


def diff_presentations(
    old: Mapping[str, str] | None, new: Mapping[str, str]
) -> dict[str, str]:
    """The changed entries between two outcomes (the paper's
    "sending only the relevant parts of the object" — clients that hold
    *old* need exactly this delta to show *new*)."""
    if old is None:
        return dict(new)
    return {path: value for path, value in new.items() if old.get(path) != value}


#: What a member is known to display: the spec it was last told, and for
#: each entry its interest filter has withheld since, what it shows there
#: instead (``None``: nothing). Both parts are shared and never mutated.
Told = tuple[PresentationSpec, Mapping[str, "str | None"]]


def _items(spec: PresentationSpec) -> Iterator[tuple[str, str]]:
    return chain(spec.view.outcome.items(), spec.overlay.items())


def _shown(told: Told) -> Callable[[str], str | None]:
    """path -> what *told*'s member displays there (``None``: nothing)."""
    spec, withheld = told
    overlay, base = spec.overlay, spec.view.outcome

    def shown(path: str) -> str | None:
        if path in withheld:
            return withheld[path]
        return overlay[path] if path in overlay else base.get(path)

    return shown


def displayed(told: Told) -> dict[str, str]:
    """The display *told* describes, as a fresh dict."""
    shown = dict(_items(told[0]))
    for path, value in told[1].items():
        if value is None:
            shown.pop(path, None)
        else:
            shown[path] = value
    return shown


class Transitions:
    """One change's propagation arithmetic (§5.3, "only the relevant
    parts"): what each member must be told, and what it then displays.

    Members share base completions, so they share moves between them:
    each distinct (told base completion, new base completion) pair is
    diffed once per change, however many members make that move; only
    a member's own overlay and withheld entries are looked at per member.
    """

    def __init__(self) -> None:
        self._moves: dict[
            tuple[PresentationView, PresentationView], tuple[dict[str, str], Any]
        ] = {}

    def _move(self, old: PresentationView, new: PresentationView) -> tuple[dict[str, str], Any]:
        """(entries of *new* that differ from *old*, paths only *old* has)."""
        move = self._moves.get((old, new))
        if move is None:
            move = ({}, ()) if old is new else (
                diff_presentations(old.outcome, new.outcome),
                old.outcome.keys() - new.outcome.keys(),
            )
            self._moves[old, new] = move
        return move

    def delta(self, told: Told | None, spec: PresentationSpec) -> dict[str, str]:
        """Every entry of *spec* the member of *told* does not display, in
        *spec*'s key order. Read-only: members making the same move share it."""
        if told is None:
            return dict(_items(spec))
        old, withheld = told
        was, base = old.overlay, old.view.outcome
        if withheld or not was.keys().isdisjoint(spec.view.outcome):
            return {  # _shown(told), inlined: one test per entry
                path: value
                for path, value in _items(spec)
                if (
                    withheld[path] if path in withheld
                    else was[path] if path in was else base.get(path)
                ) != value
            }
        moved = self._move(old.view, spec.view)[0]
        if not spec.overlay:
            return moved
        own = {
            path: value
            for path, value in spec.overlay.items()
            if was.get(path, base.get(path)) != value
        }
        return {**moved, **own} if own else moved

    def after(
        self,
        told: Told | None,
        spec: PresentationSpec,
        delta: Mapping[str, str],
        sent: Mapping[str, str],
    ) -> Told:
        """What the member of *told* displays once *sent* — the part of
        *delta* its interest lets it be told — has reached it."""
        shown = _shown(told) if told is not None else lambda path: None
        withheld: dict[str, str | None] = {}
        if len(sent) != len(delta):
            withheld = {path: shown(path) for path in delta if path not in sent}
        if told is None:
            return spec, withheld or NOTHING
        old, was = told
        gone = self._move(old.view, spec.view)[1]
        base, own = spec.view.outcome, spec.overlay
        if gone or was or not old.overlay.keys() <= own.keys():
            # Entries it still shows that *spec* no longer mentions.
            for path in chain(gone, old.overlay, was):
                if path not in base and path not in own:
                    value = shown(path)
                    if value is not None:
                        withheld[path] = value
        return spec, withheld or NOTHING
