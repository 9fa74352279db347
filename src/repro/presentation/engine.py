"""The presentation engine: per-document, per-viewer reasoning state.

Implements the behaviour of the paper's Figure 4(b) use case: whenever a
viewer's choice arrives, "determine the optimal presentations for all
relevant documents" — here, the best completion of (shared choices ∪ that
viewer's personal choices) over (author network + that viewer's
extension). Shared choices model the cooperative room ("each one of them
sees the actions of the other"); personal choices and per-viewer CP-net
extensions (§4.2) give each partner their own view of the same object,
as in the paper's Figure 9 multi-resolution example.

Base variables never depend on extension variables, so that completion
splits exactly: the base net's completion of the constraints on base
variables — one per distinct constraint set, shared by every viewer who
imposes it — plus the viewer's own overlay, swept over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import DocumentError
from repro.obs import get_registry
from repro.cpnet.compiled import compile_cpnet, compiled_enabled, completion_key
from repro.cpnet.reasoning import best_completion
from repro.cpnet.updates import OperationVariable, ViewerExtension
from repro.document.document import MultimediaDocument
from repro.presentation.spec import PresentationSpec, PresentationView

#: Choice scopes.
SHARED = "shared"
PERSONAL = "personal"


@dataclass(frozen=True)
class ViewerChoice:
    """One explicit presentation choice by a viewer.

    ``scope`` is :data:`SHARED` (constrains everyone's presentation — the
    cooperative default) or :data:`PERSONAL` (constrains only this
    viewer, e.g. a resolution pick driven by their bandwidth).
    """

    viewer_id: str
    component: str
    value: str
    scope: str = SHARED

    def __post_init__(self) -> None:
        if self.scope not in (SHARED, PERSONAL):
            raise ValueError(f"scope must be 'shared' or 'personal', got {self.scope!r}")


class _Viewer:
    """Everything the engine keeps for one registered viewer.

    ``version`` is bumped by her personal choices and local operations;
    ``spec`` is her memoized ``(shared version, version, spec)``.
    """

    __slots__ = ("personal", "extension", "version", "spec")

    def __init__(self, extension: ViewerExtension) -> None:
        self.personal: dict[str, str] = {}
        self.extension = extension
        self.version = 0
        self.spec: tuple[int, int, PresentationSpec] | None = None


class PresentationEngine:
    """Presentation reasoning for one open document."""

    def __init__(self, document: MultimediaDocument) -> None:
        self.document = document
        self._shared_choices: dict[str, str] = {}
        self._viewers: dict[str, _Viewer] = {}
        # Spec memoization: one shared version counter (bumped by shared
        # choices and global operations) plus a per-viewer counter (bumped
        # by that viewer's personal choices/operations). A viewer's spec
        # is valid while both counters are unchanged — so propagating a
        # personal change does not recompute every other member's view.
        self._shared_version = 0
        # ((shared version, base structure version), the completion key of
        # the shared choices, or None unless every one names a base
        # variable) — see _shared_evidence.
        self._shared_on_base: tuple[tuple[int, int], tuple | None] | None = None
        # Cache accounting: this engine's own tally, which the registry
        # reads per document (dashboards see cache behaviour without
        # holding engine refs; a primary's and a standby's engine on one
        # document sum).
        tally = self._cache = {"hits": 0, "misses": 0}
        registry = get_registry()
        self._families = (
            registry.counter_family("presentation.spec_cache.hits", ("doc",)),
            registry.counter_family("presentation.spec_cache.misses", ("doc",)),
        )
        hits, misses = self._families
        hits.labels(document.doc_id, read=lambda: tally["hits"])
        misses.labels(document.doc_id, read=lambda: tally["misses"])

    def close(self) -> None:
        """The document is no longer served: its labelled series go."""
        for family in self._families:
            family.remove(self.document.doc_id)

    @property
    def cache_hits(self) -> int:
        """Spec-cache hits by *this* engine."""
        return self._cache["hits"]

    @property
    def cache_misses(self) -> int:
        """Spec-cache misses by *this* engine."""
        return self._cache["misses"]

    # ----- viewers ----------------------------------------------------------

    def register_viewer(self, viewer_id: str) -> None:
        if viewer_id not in self._viewers:
            self._viewers[viewer_id] = _Viewer(
                ViewerExtension(self.document.network, viewer_id)
            )

    def unregister_viewer(self, viewer_id: str) -> None:
        self._viewers.pop(viewer_id, None)

    @property
    def viewer_ids(self) -> tuple[str, ...]:
        return tuple(self._viewers)

    def extension(self, viewer_id: str) -> ViewerExtension:
        return self._viewer(viewer_id).extension

    def _viewer(self, viewer_id: str) -> _Viewer:
        try:
            return self._viewers[viewer_id]
        except KeyError:
            raise DocumentError(f"viewer {viewer_id!r} is not registered") from None

    # ----- choices -------------------------------------------------------------

    def apply_choice(self, choice: ViewerChoice) -> None:
        """Record a choice; later choices on the same component win."""
        viewer = self._viewer(choice.viewer_id)
        viewer.extension.variable(choice.component).check_value(choice.value)
        if choice.scope == SHARED:
            self._shared_choices[choice.component] = choice.value
            # A fresh shared choice overrides older personal ones everywhere.
            for other in self._viewers.values():
                other.personal.pop(choice.component, None)
            self._shared_version += 1
        else:
            viewer.personal[choice.component] = choice.value
            viewer.version += 1

    def clear_choice(self, viewer_id: str, component: str) -> None:
        """Withdraw constraints on *component* (back to author preference)."""
        viewer = self._viewer(viewer_id)
        self._shared_choices.pop(component, None)
        viewer.personal.pop(component, None)
        self._shared_version += 1

    def invalidate(self) -> None:
        """Drop all memoized specs — call after mutating the document or
        its network outside this engine (e.g. ``document.add_component``).
        Completions need no call: they left with the old compilation."""
        self._shared_version += 1

    @property
    def shared_choices(self) -> dict[str, str]:
        return dict(self._shared_choices)

    def personal_choices(self, viewer_id: str) -> dict[str, str]:
        return dict(self._viewer(viewer_id).personal)

    # ----- operations (§4.2) ------------------------------------------------------

    def apply_operation(
        self,
        viewer_id: str,
        component: str,
        operation: str,
        global_importance: bool = False,
    ) -> OperationVariable:
        """A viewer performed an operation on a component.

        The new operation variable's *active value* is the form the
        component currently takes in this viewer's presentation. With
        ``global_importance`` the shared network is updated for everyone;
        otherwise only this viewer's extension grows.
        """
        viewer = self._viewer(viewer_id)
        active_value = self.presentation_for(viewer_id).get(component)
        if active_value is None:
            raise DocumentError(f"no component {component!r} in {self.document.doc_id!r}")
        if global_importance:
            from repro.cpnet.updates import apply_operation as apply_global

            self._shared_version += 1
            return apply_global(self.document.network, component, operation, active_value)
        viewer.version += 1
        return viewer.extension.apply_operation(component, operation, active_value)

    # ----- presentation computation ---------------------------------------------------

    def _base_view(
        self, evidence: dict[str, str], key: tuple, check: Callable[[], None] | None = None
    ) -> PresentationView:
        """One base completion and one view per distinct constraint set on
        the base net, shared by every viewer imposing it — whatever their
        overlays — and by the document's own §5.1 queries.

        The view lives in the memo entry, so it goes wherever the
        completion goes. Subtree hiding is finished in place on the
        entry's own outcome (it is idempotent, and every reader of a
        cached completion applies it); the few values it overwrote are
        kept beside it, for overlays. *key* is the evidence's completion
        key. A completion is swept only after *check* passed, so an entry's
        evidence is valid for its compilation.
        """
        document = self.document
        if not compiled_enabled():
            if check is not None:
                check()
            return _finish(document, best_completion(document.network, evidence))
        compiled = compile_cpnet(document.network)
        completions = compiled.completions
        entry = completions.entry(key)
        if entry is None:
            if check is not None:
                check()
            entry = completions.store(key, compiled.best_completion(evidence))
        if entry.view is None:
            entry.view = _finish(document, entry.outcome)
        return entry.view

    def _spec(
        self,
        viewer_id: str,
        extension: ViewerExtension,
        evidence: dict[str, str],
        key: tuple | None,
        now: float,
    ) -> PresentationSpec:
        """The pair (shared base view, own overlay) for one viewer. *key*
        is the completion key of *evidence* if it names base variables
        only, else None."""
        network = self.document.network
        if key is not None:
            view = self._base_view(evidence, key)
        else:
            base = {name: value for name, value in evidence.items() if name in network}
            own = {name: value for name, value in evidence.items() if name not in network}
            # Errors as one whole sweep raises them: all of the evidence,
            # in order, before a base sweep; past a memo hit, whose base
            # evidence is known valid, only the rest.
            view = self._base_view(base, completion_key(base), lambda: _check(extension, evidence))
            _check(extension, own)
        if not extension.size():
            return view.spec_for(viewer_id, now)
        values = view.outcome
        if view.before_hiding:
            values = {**values, **view.before_hiding}
        overlay = extension.overlay(evidence, values)
        shadowed = {name: overlay.pop(name) for name in list(overlay) if name in view.outcome}
        if shadowed:
            # A global operation minted a base variable of an overlay
            # variable's name: the viewer's value shows in its base place.
            view = PresentationView(self.document, {**view.outcome, **shadowed})
        return view.spec_for(viewer_id, now, overlay)

    def _shared_evidence(
        self, extension: ViewerExtension
    ) -> tuple[dict[str, str], tuple | None]:
        """The shared choices that constrain one viewer (read-only), and
        their completion key if they all name base variables, else None.

        A shared choice applies to a viewer when it names a base variable
        or one of her own extension variables. While every shared choice
        names a base variable — the common case — that is all of them,
        for every member alike; the check is made once per (shared
        change, base structure version), and only a choice outside the
        base net (someone's extension variable, a removed component)
        sends each viewer through her own filter.
        """
        network = self.document.network
        token = (self._shared_version, network.structure_version)
        memo = self._shared_on_base
        if memo is None or memo[0] != token:
            on_base = all(map(network.__contains__, self._shared_choices))
            key = completion_key(self._shared_choices) if on_base else None
            memo = self._shared_on_base = (token, key)
        if memo[1] is not None:
            return self._shared_choices, memo[1]
        return {c: v for c, v in self._shared_choices.items() if c in extension}, None

    def presentation_for(self, viewer_id: str, now: float = 0.0) -> PresentationSpec:
        """The optimal presentation of the document for *viewer_id*.

        Memoized on the (shared, viewer) version pair, so recomputation
        happens only when something that could affect this viewer changed
        — propagating one member's personal choice does not re-reason
        about every other member.
        """
        viewer = self._viewer(viewer_id)
        shared, own = self._shared_version, viewer.version
        cached = viewer.spec
        if cached is not None and cached[0] == shared and cached[1] == own:
            self._cache["hits"] += 1
            return cached[2]
        self._cache["misses"] += 1
        extension = viewer.extension
        evidence, key = self._shared_evidence(extension)
        personal = viewer.personal
        if personal:
            on_base = key is not None and all(map(self.document.network.__contains__, personal))
            evidence = {**evidence, **personal}
            key = completion_key(evidence) if on_base else None
        spec = self._spec(viewer_id, extension, evidence, key, now)
        viewer.spec = (shared, own, spec)
        return spec

    def presentations(self, now: float = 0.0) -> dict[str, PresentationSpec]:
        """Specs for every registered viewer."""
        return {v: self.presentation_for(v, now=now) for v in self.viewer_ids}


def _check(extension: ViewerExtension, evidence: dict[str, str]) -> None:
    for name, value in evidence.items():
        extension.variable(name).check_value(value)


def _finish(document: MultimediaDocument, outcome: dict[str, str]) -> PresentationView:
    """The view of a base completion, subtree hiding finished in place."""
    before = dict(outcome)
    view = PresentationView(document, document._enforce_subtree_hiding(outcome))
    if before != outcome:
        view.before_hiding = {
            path: value for path, value in before.items() if outcome[path] != value
        }
    return view
