"""The presentation engine: per-document, per-viewer reasoning state.

Implements the behaviour of the paper's Figure 4(b) use case: whenever a
viewer's choice arrives, "determine the optimal presentations for all
relevant documents" — here, the best completion of (shared choices ∪ that
viewer's personal choices) over (author network + that viewer's
extension). Shared choices model the cooperative room ("each one of them
sees the actions of the other"); personal choices and per-viewer CP-net
extensions (§4.2) give each partner their own view of the same object,
as in the paper's Figure 9 multi-resolution example.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DocumentError
from repro.obs import get_registry
from repro.cpnet.compiled import CompletionCache, compiled_enabled, completion_key
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


class PresentationEngine:
    """Presentation reasoning for one open document."""

    def __init__(
        self,
        document: MultimediaDocument,
        completion_cache: CompletionCache | None = None,
    ) -> None:
        self.document = document
        #: Shard-scoped completion memo (repro.cpnet.compiled): shared
        #: across every engine of the owning server, so identical
        #: constraint sets from different viewers/rooms/sessions hit the
        #: same entry. ``None`` keeps the engine self-contained.
        self.completion_cache = completion_cache
        self._shared_choices: dict[str, str] = {}
        self._personal_choices: dict[str, dict[str, str]] = {}
        self._extensions: dict[str, ViewerExtension] = {}
        # Spec memoization: one shared version counter (bumped by shared
        # choices and global operations) plus a per-viewer counter (bumped
        # by that viewer's personal choices/operations). A viewer's spec
        # is valid while both counters are unchanged — so propagating a
        # personal change does not recompute every other member's view.
        self._shared_version = 0
        self._viewer_versions: dict[str, int] = {}
        self._spec_cache: dict[str, tuple[int, int, PresentationSpec]] = {}
        # ((shared version, base structure version), whether every shared
        # choice names a base variable) — see _shared_evidence.
        self._shared_on_base: tuple[tuple[int, int], bool] | None = None
        # Each viewer's live overlay token in the completion cache; the
        # entries under a token are reclaimed when it moves or she leaves.
        self._overlays: dict[str, tuple] = {}
        # Cache accounting: plain per-instance tallies (what tests and
        # `stats()` expect) plus registry children split per document, so
        # dashboards see cache behaviour without holding engine refs.
        family_hits = get_registry().counter_family(
            "presentation.spec_cache.hits", ("doc",)
        )
        family_misses = get_registry().counter_family(
            "presentation.spec_cache.misses", ("doc",)
        )
        self._m_cache_hits = family_hits.labels(document.doc_id)
        self._m_cache_misses = family_misses.labels(document.doc_id)
        self._cache_hits = 0
        self._cache_misses = 0

    @property
    def cache_hits(self) -> int:
        """Spec-cache hits by *this* engine."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Spec-cache misses by *this* engine."""
        return self._cache_misses

    # ----- viewers ----------------------------------------------------------

    def register_viewer(self, viewer_id: str) -> None:
        self._personal_choices.setdefault(viewer_id, {})
        self._extensions.setdefault(
            viewer_id, ViewerExtension(self.document.network, viewer_id)
        )

    def unregister_viewer(self, viewer_id: str) -> None:
        self._personal_choices.pop(viewer_id, None)
        self._extensions.pop(viewer_id, None)
        self._viewer_versions.pop(viewer_id, None)
        self._spec_cache.pop(viewer_id, None)
        self._track_overlay(viewer_id, ())

    @property
    def viewer_ids(self) -> tuple[str, ...]:
        return tuple(self._personal_choices)

    def extension(self, viewer_id: str) -> ViewerExtension:
        self._require_viewer(viewer_id)
        return self._extensions[viewer_id]

    def _require_viewer(self, viewer_id: str) -> None:
        if viewer_id not in self._personal_choices:
            raise DocumentError(f"viewer {viewer_id!r} is not registered")

    # ----- choices -------------------------------------------------------------

    def apply_choice(self, choice: ViewerChoice) -> None:
        """Record a choice; later choices on the same component win."""
        self._require_viewer(choice.viewer_id)
        variable = self._variable_for(choice.viewer_id, choice.component)
        variable.check_value(choice.value)
        if choice.scope == SHARED:
            self._shared_choices[choice.component] = choice.value
            # A fresh shared choice overrides older personal ones everywhere.
            for personal in self._personal_choices.values():
                personal.pop(choice.component, None)
            self._shared_version += 1
        else:
            self._personal_choices[choice.viewer_id][choice.component] = choice.value
            self._bump_viewer(choice.viewer_id)

    def clear_choice(self, viewer_id: str, component: str) -> None:
        """Withdraw constraints on *component* (back to author preference)."""
        self._require_viewer(viewer_id)
        self._shared_choices.pop(component, None)
        self._personal_choices[viewer_id].pop(component, None)
        self._shared_version += 1

    def _bump_viewer(self, viewer_id: str) -> None:
        self._viewer_versions[viewer_id] = self._viewer_versions.get(viewer_id, 0) + 1

    def invalidate(self) -> None:
        """Drop all memoized specs — call after mutating the document or
        its network outside this engine (e.g. ``document.add_component``)."""
        self._shared_version += 1
        if self.completion_cache is not None:
            self.completion_cache.invalidate(self.document.doc_id)

    def _variable_for(self, viewer_id: str, component: str):
        extension = self._extensions[viewer_id]
        if component in extension:
            return extension.variable(component)
        return self.document.network.variable(component)

    @property
    def shared_choices(self) -> dict[str, str]:
        return dict(self._shared_choices)

    def personal_choices(self, viewer_id: str) -> dict[str, str]:
        self._require_viewer(viewer_id)
        return dict(self._personal_choices[viewer_id])

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
        self._require_viewer(viewer_id)
        current = self.presentation_for(viewer_id).outcome
        if component not in current:
            raise DocumentError(f"no component {component!r} in {self.document.doc_id!r}")
        active_value = current[component]
        if global_importance:
            from repro.cpnet.updates import apply_operation as apply_global

            self._shared_version += 1
            # §4.2 precise invalidation: the instance-salted version
            # token already orphans every cached completion of this
            # document (it is in the key); reclaim the dead entries
            # eagerly so they never age out live ones.
            if self.completion_cache is not None:
                self.completion_cache.invalidate(self.document.doc_id)
            return apply_global(self.document.network, component, operation, active_value)
        self._bump_viewer(viewer_id)
        return self._extensions[viewer_id].apply_operation(component, operation, active_value)

    # ----- presentation computation ---------------------------------------------------

    def _view(
        self, viewer_id: str, extension: ViewerExtension, evidence: dict[str, str]
    ) -> PresentationView:
        """One completion sweep and one view per distinct constraint
        set, shared through the shard cache when set.

        Viewers with an empty extension key on overlay ``()`` — so two
        members imposing the same constraints hit the same entry — while
        a viewer with her own §4.2 extension keys on
        ``(viewer_id, extension_instance_id, extension_version)`` and
        never pollutes anyone else's lookups. The instance id matters: a
        viewer who leaves and rejoins gets a *fresh* extension whose
        version restarts at 0, so version alone could re-reach an old
        key with different extension content.

        The view lives in the cache entry, so whatever reclaims the
        completion (LRU, §4.2 invalidation, room close) reclaims it too
        — and it measures, when first asked, the entry's own outcome,
        finished in place: subtree hiding is idempotent and every reader
        of a cached completion applies it, so the entry needs no second dict.
        """
        document = self.document
        if not compiled_enabled() or self.completion_cache is None:
            outcome = extension.best_completion(evidence)
            return PresentationView(document, document._enforce_subtree_hiding(outcome))
        overlay = (
            (viewer_id, extension.instance_id, extension.extension_version)
            if extension.size()
            else ()
        )
        if self._overlays.get(viewer_id, ()) != overlay:
            self._track_overlay(viewer_id, overlay)
        key = completion_key(
            document.doc_id, document.network.version_token, overlay, evidence
        )
        entry = self.completion_cache.entry(key)
        if entry is None:
            entry = self.completion_cache.store(
                key, extension.best_completion(evidence)
            )
        if entry.view is None:
            entry.view = PresentationView(
                document, document._enforce_subtree_hiding(entry.outcome)
            )
        return entry.view

    def _track_overlay(self, viewer_id: str, overlay: tuple) -> None:
        """Make *overlay* the viewer's live token, reclaiming the old
        one's completions: a moved extension version (or a departed
        viewer) can never look them up again."""
        previous = self._overlays.pop(viewer_id, ())
        if previous and self.completion_cache is not None:
            self.completion_cache.drop_overlay(previous)
        if overlay:
            self._overlays[viewer_id] = overlay

    def _shared_evidence(self, extension: ViewerExtension) -> dict[str, str]:
        """A fresh dict of the shared choices that constrain one viewer.

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
            memo = self._shared_on_base = (token, on_base)
        if memo[1]:
            return dict(self._shared_choices)
        return {c: v for c, v in self._shared_choices.items() if c in extension}

    def presentation_for(self, viewer_id: str, now: float = 0.0) -> PresentationSpec:
        """The optimal presentation of the document for *viewer_id*.

        Memoized on the (shared, viewer) version pair, so recomputation
        happens only when something that could affect this viewer changed
        — propagating one member's personal choice does not re-reason
        about every other member.
        """
        self._require_viewer(viewer_id)
        versions = (
            self._shared_version,
            self._viewer_versions.get(viewer_id, 0),
        )
        cached = self._spec_cache.get(viewer_id)
        if cached is not None and cached[:2] == versions:
            self._cache_hits += 1
            self._m_cache_hits.inc()
            return cached[2]
        self._cache_misses += 1
        self._m_cache_misses.inc()
        extension = self._extensions[viewer_id]
        evidence = self._shared_evidence(extension)
        evidence.update(self._personal_choices[viewer_id])
        view = self._view(viewer_id, extension, evidence)
        spec = view.spec_for(viewer_id, computed_at=now)
        self._spec_cache[viewer_id] = (versions[0], versions[1], spec)
        return spec

    def presentations(self, now: float = 0.0) -> dict[str, PresentationSpec]:
        """Specs for every registered viewer."""
        return {v: self.presentation_for(v, now=now) for v in self.viewer_ids}
