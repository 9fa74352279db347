"""The multimedia document: content tree + author preference network.

Implements the §5.1 interface table verbatim:

=============================  =================================================
``get_content()``              accessor to the component tree
``default_presentation()``     optimal presentation given no viewer choices
``reconfig_presentation(ev)``  optimal presentation given the viewers' choices
=============================  =================================================

Both presentation queries delegate to the CP-network, exactly as the
paper's class diagram shows.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

from repro.errors import DocumentError
from repro.cpnet.compiled import compile_cpnet, compiled_enabled, completion_key
from repro.cpnet.network import CPNet
from repro.cpnet.reasoning import best_completion, optimal_outcome
from repro.cpnet.updates import add_component_variable, remove_component_variable
from repro.document.component import (
    COMPOSITE_HIDDEN,
    CompositeMultimediaComponent,
    MultimediaComponent,
    PrimitiveMultimediaComponent,
)


class _ComponentIndex:
    """One walk of a component tree, kept until the tree changes.

    Built for the tree's :attr:`version` (the root's ``_tree_version``
    at build time) and shared by every reader; nothing here is handed
    out mutable.
    """

    __slots__ = ("version", "nodes", "components", "paths", "primitives", "hiding")

    def __init__(self, root: CompositeMultimediaComponent) -> None:
        self.version = root._tree_version
        #: Every non-root component by dotted path, pre-order.
        self.nodes: dict[str, MultimediaComponent] = {}
        #: The leaves among them.
        self.primitives: dict[str, PrimitiveMultimediaComponent] = {}
        #: Per composite with anything to hide below it (pre-order):
        #: ``(path, {descendant path: its "not displayed" value})``.
        self.hiding: list[tuple[str, dict[str, str]]] = []
        self._walk(root, "", {})
        self.hiding = [entry for entry in self.hiding if entry[1]]
        #: What callers get: a read-only window on :attr:`nodes`.
        self.components = MappingProxyType(self.nodes)
        self.paths = tuple(self.nodes)

    def _walk(
        self, composite: CompositeMultimediaComponent, prefix: str, below: dict[str, str]
    ) -> None:
        """Index *composite*'s subtree, collecting into *below* the hidden
        value of every descendant that has one."""
        for child in composite.children:
            path = prefix + child.name
            self.nodes[path] = child
            if isinstance(child, CompositeMultimediaComponent):
                below[path] = COMPOSITE_HIDDEN
                deeper: dict[str, str] = {}
                self.hiding.append((path, deeper))  # pre-order: before its subtree
                self._walk(child, path + ".", deeper)
                below.update(deeper)
            else:
                if isinstance(child, PrimitiveMultimediaComponent):
                    self.primitives[path] = child
                if COMPOSITE_HIDDEN in child.domain:
                    below[path] = COMPOSITE_HIDDEN


class MultimediaDocument:
    """A hierarchical multimedia document with CP-net-driven presentation.

    Parameters
    ----------
    doc_id:
        Database identity of the document.
    root:
        The content tree (e.g. the actual Medical Record).
    network:
        The author's CP-network. It must contain exactly one variable per
        non-root component, named by the component's dotted path, with the
        component's domain (checked eagerly).
    title:
        Human-readable title.
    """

    def __init__(
        self,
        doc_id: str,
        root: CompositeMultimediaComponent,
        network: CPNet,
        title: str = "",
    ) -> None:
        if not isinstance(root, CompositeMultimediaComponent):
            raise DocumentError("document root must be a composite component")
        self.doc_id = doc_id
        self.title = title or doc_id
        self._root = root
        self._network = network
        self._component_index: _ComponentIndex | None = None
        self._check_alignment()

    # ----- structure ------------------------------------------------------------

    def get_content(self) -> CompositeMultimediaComponent:
        """Accessor method to the component tree (paper §5.1)."""
        return self._root

    @property
    def network(self) -> CPNet:
        """The author's CP-network (a *static part* of the document)."""
        return self._network

    def component(self, path: str) -> MultimediaComponent:
        """Resolve a component by dotted path from the root."""
        return self._root.find(path)

    def _index(self) -> _ComponentIndex:
        """The component index, re-walked only after ``add``/``remove``
        changed the tree (anywhere in it, through the document or not)."""
        index = self._component_index
        if index is None or index.version != self._root._tree_version:
            index = self._component_index = _ComponentIndex(self._root)
        return index

    def components(self) -> Mapping[str, MultimediaComponent]:
        """All non-root components keyed by path (pre-order), read-only."""
        return self._index().components

    def component_paths(self) -> tuple[str, ...]:
        return self._index().paths

    def _check_alignment(self) -> None:
        components = self._index().nodes
        missing = [path for path in components if path not in self._network]
        if missing:
            raise DocumentError(
                f"document {self.doc_id!r}: CP-net has no variable for components {missing}"
            )
        extra = [
            name
            for name in self._network.variable_names
            if name not in components and not self._is_operation_variable(name, components)
        ]
        if extra:
            raise DocumentError(
                f"document {self.doc_id!r}: CP-net variables without components: {extra}"
            )
        for path, node in components.items():
            declared = self._network.variable(path).domain
            if set(declared) != set(node.domain):
                raise DocumentError(
                    f"component {path!r} domain {node.domain} does not match "
                    f"CP-net domain {declared}"
                )

    @staticmethod
    def _is_operation_variable(name: str, components: Mapping[str, object]) -> bool:
        """Non-component variables the network may legitimately hold:
        operation variables ``<component-path>.<operation>`` (§4.2) and
        reserved ``tuning.*`` variables (§4.4)."""
        if name.startswith("tuning."):
            return True
        prefix, _, __ = name.rpartition(".")
        return prefix in components

    # ----- presentation queries ---------------------------------------------------

    def default_presentation(self) -> dict[str, str]:
        """The optimal presentation given no choices of the viewers."""
        return self._enforce_subtree_hiding(self._best_completion({}))

    def reconfig_presentation(
        self, events: Mapping[str, str] | Iterable[tuple[str, str]]
    ) -> dict[str, str]:
        """Optimal configuration given the viewers' recent decisions.

        *events* maps component paths to the presentation value the viewer
        explicitly chose (later duplicates win, matching "recent choices").
        """
        evidence = dict(events if isinstance(events, Mapping) else list(events))
        return self._enforce_subtree_hiding(self._best_completion(evidence))

    def _best_completion(self, evidence: Mapping[str, str]) -> dict[str, str]:
        """One sweep over the author network, compiled when enabled and
        then answered from the compilation's memo — the one a
        presentation engine serving this document reads too."""
        if not compiled_enabled():
            if not evidence:
                return optimal_outcome(self._network)
            return best_completion(self._network, evidence)
        compiled = compile_cpnet(self._network)
        key = completion_key(evidence)
        cached = compiled.completions.lookup(key)
        if cached is not None:
            return cached
        outcome = compiled.best_completion(evidence)
        compiled.completions.store(key, outcome)
        return outcome

    def _enforce_subtree_hiding(self, outcome: dict[str, str]) -> dict[str, str]:
        """Hiding a composite hides every descendant, whatever the CPT says."""
        for path, hidden_below in self._index().hiding:
            if outcome.get(path) == COMPOSITE_HIDDEN:
                outcome.update(hidden_below)
        return outcome

    # ----- derived measures ----------------------------------------------------------

    def presentation_bytes(self, outcome: Mapping[str, str]) -> int:
        """Total bytes a client must receive to render *outcome*."""
        total = 0
        for path, node in self._index().nodes.items():
            if path in outcome:
                total += node.presentation_size(outcome[path])
        return total

    def visible_components(self, outcome: Mapping[str, str]) -> tuple[str, ...]:
        """Paths whose chosen presentation actually displays something."""
        index = self._index()
        primitives = index.primitives
        visible = []
        for path in index.paths:
            value = outcome.get(path)
            if value is None or value == COMPOSITE_HIDDEN:
                continue
            node = primitives.get(path)
            if node is not None and node.presentation(value).is_hidden:
                continue
            visible.append(path)
        return tuple(visible)

    # ----- online updates (delegating the §4.2 policies) ---------------------------

    def add_component(
        self,
        parent_path: str | None,
        component: MultimediaComponent,
        network_parents: Iterable[str] = (),
        preferred_order: Iterable[str] | None = None,
    ) -> MultimediaComponent:
        """Attach a new component and register it in the CP-network."""
        parent = self._root if parent_path is None else self._root.find(parent_path)
        if not isinstance(parent, CompositeMultimediaComponent):
            raise DocumentError(f"{parent_path!r} is not a composite component")
        parent.add(component)
        try:
            add_component_variable(
                self._network,
                component.path,
                component.domain,
                parents=network_parents,
                preferred_order=preferred_order,
                description=component.description,
            )
        except Exception:
            parent.remove(component.name)
            raise
        return component

    def remove_component(self, path: str) -> MultimediaComponent:
        """Detach a leaf-of-interest component and drop its CP-net variable(s)."""
        node = self._root.find(path)
        if isinstance(node, CompositeMultimediaComponent) and node.children:
            raise DocumentError(f"remove children of {path!r} first")
        if node.parent is None:
            raise DocumentError("cannot remove the document root")
        node.parent.remove(node.name)
        # Drop the component variable and any operation variables hanging off it.
        for name in list(self._network.variable_names):
            if name == path or name.startswith(path + "."):
                if name in self._network:
                    remove_component_variable(self._network, name)
        return node

    def __repr__(self) -> str:
        return (
            f"MultimediaDocument({self.doc_id!r}, {len(self._index().paths)} components, "
            f"net={len(self._network)} vars)"
        )
