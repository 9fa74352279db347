"""Author-side builder assembling a document tree and its CP-network together.

The builder keeps the two halves aligned by construction: every component
automatically becomes a CP-net variable (named by its path, with the
component's presentation domain); preference statements then reference
components by path. Components without any explicit preference get the
default "first alternative preferred" rule, mirroring
:func:`repro.cpnet.updates.add_component_variable`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import DocumentError
from repro.cpnet.network import CPNet
from repro.document.component import (
    CompositeMultimediaComponent,
    PrimitiveMultimediaComponent,
)
from repro.document.document import MultimediaDocument
from repro.document.presentation import MMPresentation


class DocumentBuilder:
    """Fluent construction of a :class:`MultimediaDocument`.

    Example::

        doc = (
            DocumentBuilder("record-17", title="Patient 17")
            .composite("imaging")
            .primitive("imaging.ct", [JPGImage("flat", 512_000), Hidden()])
            .depends("imaging.ct", on=["imaging"])
            .prefer_when("imaging.ct", {"imaging": "shown"}, ["flat", "hidden"])
            .prefer_when("imaging.ct", {}, ["hidden", "flat"])
            .build()
        )
    """

    def __init__(self, doc_id: str, title: str = "", root_name: str = "root") -> None:
        self.doc_id = doc_id
        self.title = title
        self._root = CompositeMultimediaComponent(root_name, description=title)
        self._parents: dict[str, tuple[str, ...]] = {}
        self._rules: dict[str, list[tuple[dict[str, str], tuple[str, ...]]]] = {}
        self._built = False

    # ----- tree ----------------------------------------------------------------

    def composite(self, path: str, description: str = "") -> "DocumentBuilder":
        """Add an internal grouping node at *path* (parents must exist)."""
        self._check_open()
        parent, name = self._resolve_parent(path)
        parent.add(CompositeMultimediaComponent(name, description))
        return self

    def primitive(
        self,
        path: str,
        presentations: Iterable[MMPresentation],
        description: str = "",
    ) -> "DocumentBuilder":
        """Add a leaf component with its presentation alternatives."""
        self._check_open()
        parent, name = self._resolve_parent(path)
        parent.add(PrimitiveMultimediaComponent(name, presentations, description))
        return self

    def _resolve_parent(self, path: str) -> tuple[CompositeMultimediaComponent, str]:
        prefix, _, name = path.rpartition(".")
        parent = self._root if not prefix else self._root.find(prefix)
        if not isinstance(parent, CompositeMultimediaComponent):
            raise DocumentError(f"parent of {path!r} is not a composite component")
        return parent, name

    # ----- preferences ------------------------------------------------------------

    def depends(self, path: str, on: Iterable[str]) -> "DocumentBuilder":
        """Declare that the preference over *path* is conditioned on *on*."""
        self._check_open()
        self._root.find(path)
        parents = tuple(on)
        for parent in parents:
            self._root.find(parent)
        self._parents[path] = parents
        return self

    def prefer(self, path: str, order: Iterable[str]) -> "DocumentBuilder":
        """Unconditional author preference over the alternatives of *path*."""
        return self.prefer_when(path, {}, order)

    def prefer_when(
        self, path: str, condition: Mapping[str, str], order: Iterable[str]
    ) -> "DocumentBuilder":
        """Conditional author preference (condition names are component paths)."""
        self._check_open()
        self._root.find(path)
        self._rules.setdefault(path, []).append((dict(condition), tuple(order)))
        return self

    # ----- assembly -----------------------------------------------------------------

    def build(self) -> MultimediaDocument:
        """Assemble the document; validates tree/network alignment."""
        self._check_open()
        self._built = True
        network = CPNet(name=self.doc_id)
        ordered = self._topological_component_order()
        for node in ordered:
            path = node.path
            network.add_variable(
                path,
                node.domain,
                parents=self._parents.get(path, ()),
                description=node.description,
            )
            rules = self._rules.get(path)
            if rules:
                for condition, order in rules:
                    network.add_rule(path, condition, order)
            else:
                network.add_rule(path, {}, node.domain)
        network.validate()
        return MultimediaDocument(self.doc_id, self._root, network, title=self.title)

    def _topological_component_order(self):
        """Order components so declared CP-net parents come first."""
        nodes = {n.path: n for n in self._root.iter_tree() if n is not self._root}
        for path, parents in self._parents.items():
            for parent in parents:
                if parent not in nodes:
                    raise DocumentError(f"depends({path!r}) references unknown {parent!r}")
        remaining = dict(nodes)
        ordered = []
        placed: set[str] = set()
        while remaining:
            progress = False
            for path in list(remaining):
                parents = self._parents.get(path, ())
                if all(p in placed for p in parents):
                    ordered.append(remaining.pop(path))
                    placed.add(path)
                    progress = True
            if not progress:
                raise DocumentError(
                    f"cyclic 'depends' declarations among {sorted(remaining)}"
                )
        return ordered

    def _check_open(self) -> None:
        if self._built:
            raise DocumentError("builder already produced its document; create a new one")
