"""The hierarchical component structure of a multimedia document.

Mirrors the paper's object-oriented design (Fig. 6): an abstract
``MultimediaComponent`` with two ground specifications —
``CompositeMultimediaComponent`` for internal nodes (restricted to the
binary shown/hidden domain) and ``PrimitiveMultimediaComponent`` for
leaves, which carry an arbitrary-size list of ``MMPresentation``
alternatives.

Components are addressed by dotted *paths* from the root, e.g.
``"imaging.ct_head"`` — these paths double as CP-network variable names.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import DocumentError
from repro.document.presentation import MMPresentation
from repro.util.validation import check_identifier

#: Domain of every composite component (paper §5.1: composites "can only be
#: either presented or hidden").
COMPOSITE_SHOWN = "shown"
COMPOSITE_HIDDEN = "hidden"


class MultimediaComponent:
    """Abstract node of the document tree.

    Subclasses must provide :attr:`domain` (the CP-net value set) and
    :meth:`presentation_size` (transfer bytes of a given domain value).
    """

    def __init__(self, name: str, description: str = "") -> None:
        check_identifier(name, "component name")
        if "." in name:
            raise ValueError(f"component names may not contain '.': {name!r}")
        self.name = name
        self.description = description
        self._parent: CompositeMultimediaComponent | None = None

    # ----- tree wiring -------------------------------------------------------

    @property
    def parent(self) -> "CompositeMultimediaComponent | None":
        return self._parent

    @property
    def path(self) -> str:
        """Dotted path from (but excluding) the root, e.g. ``imaging.ct``.

        The root component's path is its own name.
        """
        if self._parent is None or self._parent._parent is None:
            return self.name
        return f"{self._parent.path}.{self.name}"

    @property
    def depth(self) -> int:
        """Root has depth 0."""
        node, depth = self, 0
        while node._parent is not None:
            node = node._parent
            depth += 1
        return depth

    @property
    def is_root(self) -> bool:
        return self._parent is None

    # ----- presentation interface -------------------------------------------

    @property
    def domain(self) -> tuple[str, ...]:
        raise NotImplementedError

    def presentation_size(self, value: str) -> int:
        """Bytes a client must receive to render this component as *value*."""
        raise NotImplementedError

    def iter_tree(self) -> Iterator["MultimediaComponent"]:
        """Pre-order traversal of this subtree (self first)."""
        yield self

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r})"


class CompositeMultimediaComponent(MultimediaComponent):
    """An internal node: a named grouping of child components.

    Its presentation domain is exactly shown/hidden; hiding a composite
    hides its whole subtree (the presentation engine enforces that).
    """

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._children: dict[str, MultimediaComponent] = {}
        #: Bumped on the *root* of whatever tree an ``add``/``remove``
        #: happens in; a document's component index is valid while its
        #: root's counter stands still.
        self._tree_version = 0

    @property
    def domain(self) -> tuple[str, ...]:
        return (COMPOSITE_SHOWN, COMPOSITE_HIDDEN)

    def presentation_size(self, value: str) -> int:
        if value not in self.domain:
            raise DocumentError(f"{self.path!r} has no presentation {value!r}")
        return 0  # A composite itself carries no payload; children do.

    # ----- children -----------------------------------------------------------

    @property
    def children(self) -> tuple[MultimediaComponent, ...]:
        return tuple(self._children.values())

    def add(self, child: MultimediaComponent) -> MultimediaComponent:
        """Attach *child* and return it. Names are unique among siblings."""
        if child._parent is not None:
            raise DocumentError(f"component {child.name!r} is already attached")
        if child.name in self._children:
            raise DocumentError(f"{self.path!r} already has a child {child.name!r}")
        child._parent = self
        self._children[child.name] = child
        self._tree_changed()
        return child

    def remove(self, name: str) -> MultimediaComponent:
        """Detach and return the direct child called *name*."""
        try:
            child = self._children.pop(name)
        except KeyError:
            raise DocumentError(f"{self.path!r} has no child {name!r}") from None
        child._parent = None
        self._tree_changed()
        return child

    def _tree_changed(self) -> None:
        root = self
        while root._parent is not None:
            root = root._parent
        root._tree_version += 1

    def child(self, name: str) -> MultimediaComponent:
        try:
            return self._children[name]
        except KeyError:
            raise DocumentError(f"{self.path!r} has no child {name!r}") from None

    def find(self, path: str) -> MultimediaComponent:
        """Resolve a dotted path relative to this node."""
        node: MultimediaComponent = self
        for part in path.split("."):
            if not isinstance(node, CompositeMultimediaComponent):
                raise DocumentError(f"{node.path!r} is a leaf; cannot descend to {path!r}")
            node = node.child(part)
        return node

    def iter_tree(self) -> Iterator[MultimediaComponent]:
        yield self
        for child in self._children.values():
            yield from child.iter_tree()


class PrimitiveMultimediaComponent(MultimediaComponent):
    """A leaf: actual content with a list of alternative presentations.

    The domain is the ordered tuple of presentation labels; the i-th
    ``MMPresentation`` "stands for the i-th option of presenting this
    PrimitiveMultimediaComponent" (paper §5.1).
    """

    def __init__(
        self,
        name: str,
        presentations: Iterable[MMPresentation],
        description: str = "",
    ) -> None:
        super().__init__(name, description)
        self._presentations: dict[str, MMPresentation] = {}
        for presentation in presentations:
            if not isinstance(presentation, MMPresentation):
                raise DocumentError(
                    f"presentations of {name!r} must be MMPresentation instances, "
                    f"got {type(presentation).__name__}"
                )
            if presentation.label in self._presentations:
                raise DocumentError(
                    f"component {name!r} has duplicate presentation label "
                    f"{presentation.label!r}"
                )
            self._presentations[presentation.label] = presentation
        if len(self._presentations) < 2:
            raise DocumentError(
                f"component {name!r} needs >= 2 presentation alternatives "
                "(include Hidden() if it may be omitted)"
            )

    @property
    def presentations(self) -> tuple[MMPresentation, ...]:
        return tuple(self._presentations.values())

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(self._presentations)

    def presentation(self, label: str) -> MMPresentation:
        try:
            return self._presentations[label]
        except KeyError:
            raise DocumentError(f"{self.path!r} has no presentation {label!r}") from None

    def presentation_size(self, value: str) -> int:
        return self.presentation(value).size_bytes
