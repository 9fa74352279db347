"""The client's render tree — the testable stand-in for the GUI window.

The paper's client window (Fig. 5) shows the hierarchical structure on
the left and the rendered presentation on the right; the render tree
models exactly that: per component, its domain, the value currently
displayed, and whether the payload has arrived (an image may be "shown"
before its bytes finish streaming — it renders as a placeholder).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ClientError


@dataclass
class RenderedComponent:
    """One row of the render tree."""

    path: str
    domain: tuple[str, ...]
    value: str | None = field(default=None, init=False)
    payload_ready: bool = field(default=False, init=False)


class RenderTree:
    """The displayed state of one document at one client."""

    def __init__(self, doc_id: str, structure: Iterable[Mapping]) -> None:
        self.doc_id = doc_id
        self._components: dict[str, RenderedComponent] = {}
        for entry in structure:
            path = entry["path"]
            self._components[path] = RenderedComponent(
                path=path, domain=tuple(entry["domain"])
            )

    def __contains__(self, path: str) -> bool:
        return path in self._components

    def __len__(self) -> int:
        return len(self._components)

    def component(self, path: str) -> RenderedComponent:
        try:
            return self._components[path]
        except KeyError:
            raise ClientError(f"render tree has no component {path!r}") from None

    def value_of(self, path: str) -> str | None:
        return self.component(path).value

    def apply_update(self, changes: Mapping[str, str]) -> tuple[str, ...]:
        """Apply a presentation diff; returns the paths that changed.

        Unknown paths are *added* (operation variables appear mid-session
        when peers perform §4.2 operations)."""
        changed = []
        for path, value in changes.items():
            component = self._components.get(path)
            if component is None:
                component = RenderedComponent(path=path, domain=(value,))
                self._components[path] = component
            elif value not in component.domain:
                component.domain = component.domain + (value,)
            if component.value != value:
                component.value = value
                component.payload_ready = False
                changed.append(path)
        return tuple(changed)

    def mark_payload_ready(self, path: str) -> None:
        self.component(path).payload_ready = True

    def displayed(self) -> dict[str, str]:
        """Current values of every component that has one."""
        return {
            path: c.value for path, c in self._components.items() if c.value is not None
        }

    def render_text(self) -> str:
        """The Figure 5 window, in text: the hierarchical structure on the
        left of the paper's GUI, with each component's current
        presentation and payload state.

        >>> print(tree.render_text())          # doctest: +SKIP
        record-17
        ├─ imaging: shown
        │  ├─ ct_head: segmented
        │  └─ xray_chest: icon (loading)
        └─ labs: hidden
        """
        # Rebuild the hierarchy from dotted paths.
        children: dict[str, list[str]] = {"": []}
        for path in self._components:
            prefix, _, __ = path.rpartition(".")
            children.setdefault(prefix, []).append(path)
            children.setdefault(path, [])
            # Make sure intermediate prefixes exist even if not components.
            while prefix and prefix not in self._components and prefix not in children.get("", []):
                upper, _, __ = prefix.rpartition(".")
                children.setdefault(upper, [])
                if prefix not in children[upper]:
                    children[upper].append(prefix)
                children.setdefault(prefix, [])
                prefix = upper

        lines = [self.doc_id]

        def walk(path: str, indent: str) -> None:
            kids = children.get(path, [])
            for index, child in enumerate(kids):
                last = index == len(kids) - 1
                connector = "└─ " if last else "├─ "
                component = self._components.get(child)
                name = child.rpartition(".")[2]
                if component is None or component.value is None:
                    label = name
                else:
                    label = f"{name}: {component.value}"
                    # Composites ("shown"/"hidden") carry no payload of
                    # their own; only real media can be mid-transfer.
                    needs_payload = (
                        component.value not in ("hidden", "shown")
                        and not component.payload_ready
                    )
                    if needs_payload:
                        label += " (loading)"
                lines.append(f"{indent}{connector}{label}")
                walk(child, indent + ("   " if last else "│  "))

        walk("", "")
        return "\n".join(lines)

    def pending_payloads(self) -> tuple[str, ...]:
        """Components displayed but still waiting for their bytes."""
        return tuple(
            path
            for path, c in self._components.items()
            if c.value is not None and c.value != "hidden" and not c.payload_ready
        )
