"""Optional long-term viewer profiles.

The paper's presentation model deliberately avoids profile learning ("No
long-term learning of a user profile is required, **although it can be
supported**") because profiles only help "frequent viewers". This module
is that optional support: a profile counts a viewer's explicit choices
across sessions; once a habit is *stable* (enough observations, clear
majority), it is replayed as personal evidence when the viewer next opens
the document — so a radiologist who always flips the CT to ``segmented``
finds it segmented on join. Explicit choices always override the habit
(the engine's normal precedence), and the profile keeps learning from
them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.document.document import MultimediaDocument

#: A habit is stable after this many recorded choices ...
MIN_OBSERVATIONS = 3
#: ... with its value holding at least this fraction of them.
MAJORITY = 0.6


class ViewerProfile:
    """Per-viewer choice history with stable-habit extraction."""

    def __init__(self, viewer_id: str) -> None:
        self.viewer_id = viewer_id
        self._counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    # ----- learning ------------------------------------------------------------

    def record_choice(self, component: str, value: str) -> None:
        """One explicit choice observed (any scope, any session)."""
        self._counts[component][value] += 1

    def observations(self, component: str) -> int:
        return sum(self._counts.get(component, {}).values())

    # ----- habits ---------------------------------------------------------------

    def habitual_value(self, component: str) -> str | None:
        """The stable habit for *component*, or None.

        Requires at least :data:`MIN_OBSERVATIONS` recorded choices with
        the top value holding at least the :data:`MAJORITY` fraction of them.
        """
        counts = self._counts.get(component)
        if not counts:
            return None
        total = sum(counts.values())
        if total < MIN_OBSERVATIONS:
            return None
        value, top = max(counts.items(), key=lambda item: item[1])
        if top / total < MAJORITY:
            return None
        return value

    def habits_for(self, document: MultimediaDocument) -> dict[str, str]:
        """Stable habits applicable to *document* (valid components+values)."""
        habits: dict[str, str] = {}
        for component in self._counts:
            if component not in document.network:
                continue
            value = self.habitual_value(component)
            if value is not None and value in document.network.variable(component).domain:
                habits[component] = value
        return habits

    # ----- persistence -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "viewer_id": self.viewer_id,
            "counts": {c: dict(v) for c, v in self._counts.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ViewerProfile":
        profile = cls(data["viewer_id"])
        for component, values in data.get("counts", {}).items():
            for value, count in values.items():
                profile._counts[component][value] = int(count)
        return profile

    def __repr__(self) -> str:
        return f"ViewerProfile({self.viewer_id!r}, {len(self._counts)} components)"
