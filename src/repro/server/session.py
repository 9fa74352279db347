"""Client sessions known to the interaction server."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Session:
    """One connected client module.

    ``node_id`` is the network address; ``viewer_id`` the human identity
    used for permissions and per-viewer presentation state. A session is
    in at most one room at a time (matching the prototype's GUI).

    ``kind`` distinguishes ordinary interactive clients from telemetry
    monitors — monitor sessions receive metric/event telemetry pushes
    instead of presentation traffic.
    """

    session_id: str
    viewer_id: str
    node_id: str
    room_id: str | None = field(default=None, init=False)
    last_spec: dict[str, dict[str, str]] = field(default_factory=dict, init=False)
    kind: str = "interactive"

    @property
    def in_room(self) -> bool:
        return self.room_id is not None

    def remember_spec(self, doc_id: str, outcome: dict[str, str]) -> None:
        """Track what this client currently displays (for diff propagation)."""
        self.last_spec[doc_id] = dict(outcome)

    def known_spec(self, doc_id: str) -> dict[str, str] | None:
        """What this client was last sent of *doc_id*'s outcome: the
        paper's room buffer of changes "not needed by the clients" (§5.3)
        reduced to one outcome per member, dropped when it leaves."""
        return self.last_spec.get(doc_id)

    def forget_spec(self, doc_id: str) -> None:
        self.last_spec.pop(doc_id, None)
