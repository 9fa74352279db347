"""Client sessions known to the interaction server."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.presentation.spec import Told, displayed


@dataclass
class Session:
    """One connected client module.

    ``node_id`` is the network address; ``viewer_id`` the human identity
    used for permissions and per-viewer presentation state. A session is
    in at most one room at a time (matching the prototype's GUI). A
    telemetry monitor's session is one too, kept by its host's
    :class:`~repro.server.telemetry.TelemetryChannel`, never in a room.
    """

    session_id: str
    viewer_id: str
    node_id: str
    room_id: str | None = field(default=None, init=False)
    told: dict[str, Told] = field(default_factory=dict, init=False)

    @property
    def in_room(self) -> bool:
        return self.room_id is not None

    def remember_spec(self, doc_id: str, told: Told) -> None:
        """What this client now displays: a reference to the spec it was
        told and what was withheld since, both shared, never a copy."""
        self.told[doc_id] = told

    def known_spec(self, doc_id: str) -> dict[str, str] | None:
        """What this client was last sent of *doc_id*'s outcome: the
        paper's room buffer of changes "not needed by the clients" (§5.3)
        reduced to one outcome per member, dropped when it leaves."""
        told = self.told.get(doc_id)
        return None if told is None else displayed(told)

    def forget_spec(self, doc_id: str) -> None:
        self.told.pop(doc_id, None)
