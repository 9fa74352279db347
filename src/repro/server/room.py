"""Shared rooms.

"Multiple clients may enter a shared 'room'. In that case, each one of
them sees the actions of the other." The room holds one open document,
its presentation engine, the freeze bookkeeping of the image-processing
module, and the paper's change buffer: "The 'chat' room is implemented by
a large memory buffer which maintains the changes made on the changed
objects. ... The changed objects are saved and discarded from the room as
soon as they are not needed by the clients" — here, changes are discarded
once every member has acknowledged them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Any

from repro.errors import FrozenObjectError, RoomError
from repro.obs import get_registry
from repro.cpnet.updates import OperationVariable
from repro.document.document import MultimediaDocument
from repro.interest.registry import InterestRegistry
from repro.net.codec import Frame, encode_message
from repro.presentation.engine import PresentationEngine, ViewerChoice
from repro.presentation.spec import PresentationSpec


@dataclass(frozen=True)
class RoomChange:
    """One buffered change, kept until every member has seen it."""

    seq: int
    viewer_id: str
    kind: str  # 'choice' | 'operation' | 'annotation' | 'freeze' | 'release'
    data: dict[str, Any]


class Room:
    """One shared room around one multimedia document."""

    def __init__(self, room_id: str, document: MultimediaDocument) -> None:
        self.room_id = room_id
        self.document = document
        self.engine = PresentationEngine(document)
        self._members: dict[str, str] = {}  # session_id -> viewer_id
        self._frozen: dict[str, str] = {}   # component -> viewer_id holding the freeze
        self._changes: list[RoomChange] = []
        self._next_seq = 1
        self._ack: dict[str, int] = {}      # session_id -> highest seq seen
        self.annotations: dict[str, list[dict[str, Any]]] = {}
        #: Who cares about what (repro.interest): drives update filtering.
        self.interest = InterestRegistry(document.component_paths())
        #: One encoded PAYLOAD descriptor per distinct body: every member
        #: fetching the same alternative (at the same layer prefix, under
        #: simulcast) reuses the same bytes, so encodes stay flat no
        #: matter how many fetch.
        self._payload_frames: dict[tuple[str, str, int | None, int], Frame] = {}
        obs = get_registry()
        self._m_changes = obs.counter("server.room.changes")
        # Labelled by room so concurrent rooms stop stomping one shared
        # gauge; the flat gauge stays as "depth of the last-active room"
        # for older dashboards.
        self._g_buffer_depth = obs.gauge("server.room.buffer_depth")
        self._f_buffer_depth = obs.gauge_family(
            "server.room.buffer_depth_by_room", ("room",)
        )
        self._g_buffer_depth_room = self._f_buffer_depth.labels(room_id)

    # ----- membership -----------------------------------------------------------

    @property
    def member_sessions(self) -> tuple[str, ...]:
        return tuple(self._members)

    @property
    def viewer_ids(self) -> tuple[str, ...]:
        return tuple(self._members.values())

    @property
    def is_empty(self) -> bool:
        return not self._members

    def join(self, session_id: str, viewer_id: str) -> None:
        if session_id in self._members:
            raise RoomError(f"session {session_id!r} is already in room {self.room_id!r}")
        self._members[session_id] = viewer_id
        self._ack[session_id] = self._next_seq - 1  # no need to see old history
        self.interest.join(session_id)
        self.engine.register_viewer(viewer_id)

    def leave(self, session_id: str) -> str:
        """Remove a session; returns its viewer id. Releases its freezes."""
        viewer_id = self._require_member(session_id)
        del self._members[session_id]
        self._ack.pop(session_id, None)
        # A departed session must never linger in any fan-out decision:
        # its interest entry goes with its membership, atomically.
        self.interest.forget(session_id)
        for component, holder in list(self._frozen.items()):
            if holder == viewer_id:
                del self._frozen[component]
        # Keep engine state only while some session of this viewer remains.
        if viewer_id not in self._members.values():
            self.engine.unregister_viewer(viewer_id)
        self._trim_buffer()
        return viewer_id

    def close(self) -> None:
        """The room is gone: its labelled series go with it."""
        self._f_buffer_depth.remove(self.room_id)
        self.engine.close()

    def viewer_of(self, session_id: str) -> str:
        return self._require_member(session_id)

    # ----- interest -------------------------------------------------------------

    def subscribe(
        self, session_id: str, components: list[str], replace: bool = False
    ) -> tuple[str, ...]:
        """Explicitly subscribe a member to component paths."""
        self._require_member(session_id)
        for path in components:
            self.document.component(path)  # raises on unknown paths
        return self.interest.subscribe(session_id, components, replace=replace)

    def unsubscribe(
        self,
        session_id: str,
        components: list[str] | None = None,
        all_components: bool = False,
    ) -> tuple[str, ...]:
        """Drop a member's subscriptions (``all_components`` empties them)."""
        self._require_member(session_id)
        for path in components or ():
            self.document.component(path)
        return self.interest.unsubscribe(
            session_id, components, all_components=all_components
        )

    def payload_frame(
        self, component: str, value: str, layers: int | None, size: int
    ) -> Frame:
        """The cached PAYLOAD frame describing *size* bytes of one
        alternative; *layers* is its simulcast prefix (``None``: the
        payload ships whole and the body says nothing of layers)."""
        key = (component, value, layers, size)
        frame = self._payload_frames.get(key)
        if frame is None:
            body = {"component": component, "value": value, "size": size}
            if layers is not None:
                body["layers"] = layers
            frame = self._payload_frames[key] = encode_message("payload", body)
        return frame

    def _require_member(self, session_id: str) -> str:
        try:
            return self._members[session_id]
        except KeyError:
            raise RoomError(
                f"session {session_id!r} is not in room {self.room_id!r}"
            ) from None

    # ----- cooperative actions ----------------------------------------------------

    def apply_choice(
        self, viewer_id: str, component: str, value: str, scope: str = "shared"
    ) -> RoomChange:
        """A viewer's explicit presentation choice."""
        self._check_not_frozen_by_other(component, viewer_id)
        self.engine.apply_choice(ViewerChoice(viewer_id, component, value, scope))
        return self._record(
            viewer_id, "choice", {"component": component, "value": value, "scope": scope}
        )

    def apply_operation(
        self,
        viewer_id: str,
        component: str,
        operation: str,
        global_importance: bool = False,
    ) -> tuple[OperationVariable, RoomChange]:
        """A viewer performed a processing operation on a component (§4.2)."""
        self._check_not_frozen_by_other(component, viewer_id)
        record = self.engine.apply_operation(
            viewer_id, component, operation, global_importance=global_importance
        )
        change = self._record(
            viewer_id,
            "operation",
            {
                "component": component,
                "operation": operation,
                "variable": record.name,
                "global": global_importance,
            },
        )
        return record, change

    def annotate(
        self, viewer_id: str, component: str, annotation: dict[str, Any]
    ) -> RoomChange:
        """Attach a shared annotation (text/line drawn on an object)."""
        self._check_not_frozen_by_other(component, viewer_id)
        self.document.component(component)  # raises if unknown
        entry = {"viewer": viewer_id, **annotation}
        self.annotations.setdefault(component, []).append(entry)
        return self._record(viewer_id, "annotation", {"component": component, **annotation})

    # ----- freeze / release ----------------------------------------------------------

    def freeze(self, viewer_id: str, component: str) -> RoomChange:
        """Freeze a component "by one partner from the rest"."""
        self.document.component(component)
        holder = self._frozen.get(component)
        if holder is not None and holder != viewer_id:
            raise FrozenObjectError(
                f"{component!r} is already frozen by {holder!r}"
            )
        self._frozen[component] = viewer_id
        return self._record(viewer_id, "freeze", {"component": component})

    def release(self, viewer_id: str, component: str) -> RoomChange:
        holder = self._frozen.get(component)
        if holder is None:
            raise FrozenObjectError(f"{component!r} is not frozen")
        if holder != viewer_id:
            raise FrozenObjectError(
                f"only {holder!r} may release the freeze on {component!r}"
            )
        del self._frozen[component]
        return self._record(viewer_id, "release", {"component": component})

    def frozen_by(self, component: str) -> str | None:
        return self._frozen.get(component)

    def _check_not_frozen_by_other(self, component: str, viewer_id: str) -> None:
        holder = self._frozen.get(component)
        if holder is not None and holder != viewer_id:
            raise FrozenObjectError(
                f"{component!r} is frozen by {holder!r}; {viewer_id!r} cannot change it"
            )

    # ----- presentation ---------------------------------------------------------------

    def presentation_for(self, viewer_id: str, now: float = 0.0) -> PresentationSpec:
        return self.engine.presentation_for(viewer_id, now=now)

    def presentations(self, now: float = 0.0) -> dict[str, PresentationSpec]:
        return self.engine.presentations(now=now)

    # ----- change buffer ---------------------------------------------------------------

    def _record(self, viewer_id: str, kind: str, data: dict[str, Any]) -> RoomChange:
        change = RoomChange(seq=self._next_seq, viewer_id=viewer_id, kind=kind, data=data)
        self._next_seq += 1
        self._changes.append(change)
        self._m_changes.inc()
        self._g_buffer_depth.set(len(self._changes))
        self._g_buffer_depth_room.set(len(self._changes))
        return change

    def changes_since(self, seq: int) -> list[RoomChange]:
        """Changes newer than *seq* — O(log n + k), seqs are monotonic."""
        start = bisect_right(self._changes, seq, key=attrgetter("seq"))
        return self._changes[start:]

    def acknowledge(self, session_id: str, seq: int) -> None:
        """A member confirms it has displayed changes up to *seq*."""
        self._require_member(session_id)
        self._ack[session_id] = max(self._ack.get(session_id, 0), seq)
        self._trim_buffer()

    def _trim_buffer(self) -> None:
        """Discard changes every remaining member has acknowledged."""
        if not self._ack:
            self._changes.clear()
            self._g_buffer_depth.set(0)
            self._g_buffer_depth_room.set(0)
            return
        low_water = min(self._ack.values())
        # Seqs are monotonic, so everything acked is a prefix: one bisect
        # and one del instead of rebuilding the list per acknowledgement.
        cut = bisect_right(self._changes, low_water, key=attrgetter("seq"))
        if cut:
            del self._changes[:cut]
        self._g_buffer_depth.set(len(self._changes))
        self._g_buffer_depth_room.set(len(self._changes))

    @property
    def buffer_size(self) -> int:
        return len(self._changes)

    @property
    def latest_seq(self) -> int:
        return self._next_seq - 1
