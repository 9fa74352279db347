"""The interaction server.

Implements the paper's use cases (Fig. 4): document retrieval into shared
rooms, continuous receipt of viewer choices, recomputation of optimal
presentations and propagation of "only the relevant parts of the object"
to every client in the room. Works in two modes:

* **direct** — no :class:`Outbox` (unit tests, benchmarks that measure
  pure server work, a cluster standby replaying its primary): every
  change is decided, nothing is framed, sized or counted as sent;
* **serving** — what it sends goes to its outbox: over the client links
  of the :class:`~repro.net.network.SimulatedNetwork` it is the hub of,
  or, when a cluster shard sets the outbox, through the gateways.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import ProtocolError, RoomError, ServerError
from repro import obs
from repro.db.orm import MultimediaObjectStore
from repro.document.document import MultimediaDocument
from repro.interest import (
    NUM_LAYERS,
    SIMULCAST_FLOOR,
    default_subscriptions,
    layer_prefix_size,
    layers_for_level,
)
from repro.net.batch import Batcher
from repro.net.codec import BATCH, Frame, encode_message, stamp_frame
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.net.simclock import SimClock
from repro.obs.dtrace import get_dtrace
from repro.presentation.spec import NOTHING, PresentationSpec, Transitions
from repro.presentation.tuning import BANDWIDTH_HIGH, TUNING_VARIABLE
from repro.server.permissions import (
    PERM_ANNOTATE,
    PERM_CHOOSE,
    PERM_MODIFY,
    PERM_VIEW,
    PermissionPolicy,
)
from repro.server.protocol import PROTOCOL, MessageKind, encoded_size, error_body
from repro.server.room import Room
from repro.server.session import Session
from repro.server.telemetry import TelemetryChannel
from repro.util.ids import IdGenerator


#: One decided update: the member, everything that moved on their
#: display, and the part of it their interest lets them be told.
_Decided = tuple[Session, dict[str, str], dict[str, str]]
#: ``transmit(recipient, frame)``: one frame on its way to one node.
Transmit = Callable[[str, Frame], None]


class Outbox:
    """Where a serving server's frames go: :meth:`send` takes one frame
    and all its recipients, stamps the served op's trace context, counts
    each copy and hands it to a per-destination
    :class:`~repro.net.batch.Batcher` (window 0 = pass-through) over
    *transmit*: the network's send at a hub, gateway routing at a shard."""

    def __init__(self, clock: SimClock, transmit: Transmit, node_id: str, window_s: float) -> None:
        self.batcher = Batcher(clock, transmit, node_id, window_s)
        self._dtrace = get_dtrace()
        sent = self.sent = {"messages": 0, "bytes": 0}  # copies and their bytes
        obs.get_registry().counter("server.messages_out", read=lambda: sent["messages"])
        obs.get_registry().counter("server.bytes_out", read=lambda: sent["bytes"])

    def send(self, recipients: Sequence[str], frame: Frame) -> None:
        ctx = self._dtrace.current() if self._dtrace.enabled else None
        if ctx is not None:
            frame = stamp_frame(frame, (ctx,))  # chain to the op being served
        self.sent["messages"] += len(recipients)
        self.sent["bytes"] += frame.size_bytes * len(recipients)
        for recipient in recipients:
            self.batcher.send(recipient, frame)


class InteractionServer:
    """Sessions + rooms + database access + change propagation."""

    def __init__(
        self,
        store: MultimediaObjectStore,
        network: SimulatedNetwork | None = None,
        node_id: str = "server",
        use_profiles: bool = False,
        batch_window_s: float = 0.0,
        interest_mode: str = "off",
    ) -> None:
        if interest_mode not in ("off", "cpnet"):
            raise ValueError(
                f"interest_mode must be 'off' or 'cpnet', got {interest_mode!r}"
            )
        self.store = store
        #: Per-viewer grants; deployments grant through it.
        self.policy = PermissionPolicy()
        self.node_id = node_id
        #: The clock stamps specs and events; the outbox is where decided
        #: changes ship (None: decide only). A hub's network brings both, a
        #: shard sets both on the servers it serves from, a replica the clock.
        self.clock: SimClock | None = None
        self.outbox: Outbox | None = None
        self.use_profiles = use_profiles
        #: "off": members start with implicit interest in everything (the
        #: pre-interest behaviour, byte-identical); "cpnet": defaults are
        #: seeded from each viewer's computed presentation (§5.3 "relevant
        #: parts") and per-subscriber layer selection is enabled. Explicit
        #: SUBSCRIBE/UNSUBSCRIBE overrides either way.
        self.interest_mode = interest_mode
        self._profiles: dict[str, Any] = {}
        # Ids are namespaced by node_id: two servers (cluster shards) can
        # never mint colliding room/session ids at the gateway.
        self._ids = IdGenerator(namespace=node_id)
        self._sessions: dict[str, Session] = {}
        self._rooms: dict[str, Room] = {}
        self._rooms_by_doc: dict[str, str] = {}
        registry = obs.get_registry()
        self._events = obs.get_event_log()
        self._dtrace = get_dtrace()
        self._m_choices = registry.counter("server.choices")
        self._m_prop_updates = registry.counter("server.propagation.updates")
        self._m_prop_diff_bytes = registry.counter("server.propagation.diff_bytes")
        # Per-room split of the same propagation bytes ("which room is
        # hot?"); the flat counters above stay the cross-room totals.
        self._f_prop_bytes = registry.counter_family(
            "server.propagation.room_bytes", ("room", "mode")
        )
        # Interest management (repro.interest). Cardinality is bounded:
        # one gauge label per open room, flat counters otherwise.
        self._g_interest_subs = registry.gauge_family(
            "interest.subscriptions", ("room",)
        )
        self._m_interest_filtered = registry.counter("interest.updates_filtered")
        self._m_interest_bytes_saved = registry.counter("interest.bytes_saved")
        self._m_interest_downgrades = registry.counter("interest.layer_downgrades")
        # One child per server, read from its own tables: every shard
        # primary and standby shadow has its own, and a new one claims its
        # label so a recycled registry never shows a dead server's state.
        sessions, rooms, node = self._sessions, self._rooms, ("node",)
        registry.gauge_family("server.sessions_connected", node).labels(
            node_id, read=sessions.__len__
        )
        registry.gauge_family("server.rooms_open", node).labels(node_id, read=rooms.__len__)
        registry.gauge_family("server.room_occupancy", node).labels(
            node_id, read=lambda: sum(s.room_id is not None for s in sessions.values())
        )
        #: Telemetry monitors (pushed metric diffs + buffered events), on
        #: the hub only: a monitor reaches a cluster through a gateway.
        self.telemetry: TelemetryChannel | None = None
        from repro.server.triggers import TriggerManager

        self.triggers = TriggerManager()
        if network is not None:  # the hub: frames leave over its client links
            network.attach_hub(self)
            self.clock = network.clock
            def transmit(recipient: str, frame: Frame) -> None:
                if network.has_node(recipient):  # else detached mid-window
                    network.send(node_id, recipient, frame)
            self.outbox = Outbox(network.clock, transmit, node_id, batch_window_s)
            self.telemetry = TelemetryChannel(node_id, self._now, self._send_body)

    # ----- sessions -----------------------------------------------------------------

    def connect_session(
        self,
        viewer_id: str,
        node_id: str | None = None,
        session_id: str | None = None,
    ) -> Session:
        """Create a session; *session_id* forces the id (replication replay)."""
        if session_id is None:
            session_id = self._ids.next("session")
        elif session_id in self._sessions:
            raise ServerError(f"session id {session_id!r} already connected")
        session = Session(
            session_id=session_id,
            viewer_id=viewer_id,
            node_id=node_id if node_id is not None else viewer_id,
        )
        self._sessions[session.session_id] = session
        return session

    def disconnect_session(self, session_id: str) -> None:
        session = self._session(session_id)
        # Persist the viewer profile before leaving: room exit may close
        # the room and fire observers that expect the profile on disk.
        if self.use_profiles and session.viewer_id in self._profiles:
            self.store.save_profile(self._profiles[session.viewer_id])
        if session.in_room:
            self.leave_room(session_id)
        del self._sessions[session_id]
        self._dtrace.drop_session(session.node_id)

    def _session(self, session_id: str) -> Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise ServerError(f"unknown session {session_id!r}") from None

    @property
    def session_ids(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    def has_session(self, session_id: str) -> bool:
        return session_id in self._sessions

    def session(self, session_id: str) -> Session:
        """Public session lookup (the cluster tier re-homes sessions by it)."""
        return self._session(session_id)

    # ----- rooms ----------------------------------------------------------------------

    @property
    def room_ids(self) -> tuple[str, ...]:
        return tuple(self._rooms)

    def room(self, room_id: str) -> Room:
        try:
            return self._rooms[room_id]
        except KeyError:
            raise RoomError(f"no room {room_id!r}") from None

    def doc_of(self, session_id: str) -> str | None:
        """The document open in *session_id*'s room (``None``: no such
        session, or in no room) — the key a cluster shards the room by."""
        session = self._sessions.get(session_id)
        if session is None or session.room_id is None:
            return None
        return self._rooms[session.room_id].document.doc_id

    def open_room(self, doc_id: str, room_id: str | None = None) -> Room:
        """Bring a document from the database into a (new or existing) room.

        *room_id* forces the id of a newly opened room — replication
        replay uses it so a replica's rooms carry the primary's ids.
        """
        if doc_id in self._rooms_by_doc:
            return self._rooms[self._rooms_by_doc[doc_id]]
        room = Room(
            room_id if room_id is not None else self._ids.next("room"),
            self.store.fetch_document(doc_id),
        )
        self._rooms[room.room_id] = room
        self._rooms_by_doc[doc_id] = room.room_id
        return room

    def join_room(self, session_id: str, doc_id: str) -> tuple[Room, PresentationSpec]:
        """Fig. 4(a): retrieve the document and its initial presentation."""
        session = self._session(session_id)
        self.policy.require(session.viewer_id, PERM_VIEW)
        if session.in_room:
            raise RoomError(f"session {session_id!r} is already in {session.room_id!r}")
        room = self.open_room(doc_id)
        room.join(session_id, session.viewer_id)
        session.room_id = room.room_id
        self._emit(
            "server.room_join",
            room=room.room_id,
            doc=doc_id,
            viewer=session.viewer_id,
            occupancy=len(room.member_sessions),
        )
        if self.use_profiles:
            profile = self._profile_of(session.viewer_id)
            # Replay stable habits as personal evidence: the frequent
            # viewer's usual presentation greets them on join (§4's
            # optional long-term learning).
            from repro.presentation.engine import PERSONAL, ViewerChoice

            for component, value in profile.habits_for(room.document).items():
                room.engine.apply_choice(
                    ViewerChoice(session.viewer_id, component, value, scope=PERSONAL)
                )
        spec = room.presentation_for(session.viewer_id, now=self._now())
        session.remember_spec(doc_id, (spec, NOTHING))
        if self.interest_mode == "cpnet":
            # §5.3 "relevant parts": the viewer's computed presentation
            # names the components they care about; seed their default
            # subscriptions from it. Explicit SUBSCRIBE overrides.
            room.interest.seed(
                session.session_id,
                default_subscriptions(room.document, spec.outcome),
            )
            self._claim_interest_gauge(room)
        return room, spec

    def _claim_interest_gauge(self, room: Room) -> None:
        """The serving room whose subscriptions changed last owns its gauge
        (a dead primary's room and the one its successor adopted share one
        room id). A standby's shadow has no outbox and never claims it."""
        if self.outbox is not None:
            self._g_interest_subs.labels(room.room_id, read=room.interest.explicit_subscriptions)

    def adopt(self, other: InteractionServer) -> None:
        """Take over the sessions and rooms of *other*, the standby a shard
        promoted: ids minted under the dead primary's namespace collide
        with none here, and a document both have open takes new joins in
        *other*'s room. Its gauges retire; its rooms' interest gauges move."""
        self._sessions.update(other._sessions)
        self._rooms.update(other._rooms)
        self._rooms_by_doc.update(other._rooms_by_doc)
        for room in other._rooms.values():
            self._claim_interest_gauge(room)
        registry = obs.get_registry()
        for name in ("server.sessions_connected", "server.rooms_open", "server.room_occupancy"):
            registry.gauge_family(name, ("node",)).remove(other.node_id)

    def _profile_of(self, viewer_id: str):
        if viewer_id not in self._profiles:
            self._profiles[viewer_id] = self.store.load_profile(viewer_id)
        return self._profiles[viewer_id]

    def leave_room(self, session_id: str) -> None:
        """Leave; when the room empties, persist the document and close it."""
        session = self._session(session_id)
        if not session.in_room:
            raise RoomError(f"session {session_id!r} is not in a room")
        room = self.room(session.room_id)
        room.leave(session_id)
        session.forget_spec(room.document.doc_id)
        session.room_id = None
        self._claim_interest_gauge(room)
        self._emit(
            "server.room_leave",
            room=room.room_id,
            doc=room.document.doc_id,
            viewer=session.viewer_id,
            occupancy=len(room.member_sessions),
        )
        if room.is_empty:
            self.store.store_document(room.document)
            # "The results of the discussions ... may be stored in the
            # file ... for future search and reference" (paper §1).
            for component, entries in room.annotations.items():
                for entry in entries:
                    data = {k: v for k, v in entry.items() if k != "viewer"}
                    self.store.store_annotation(
                        room.document.doc_id, component, entry["viewer"], data
                    )
            del self._rooms[room.room_id]
            if self._rooms_by_doc.get(room.document.doc_id) == room.room_id:  # else adopted
                del self._rooms_by_doc[room.document.doc_id]
            # The room's labelled series die with it: a closed room must
            # leave no live child in any family and no trace-store
            # residue (the flat counters keep the cumulative totals).
            self._g_interest_subs.remove(room.room_id)
            self._f_prop_bytes.remove(room.room_id, "diff")
            room.close()
            self._dtrace.drop_room(room.room_id)
            self._emit(
                "server.room_closed", room=room.room_id, doc=room.document.doc_id
            )

    # ----- cooperative actions -------------------------------------------------------------

    def handle_choice(
        self, session_id: str, component: str, value: str, scope: str = "shared"
    ) -> dict[str, dict[str, str]]:
        """Fig. 4(b): record the choice, recompute, propagate diffs.

        Returns ``{session_id: presentation-diff}`` for every member whose
        display changes (also sent, when the server has an outbox).
        """
        session, room = self._session_room(session_id)
        self.policy.require(session.viewer_id, PERM_CHOOSE)
        self._m_choices.inc()
        change = room.apply_choice(session.viewer_id, component, value, scope)
        if self.use_profiles:
            self._profile_of(session.viewer_id).record_choice(component, value)
        return self._propagate(room, change)

    def handle_operation(
        self,
        session_id: str,
        component: str,
        operation: str,
        global_importance: bool = False,
    ) -> dict[str, dict[str, str]]:
        session, room = self._session_room(session_id)
        self.policy.require(session.viewer_id, PERM_ANNOTATE)
        _, change = room.apply_operation(
            session.viewer_id, component, operation, global_importance=global_importance
        )
        return self._propagate(room, change)

    def handle_annotation(
        self, session_id: str, component: str, annotation: dict[str, Any] | None = None
    ) -> dict[str, dict[str, str]]:
        session, room = self._session_room(session_id)
        self.policy.require(session.viewer_id, PERM_ANNOTATE)
        change = room.annotate(session.viewer_id, component, annotation or {})
        return self._propagate(room, change)

    def handle_freeze(self, session_id: str, component: str) -> None:
        session, room = self._session_room(session_id)
        self.policy.require(session.viewer_id, PERM_ANNOTATE)
        change = room.freeze(session.viewer_id, component)
        self._propagate(room, change)

    def handle_release(self, session_id: str, component: str) -> None:
        session, room = self._session_room(session_id)
        change = room.release(session.viewer_id, component)
        self._propagate(room, change)

    # ----- interest management -------------------------------------------------------------

    def handle_subscribe(
        self, session_id: str, components: Sequence[str] = (), replace: bool = False
    ) -> tuple[str, ...]:
        """Explicitly subscribe a session to component paths.

        The SUBSCRIBE_ACK carries a catch-up outcome: current values of
        covered components the client has not yet seen (it may have been
        unsubscribed while they changed), applied client-side like a
        presentation update. Returns the session's full subscription set.
        """
        session, room = self._session_room(session_id)
        self.policy.require(session.viewer_id, PERM_VIEW)
        subscribed = room.subscribe(session_id, components, replace=replace)
        catchup = self._catch_up(session, room, unseen_only=True)
        self._ack_subscription("server.subscribe", session, room, subscribed, catchup)
        return subscribed

    def handle_unsubscribe(
        self,
        session_id: str,
        components: list[str] | None = None,
        all_components: bool = False,
    ) -> tuple[str, ...]:
        """Drop a session's subscriptions; acked with the remaining set."""
        session, room = self._session_room(session_id)
        self.policy.require(session.viewer_id, PERM_VIEW)
        subscribed = room.unsubscribe(
            session_id, components, all_components=all_components
        )
        self._ack_subscription("server.unsubscribe", session, room, subscribed, {})
        return subscribed

    def _ack_subscription(
        self,
        event: str,
        session: Session,
        room: Room,
        subscribed: tuple[str, ...],
        catchup: dict[str, str],
    ) -> None:
        self._claim_interest_gauge(room)
        self._emit(
            event,
            severity="DEBUG",
            room=room.room_id,
            viewer=session.viewer_id,
            subscribed=len(subscribed),
        )
        self._send_body(
            session.node_id,
            MessageKind.SUBSCRIBE_ACK,
            {
                "session_id": session.session_id,
                "room_id": room.room_id,
                "subscribed": list(subscribed),
                "outcome": catchup,
            },
        )

    def _catch_up(self, session: Session, room: Room, unseen_only: bool) -> dict[str, str]:
        """Decide a catch-up for one session: the current values of the
        components it covers — with *unseen_only*, those that differ from
        what it is known to display — recorded as known from here on."""
        doc_id = room.document.doc_id
        spec = room.presentation_for(session.viewer_id, now=self._now())
        told, transitions = session.told.get(doc_id), Transitions()
        moved = transitions.delta(told if unseen_only else None, spec)
        catchup = {
            path: value
            for path, value in moved.items()
            if room.interest.covers(session.session_id, path)
        }
        if catchup:
            session.remember_spec(doc_id, transitions.after(told, spec, moved, catchup))
        return catchup

    def resync_session(self, session_id: str) -> dict[str, str]:
        """Re-send current covered values this session has not yet seen.

        The cluster tier calls this when it fences a duplicate op from a
        gateway-failover replay: the op itself already applied, but its
        responses may have died with the old gateway. Unlike a
        SUBSCRIBE_ACK catch-up this deliberately ignores ``known_spec``
        — "known" records what was *sent*, and what was sent may be
        exactly what died on the crashed gateway's links. The full
        covered outcome lands as one idempotent PRESENTATION_UPDATE.
        """
        session = self._session(session_id)
        if not session.in_room:
            return {}
        room = self.room(session.room_id)
        catchup = self._catch_up(session, room, unseen_only=False)
        if catchup:
            self._send_body(
                session.node_id,
                MessageKind.PRESENTATION_UPDATE,
                {"doc_id": room.document.doc_id, "changes": catchup, "resync": True},
            )
        return catchup

    def store_document(self, session_id: str, document: MultimediaDocument) -> None:
        """Explicitly persist a document (requires modify permission)."""
        session = self._session(session_id)
        self.policy.require(session.viewer_id, PERM_MODIFY)
        self.store.store_document(document)

    def fetch_payload(self, session_id: str, media_ref: str) -> bytes:
        """Stream one presentation payload to a client by blob reference."""
        session = self._session(session_id)
        self.policy.require(session.viewer_id, PERM_VIEW)
        _, payload = self.store.fetch(media_ref)
        self._send_body(
            session.node_id, MessageKind.PAYLOAD,
            {"media_ref": media_ref, "data": payload},
        )
        return payload

    def fetch_component_payload(
        self, session_id: str, component: str, value: str
    ) -> int:
        """Stream the payload of one presentation alternative to a client.

        The wire is charged the presentation's byte size; the message
        body itself only describes the payload, so benchmarks measure
        transfer time without allocating megabytes per image.

        One cached frame per distinct body serves every member who
        fetches it (:meth:`Room.payload_frame`). With
        ``interest_mode="cpnet"`` heavy payloads ship as a layer prefix
        of the multi-layer codec stream (simulcast): the member's §4.4
        ``tuning.bandwidth`` level picks how many layers they receive,
        and the body names the prefix.
        """
        session, room = self._session_room(session_id)
        self.policy.require(session.viewer_id, PERM_VIEW)
        node = room.document.component(component)
        shipped = size = node.presentation_size(value)
        num_layers = None
        if self.interest_mode == "cpnet":
            num_layers = NUM_LAYERS
            if size >= SIMULCAST_FLOOR:
                spec = room.presentation_for(session.viewer_id, now=self._now())
                level = spec.get(TUNING_VARIABLE, BANDWIDTH_HIGH)
                num_layers = layers_for_level(level)
                if num_layers < NUM_LAYERS:
                    self._m_interest_downgrades.inc()
                    self._m_interest_bytes_saved.inc(
                        size - layer_prefix_size(size, num_layers)
                    )
            shipped = layer_prefix_size(size, num_layers)
        if self.outbox is not None:
            frame = room.payload_frame(component, value, num_layers, shipped)
            self.outbox.send((session.node_id,), frame)
        return shipped

    def fetch_zoom_region(
        self,
        session_id: str,
        media_ref: str,
        top: int,
        left: int,
        height: int,
        width: int,
        factor: int = 2,
    ) -> bytes:
        """Server-side zoom: crop-and-magnify a stored image payload.

        The image module's "zooming of a selected part of image" executed
        where the pixels live — only the magnified region crosses the
        wire, not the full study.
        """
        from repro.media.image.image import Image
        from repro.media.image.ops import zoom

        session = self._session(session_id)
        self.policy.require(session.viewer_id, PERM_VIEW)
        _, payload = self.store.fetch(media_ref)
        zoomed = zoom(Image.from_bytes(payload), top, left, height, width, factor=factor)
        region_bytes = zoomed.to_bytes()
        body = {
            "media_ref": media_ref,
            "rect": [top, left, height, width],
            "factor": factor,
            "data": region_bytes,
        }
        self._send_body(session.node_id, MessageKind.PAYLOAD, body)
        return region_bytes

    def _session_room(self, session_id: str) -> tuple[Session, Room]:
        session = self._session(session_id)
        if not session.in_room:
            raise RoomError(f"session {session_id!r} is not in a room")
        return session, self.room(session.room_id)

    # ----- propagation -----------------------------------------------------------------------

    def _propagate(self, room: Room, change: Any) -> dict[str, dict[str, str]]:
        """Recompute every member's presentation and ship what changed.

        Two halves. *Deciding* is room state — what each member is now
        known to display — and runs wherever the op is applied, a warm
        standby included; *shipping* is everything that exists only
        because bytes leave this node, and runs only with an outbox.
        """
        decided = self._decide(room, change)
        if self.outbox is not None:
            self._ship(room, change, decided)
        self.triggers.dispatch(room, change)
        return {member.session_id: filtered for member, _, filtered in decided if filtered}

    def _decide(self, room: Room, change: Any) -> list[_Decided]:
        """One entry per member whose display moved, in member order;
        advances each told member's known spec. Members moving between
        the same two base completions share one diff (``Transitions``);
        the deltas are shared too, so they are read-only."""
        doc_id = room.document.doc_id
        now = self._now()
        decided = []
        transitions = Transitions()
        presentation_for, sessions = room.engine.presentation_for, self._sessions
        for member_id in room.member_sessions:
            member = sessions[member_id]
            spec = presentation_for(member.viewer_id, now=now)
            told = member.told.get(doc_id)
            delta = transitions.delta(told, spec)
            if not delta:
                continue
            # Interest filtering: ship only the parts this member
            # subscribes to. The change's author always sees their own
            # change; everyone else pays zero wire bytes for updates
            # outside their interest. The known spec records what was
            # withheld, so a later SUBSCRIBE can compute an exact
            # catch-up diff.
            if member.viewer_id == change.viewer_id:
                filtered = delta
            else:
                filtered = room.interest.filter_delta(member_id, delta)
            decided.append((member, delta, filtered))
            if filtered:
                member.remember_spec(doc_id, transitions.after(told, spec, delta, filtered))
        return decided

    def _ship(self, room: Room, change: Any, decided: list[_Decided]) -> None:
        """Frame, send and account for one decided change: one outbox
        send per distinct frame, its recipients in member order."""
        doc_id = room.document.doc_id
        shipped = 0
        # Members whose recomputed views agree (the common case for a
        # shared choice) receive the *same* update frame: one encode,
        # one send to all of them — and one sizing, for the accounting
        # below. Both keyed by the delta's canonical item sequence.
        updates: dict[tuple[tuple[str, str], ...], tuple[Frame, list[str]]] = {}
        delta_sizes: dict[tuple[tuple[str, str], ...], int] = {}

        def sized(delta: dict[str, str]) -> tuple[Any, int]:
            key = tuple(sorted(delta.items()))
            size = delta_sizes.get(key)
            if size is None:
                size = delta_sizes[key] = encoded_size(delta)
            return key, size

        for member, delta, filtered in decided:
            if not filtered:
                self._m_interest_filtered.inc()
                self._m_interest_bytes_saved.inc(sized(delta)[1])
                continue
            delta_key, delta_size = sized(filtered)
            if len(filtered) != len(delta):
                self._m_interest_bytes_saved.inc(sized(delta)[1] - delta_size)
            update = updates.get(delta_key)
            if update is None:
                body = {"doc_id": doc_id, "changes": filtered, "seq": change.seq}
                frame = encode_message(MessageKind.PRESENTATION_UPDATE, body)
                update = updates[delta_key] = (frame, [])
            update[1].append(member.node_id)
            shipped += delta_size
        send = self.outbox.send
        for frame, recipients in updates.values():
            send(recipients, frame)
            self._m_prop_updates.inc(len(recipients))
        self._m_prop_diff_bytes.inc(shipped)
        self._f_prop_bytes.labels(room.room_id, "diff").inc(shipped)
        event_body = {
            "doc_id": doc_id, "seq": change.seq,
            "viewer": change.viewer_id, "kind": change.kind, "data": change.data,
        }
        changed_component = change.data.get("component")
        # Multicast fan-out: one encode (if anyone is interested), the
        # same frame to every member — the bytes were identical per
        # recipient anyway.
        peers = []
        event_size: int | None = None
        for member_id in room.member_sessions:
            member = self._session(member_id)
            if member.viewer_id == change.viewer_id:
                continue
            if changed_component is not None and not room.interest.covers(
                member_id, changed_component
            ):
                if event_size is None:
                    event_size = encoded_size(event_body)
                self._m_interest_filtered.inc()
                self._m_interest_bytes_saved.inc(event_size)
                continue
            peers.append(member.node_id)
        if peers:
            send(peers, encode_message(MessageKind.PEER_EVENT, event_body))

    def broadcast(
        self, payload: dict[str, Any], room_id: str | None = None
    ) -> int:
        """Push a server-originated message to every session (of a room).

        Returns the number of sessions reached. Without an outbox the
        broadcast is a no-op beyond the count (direct-mode callers poll
        room state instead); with one it is one send to them all.
        """
        if room_id is not None:
            room = self.room(room_id)
            targets = [self._session(s) for s in room.member_sessions]
        else:
            targets = list(self._sessions.values())
        if self.outbox is not None:
            frame = encode_message(MessageKind.BROADCAST, payload)
            self.outbox.send([session.node_id for session in targets], frame)
        return len(targets)

    def _send_body(self, recipient: str, kind: str, body: Any) -> None:
        """Encode one body for one recipient (an ack, an error, a
        telemetry push) and send it — or encode nothing at all on a
        server that has no outbox to send to."""
        if self.outbox is not None:
            self.outbox.send((recipient,), encode_message(kind, body))

    def on_delivery_failed(self, error: Any) -> None:
        """The reliable layer gave up on one of this server's frames.

        The paper's server discards updates for unreachable clients; the
        reliable transport has already retried within budget, so the
        server records the loss for the post-mortem and stops diffing
        against an update that may never have arrived.
        """
        self._emit(
            "server.delivery_failed",
            severity="WARN",
            recipient=error.recipient,
            kind=error.kind,
            reason=error.reason,
        )
        self.forget_unseen(error.recipient, error.kind)

    def forget_unseen(self, node_id: str, kind: str) -> None:
        """A *kind* frame to *node_id* was given up on and skipped. If it
        carried updates, forget what the node's sessions are known to
        display: each one's next update is then the whole outcome."""
        if kind != MessageKind.PRESENTATION_UPDATE and kind != BATCH:
            return
        for session in self._sessions.values():
            if session.node_id == node_id:
                session.told.clear()

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _emit(self, name: str, severity: str = "INFO", **fields: Any) -> None:
        """Flight-recorder emit stamped with the server's clock when it has one."""
        at = self.clock.now if self.clock is not None else None
        self._events.emit(name, severity=severity, at=at, **fields)

    def stats(self) -> dict[str, Any]:
        """Operational snapshot of this server, counted off its own state.

        Not read back from the registry: a registry is shared by every
        server in the process (and reads 0 under ``NullRegistry``).
        """
        return {
            "sessions": len(self._sessions),
            "rooms": len(self._rooms),
            "monitors": len(self.telemetry.monitors) if self.telemetry is not None else 0,
            "viewers_in_rooms": sum(len(r.viewer_ids) for r in self._rooms.values()),
            "frozen_components": sum(
                1
                for room in self._rooms.values()
                for path in room.document.component_paths()
                if room.frozen_by(path) is not None
            ),
            "spec_cache_hits": sum(r.engine.cache_hits for r in self._rooms.values()),
            "spec_cache_misses": sum(r.engine.cache_misses for r in self._rooms.values()),
            "triggers": len(self.triggers.triggers),
        }

    # ----- network glue ------------------------------------------------------------------------

    def receive(self, message: Message) -> str | None:
        """Dispatch one protocol message from a client node; return the id
        of the session it was served for (a JOIN's new one), or ``None``
        if it was refused with an ``ERROR`` or was the telemetry channel's."""
        kind, payload, telemetry = message.kind, message.payload or {}, self.telemetry
        try:
            if telemetry is not None and kind in telemetry.KINDS:
                if telemetry.answer(message.sender, kind, payload):
                    return None
            return self.apply_session_op(kind, payload, message.sender)
        except Exception as exc:  # protocol errors go back to the client
            if self.outbox is None:
                raise
            body = error_body(type(exc).__name__, str(exc), kind, payload)
            self._send_body(message.sender, MessageKind.ERROR, body)
            return None
        finally:
            # Telemetry rides on server activity (a scheduled tick would
            # keep the simulated clock alive forever).
            if telemetry is not None:
                telemetry.push()

    def apply_session_op(
        self, kind: str, payload: dict[str, Any], sender_node: str | None = None
    ) -> str:
        """Apply one client message: look its row up in the protocol
        table, take the handler's arguments out of *payload*, call it;
        return the id of the session it acted on. Also how a standby
        replays its primary's ops (everything but JOIN, whose ids a
        replay must force)."""
        row = PROTOCOL.get(kind)
        if row is None:
            raise ServerError(f"unknown message kind {kind!r}")
        args, kwargs = row.bind(payload)
        if row.opens_session:
            kwargs["node_id"] = sender_node
            return getattr(self, row.handler)(*args, **kwargs)
        getattr(self, row.handler)(*args, **kwargs)
        return args[0]  # every other row names its session first

    def _on_join(self, viewer_id: str, doc_id: str, node_id: str) -> str:
        session = self.connect_session(viewer_id, node_id=node_id)
        try:
            room, spec = self.join_room(session.session_id, doc_id)
        except Exception:
            # A refused JOIN opens nothing: the client only hears ERROR, so
            # a session left here could never be closed. Undo this JOIN
            # alone; the node's other sessions keep their traces.
            if session.in_room:
                self.leave_room(session.session_id)
            del self._sessions[session.session_id]
            raise
        if self.outbox is not None:  # a standby or direct-mode server acks nobody
            body = {
                "session_id": session.session_id,
                "room_id": room.room_id,
                "doc_id": room.document.doc_id,
                "outcome": spec.outcome,
                "structure": room.document.structure(),
            }
            self._send_body(node_id, MessageKind.JOIN_ACK, body)
        return session.session_id

    def _on_monitor(self, viewer_id: str, node_id: str) -> None:
        """A ``MONITOR`` the telemetry channel did not answer: this server
        has none (a shard's, a standby's; a gateway answers for them)."""
        raise ServerError(f"{self.node_id!r} hosts no telemetry channel")

    def _on_fetch_payload(
        self,
        session_id: str,
        media_ref: str | None = None,
        rect: Sequence[int] | None = None,
        factor: int = 2,
        component: str | None = None,
        value: str | None = None,
    ) -> None:
        if media_ref is not None and rect is not None:
            self.fetch_zoom_region(session_id, media_ref, *rect, factor=factor)
        elif media_ref is not None:
            self.fetch_payload(session_id, media_ref)
        elif component is not None and value is not None:
            self.fetch_component_payload(session_id, component, value)
        else:
            raise ProtocolError(
                f"{MessageKind.FETCH_PAYLOAD!r} message names neither 'media_ref' "
                "nor 'component' and 'value'"
            )
