"""The headless client module.

Issues the protocol messages a GUI would (join, choices, operations,
freezes, payload fetches) and maintains the render tree and payload
buffer from what the server sends back. When attached to a simulated
network it is event-driven through :meth:`receive`; response-time metrics
come from the shared simulation clock.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ClientError
from repro import obs
from repro.client.buffer import ClientBuffer, entry_key
from repro.client.view import RenderTree
from repro.net.codec import StringInterner, encode_message, stamp_frame
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.obs.dtrace import HOP_SHED_WAIT, get_dtrace
from repro.presentation.tuning import BANDWIDTH_LOW, BANDWIDTH_MEDIUM, TUNING_VARIABLE
from repro.server.protocol import PROTOCOL, MessageKind
from repro.util.backoff import seeded_jitter

DEFAULT_BUFFER_BYTES = 64 * 1024 * 1024
#: Buffer priorities of arriving payloads: one the display is waiting for
#: outranks any other (a prefetch, or a fetch the display has moved past),
#: and the latter may only displace entries ranked below it.
_DEMAND_PRIORITY = 1.0
_SPECULATIVE_PRIORITY = 0.5
#: §4.4 self-degradation: the bandwidth level a failed fetch steps down to.
_STEP_DOWN = {None: BANDWIDTH_MEDIUM, BANDWIDTH_MEDIUM: BANDWIDTH_LOW}

#: Mutating session ops that a client homed on a gateway stamps with an
#: op_seq, the shard's per-session dedup fence. JOIN is excluded — a join
#: is a new logical connection, not an op on an existing session — and
#: reads (FETCH_PAYLOAD, MONITOR) are excluded because replaying them
#: changes no room state.
_STAMPED_KINDS = frozenset(
    kind for kind, row in PROTOCOL.items() if row.op is not None and not row.opens_session
)
#: Of those, the ones a membership logs: after a gateway failover they
#: re-send through the new home (at-least-once; the dedup fence makes the
#: replay exactly-once). A LEAVE ends its membership, so it is sent (or
#: queued for the failover flush), never logged.
_LOGGED_KINDS = _STAMPED_KINDS - {MessageKind.LEAVE}
#: Kinds that open a root delivery trace at the actor.
_TRACED_KINDS = frozenset(kind for kind, row in PROTOCOL.items() if row.traced)


class Membership:
    """One room this client is in or is joining: all that a leave ends.

    *Pending* from :meth:`ClientModule.join` until its ``JOIN_ACK`` gives
    it a session, *current* after. A client holds at most one, so a timer
    or bounce whose membership is no longer the client's does nothing.
    """

    def __init__(self, doc_id: str, join_time: float) -> None:
        self.doc_id = doc_id
        self.join_time = join_time  # a rejoin after a shed keeps it
        #: JOIN to JOIN_ACK, set when the ack makes this membership current.
        self.join_latency: float | None = None
        self.session_id: str | None = None
        self.room_id: str | None = None
        self.render: RenderTree | None = None
        self.sizes: dict[str, dict[str, int]] = {}
        #: component -> buffer key pinned for its displayed payload: the
        #: buffer pins exactly what is on screen.
        self.pins: dict[str, str] = {}
        #: Reads in flight, ``(component, value)`` in issue order: asked
        #: once, re-sent only by a gateway failover (a dict, not a set, so
        #: the replay order never depends on string hashing).
        self.reads_in_flight: dict[tuple[str, str], None] = {}
        #: Explicit subscription set acked by the server; ``None`` until
        #: the first SUBSCRIBE_ACK (implicit interest in everything).
        self.subscriptions: tuple[str, ...] | None = None
        #: ``(kind, fields)`` issued while pending, sent at the JOIN_ACK.
        self.queued: list[tuple[str, dict[str, Any]]] = []
        self.op_log: list[tuple[str, dict[str, Any]]] = []
        #: unlogged requests (its JOIN, reads) issued while our home
        #: gateway was dead, sent after the failover replay.
        self.offline: list[tuple[str, dict[str, Any]]] = []
        #: lowest shed op_seq awaiting re-send; while set, newly issued
        #: logged ops are held in the op log so the retry flush replays
        #: everything in original order.
        self.retry_from_seq: int | None = None
        self.retry_timer_armed = False
        self.retry_shed_at: float | None = None  # the earliest bounce
        self.rejoin_attempts = 0
        self.rejoin_pending = False

    def shows(self, component: str, value: str) -> bool:
        render = self.render
        return render is not None and component in render and render.value_of(component) == value


class ClientModule:
    """One user's client, attachable to the simulated network."""

    def __init__(
        self,
        viewer_id: str,
        network: SimulatedNetwork | None = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        auto_fetch: bool = True,
    ) -> None:
        self.viewer_id = viewer_id
        self.node_id = f"client-{viewer_id}"
        self.network = network
        self.buffer = ClientBuffer(buffer_bytes, owner=self.node_id)
        registry = obs.get_registry()
        # Response times come from the shared simulation clock, so the
        # histogram is deterministic under simclock.
        self._m_view_response = registry.histogram_family(
            "client.view_response_s", ("viewer",)
        ).labels(viewer_id)
        self._m_join_latency = registry.histogram("client.join_latency_s")
        self._dtrace = get_dtrace()
        self.auto_fetch = auto_fetch
        #: The room this client is in or joining; ``None`` between rooms.
        self.membership: Membership | None = None
        self.peer_events: list[dict[str, Any]] = []
        self.broadcasts: list[dict[str, Any]] = []
        self.errors: list[dict[str, Any]] = []
        #: Frames the reliable transport gave up on, as dicts.
        self.delivery_failures: list[dict[str, Any]] = []
        #: Components displayed as placeholders after payload fetch failed.
        self.degraded_components: list[str] = []
        self._tuning_level: str | None = None
        self._tuning_unsupported = False
        # Per-connection string table for the uplink (one reliable in-order
        # stream): session ids, component paths shrink to 2-byte references.
        self._wire_table = StringInterner()
        # Stamps the mutating ops of a client homed on a gateway (a single
        # server's clients never are, so their bytes are untouched).
        self._op_seq = 0
        #: LEAVEs of ended memberships issued while our home gateway was
        #: dead, sent first after the failover.
        self._offline: list[tuple[str, dict[str, Any]]] = []
        #: RETRY_AFTER bounces received (admission control shed us), by
        #: the bounced message's kind: bounded by the set of kinds.
        self.retry_afters: dict[str | None, int] = {}
        #: completed gateway failovers seen by this client, in order.
        self.gateway_failovers: list[dict[str, Any]] = []
        self.updates_received = 0
        self.join_latency: float | None = None
        self.response_times: list[float] = []
        self._awaiting_response_since: float | None = None

    @property
    def session_id(self) -> str | None:
        """The current membership's session (``None`` while joining)."""
        return self.membership.session_id if self.membership is not None else None

    @property
    def room_id(self) -> str | None:
        return self.membership.room_id if self.membership is not None else None

    @property
    def render(self) -> RenderTree | None:
        return self.membership.render if self.membership is not None else None

    # ----- requests ------------------------------------------------------------------

    def join(self, doc_id: str) -> None:
        """Open a pending membership of *doc_id*'s room. Joining while in
        a room leaves it first; a join still pending is superseded, and
        its ack, if one comes, is answered with a LEAVE."""
        if self.session_id is not None:
            self.leave()
        self.membership = membership = Membership(doc_id, self._now())
        # A (re)join is a new logical connection: a fresh string table, so
        # the server never needs a previous incarnation's to decode this one.
        self._wire_table.reset()
        self._send(MessageKind.JOIN, {"viewer_id": self.viewer_id, "doc_id": doc_id}, membership)

    def leave(self) -> None:
        """End the membership with its log, read table, retry and rejoin
        state: what the user walked away from is at-most-once by design."""
        membership = self.membership
        if membership is None:
            raise ClientError(f"client {self.viewer_id!r} has no session (join first)")
        self.membership = None
        self.buffer.unpin_all()  # nothing is on screen any more
        if membership.session_id is not None:
            self._send(MessageKind.LEAVE, {"session_id": membership.session_id}, None)

    def choose(self, component: str, value: str, scope: str = "shared") -> None:
        self._mark_action()
        self._request(MessageKind.CHOICE, component=component, value=value, scope=scope)

    def operate(self, component: str, operation: str, global_importance: bool = False) -> None:
        self._mark_action()
        self._request(
            MessageKind.OPERATION,
            component=component, operation=operation, **{"global": global_importance},
        )

    def annotate(self, component: str, annotation: dict[str, Any]) -> None:
        self._request(MessageKind.ANNOTATE, component=component, annotation=annotation)

    def freeze(self, component: str) -> None:
        self._request(MessageKind.FREEZE, component=component)

    def release(self, component: str) -> None:
        self._request(MessageKind.RELEASE, component=component)

    def subscribe(self, components: list[str], replace: bool = False) -> None:
        """Explicitly subscribe to component paths (narrowing interest)."""
        flags = {"replace": True} if replace else {}
        self._request(MessageKind.SUBSCRIBE, components=list(components), **flags)

    def unsubscribe(self, components: list[str] | None = None) -> None:
        """Drop subscriptions; with no argument, drop them all."""
        if components is None:
            self._request(MessageKind.UNSUBSCRIBE, all=True)
        else:
            self._request(MessageKind.UNSUBSCRIBE, components=list(components))

    def fetch_payload(self, component: str, value: str) -> None:
        self._request(MessageKind.FETCH_PAYLOAD, component=component, value=value)
        self.membership.reads_in_flight[(component, value)] = None

    def _request(self, kind: str, **fields: Any) -> None:
        """One message on our session: its id first, then *fields* in the
        order given (field order is wire bytes). While the join is
        pending it waits on the membership for the ack's session id."""
        membership = self.membership
        if membership is None:
            raise ClientError(f"client {self.viewer_id!r} has no session (join first)")
        if membership.session_id is None:
            membership.queued.append((kind, fields))
            return
        self._send(kind, {"session_id": membership.session_id, **fields}, membership)

    def _send(self, kind: str, payload: dict[str, Any], owner: Membership | None) -> None:
        if self.network is None:
            raise ClientError("client is not attached to a network")
        home = self.network.home_of(self.node_id)
        if home is not None and kind in _STAMPED_KINDS:
            self._op_seq += 1
            payload = {**payload, "op_seq": self._op_seq}
            if kind in _LOGGED_KINDS:
                owner.op_log.append((kind, payload))
                if owner.retry_from_seq is not None:
                    # An earlier op of ours was shed and waits to retry;
                    # this one would arrive ahead of it and be shed by the
                    # server's ordering fence. The flush replays it in order.
                    return
        self._dispatch(kind, payload, home, owner)

    def _dispatch(
        self, kind: str, payload: dict[str, Any], home: str | None,
        owner: Membership | None = None, shed_at: float | None = None,
    ) -> None:
        """Encode and put one request of *owner* on the wire to *home*
        (``None``: the single hub). While *home* is a dead gateway, a logged
        op waits in the log for the failover replay, anything else queues.

        *shed_at* marks a re-dispatch after a ``RETRY_AFTER`` bounce: the
        trace roots at the bounce and the backoff we honored is recorded
        as an explicit ``shed_wait`` hop — queueing on the op's critical
        path, not wire time.
        """
        if home is not None and not self.network.has_node(home):
            if kind not in _LOGGED_KINDS:
                (owner.offline if owner is not None else self._offline).append((kind, payload))
            return
        frame = encode_message(kind, payload, interner=self._wire_table)
        dtrace = self._dtrace
        if dtrace.enabled and kind in _TRACED_KINDS:
            # Root of the delivery trace: one trace per sampled user
            # action, carried end-to-end on the wire from here.
            start = shed_at if shed_at is not None else self._now()
            room = owner.room_id if owner is not None else None
            ctx = dtrace.start_trace(self.node_id, kind, start, room=room)
            if ctx is not None and shed_at is not None:
                ctx = dtrace.record_hop(
                    ctx, HOP_SHED_WAIT, self.node_id, shed_at, self._now(), kind=kind
                )
            if ctx is not None:
                frame = stamp_frame(frame, (ctx,))
        self.network.send(self.node_id, home or self.network.hub_id, frame)

    def _now(self) -> float:
        return self.network.clock.now if self.network is not None else 0.0

    def _mark_action(self) -> None:
        self._awaiting_response_since = self._now()

    def _owner_of(self, payload: dict[str, Any]) -> Membership | None:
        """Our membership, if *payload* (a request, or a bounce echoing one)
        was issued for it: a JOIN names its document, an op its session."""
        membership = self.membership
        if membership is None or payload.get("session_id") != membership.session_id:
            return None
        doc_id = payload.get("doc_id", membership.doc_id)
        return membership if doc_id == membership.doc_id else None

    # ----- responses ------------------------------------------------------------------

    #: server message kind -> the method that takes its payload.
    _HANDLERS = {
        MessageKind.JOIN_ACK: "_on_join_ack",
        MessageKind.PRESENTATION_UPDATE: "_on_presentation_update",
        MessageKind.PAYLOAD: "_on_payload",
        MessageKind.SUBSCRIBE_ACK: "_on_subscribe_ack",
        MessageKind.PEER_EVENT: "_on_peer_event",
        MessageKind.BROADCAST: "_on_broadcast",
        MessageKind.RETRY_AFTER: "_on_retry_after",
        MessageKind.ERROR: "_on_error",
    }

    def receive(self, message: Message) -> None:
        handler = self._HANDLERS.get(message.kind)
        if handler is None:
            raise ClientError(f"unexpected message kind {message.kind!r}")
        getattr(self, handler)(message.payload or {})

    def _on_peer_event(self, payload: dict[str, Any]) -> None:
        self.peer_events.append(payload)

    def _on_broadcast(self, payload: dict[str, Any]) -> None:
        self.broadcasts.append(payload)

    def _on_error(self, payload: dict[str, Any]) -> None:
        detail = str(payload.get("detail", ""))
        if self._tuning_level is not None and TUNING_VARIABLE in detail:
            # Our own degradation step-down bounced: the document has
            # no tuning variable installed. Remember, stop trying —
            # this is not a user-visible protocol error.
            self._tuning_unsupported = True
        else:
            self.errors.append(payload)
            if payload.get("kind") == MessageKind.JOIN and self._owner_of(payload):
                # Our pending join was refused: later ops fail, not queue on it.
                self.membership = None

    def _on_join_ack(self, payload: dict[str, Any]) -> None:
        membership, session_id = self.membership, payload["session_id"]
        if membership is not None and membership.session_id == session_id:
            return  # a duplicate of the ack that made it current
        if membership is None or membership.session_id or payload["doc_id"] != membership.doc_id:
            # The ack of a join we have since left or superseded: nobody
            # holds this session, so it must not outlive the ack.
            self._send(MessageKind.LEAVE, {"session_id": session_id}, None)
            return
        membership.session_id = session_id
        membership.room_id = payload["room_id"]
        structure = payload.get("structure", [])
        membership.render = RenderTree(membership.doc_id, structure)
        membership.sizes = {entry["path"]: dict(entry.get("sizes", {})) for entry in structure}
        membership.render.apply_update(payload.get("outcome", {}))
        self.join_latency = membership.join_latency = self._now() - membership.join_time
        self._m_join_latency.observe(self.join_latency)
        self._fetch_missing(membership, payload.get("outcome", {}))
        queued, membership.queued = membership.queued, []
        for kind, fields in queued:
            self._request(kind, **fields)

    def _on_subscribe_ack(self, payload: dict[str, Any]) -> None:
        membership = self.membership
        if membership is None or membership.render is None:
            return  # the ack of a room we left
        membership.subscriptions = tuple(payload.get("subscribed", ()))
        # Catch-up: values of newly covered components that changed while
        # this client was not subscribed, applied like a regular update.
        catchup = payload.get("outcome") or {}
        if catchup:
            changed = membership.render.apply_update(catchup)
            self._fetch_missing(membership, {p: catchup[p] for p in changed if p in catchup})

    def _on_presentation_update(self, payload: dict[str, Any]) -> None:
        membership = self.membership
        doc_id = payload.get("doc_id")
        render = membership.render if membership is not None else None
        if render is None or (doc_id is not None and doc_id != membership.doc_id):
            # Stale fan-out from a room we already left: our LEAVE was
            # still in flight when the server sent this. Dropping it is
            # the only deterministic choice — what a departed viewer
            # "last saw" must not depend on delivery races.
            return
        self.updates_received += 1
        changes = payload.get("changes", {})
        changed = render.apply_update(changes)
        if self._awaiting_response_since is not None:
            elapsed = self._now() - self._awaiting_response_since
            self.response_times.append(elapsed)
            self._m_view_response.observe(elapsed)
            self._awaiting_response_since = None
        self._fetch_missing(membership, {p: changes[p] for p in changed if p in changes})
        ctx = self._dtrace.current()
        if ctx is not None:
            # End of the line: the update is on this client's display.
            self._dtrace.finish_delivery(ctx, self.node_id, self._now())

    def _fetch_missing(self, membership: Membership, changes: dict[str, str]) -> None:
        """Release the pins of replaced forms; request payload bytes for
        newly displayed ones."""
        pins = membership.pins
        for path in changes:
            key = pins.pop(path, None)
            if key is not None:
                self.buffer.unpin(key)
        if not self.auto_fetch:
            return
        render = membership.render
        for path, value in changes.items():
            size = membership.sizes.get(path, {}).get(value, 0)
            if size <= 0:
                render.mark_payload_ready(path)
                continue
            key = entry_key(path, value)
            if self.buffer.lookup(key) is not None:
                render.mark_payload_ready(path)
                self.buffer.pin(key)
                pins[path] = key
                continue
            # A read already in flight renders and pins this value on arrival.
            if (path, value) not in membership.reads_in_flight:
                self.fetch_payload(path, value)

    def _on_payload(self, payload: dict[str, Any]) -> None:
        component, value, size = payload["component"], payload["value"], payload["size"]
        membership = self.membership
        key = entry_key(component, value)
        if membership is not None:
            membership.reads_in_flight.pop((component, value), None)
        if membership is not None and membership.shows(component, value):
            if self.buffer.admit(key, size, priority=_DEMAND_PRIORITY):
                self.buffer.pin(key)
                membership.pins[component] = key
            membership.render.mark_payload_ready(component)
        else:
            speculative = _SPECULATIVE_PRIORITY
            self.buffer.admit(key, size, priority=speculative, evict_below=speculative)

    # ----- admission backpressure ---------------------------------------------------------

    def _on_retry_after(self, payload: dict[str, Any]) -> None:
        """An overloaded shard or gateway bounced one of our requests.

        The bounce carries a deterministic backoff hint; we honor it with
        seeded jitter (hashed from our identity, never random) so a flash
        crowd shed together does not retry together. JOINs re-enter a
        rejoin loop with escalating delay; shed session ops replay from
        the op log in original order; op_seq-less reads re-dispatch their
        echoed payload verbatim. A bounce of a membership we have left
        or superseded is dropped, and so is every timer it armed.
        """
        kind = payload.get("kind")
        self.retry_afters[kind] = self.retry_afters.get(kind, 0) + 1
        after_s = float(payload.get("after_s", 0.25))
        membership = self._owner_of(payload.get("data", payload))
        if membership is None or self.network is None:
            return
        clock = self.network.clock
        if kind == MessageKind.JOIN:
            if not membership.rejoin_pending:
                membership.rejoin_pending = True
                membership.rejoin_attempts += 1
                attempt = membership.rejoin_attempts
                # Escalate on repeated bounces (capped at 8x the hint) and jitter
                # by up to +50% so the crowd decorrelates deterministically.
                delay = after_s * min(2.0 ** (attempt - 1), 8.0)
                delay *= 1.0 + 0.5 * seeded_jitter(self.viewer_id, "join", attempt)
                clock.schedule(delay, lambda: self._rejoin(membership))
            return
        op_seq = payload.get("op_seq")  # stamped only while homed
        if op_seq is not None:
            if membership.retry_from_seq is None or op_seq < membership.retry_from_seq:
                membership.retry_from_seq = op_seq
            if membership.retry_shed_at is None:
                membership.retry_shed_at = self._now()
            if not membership.retry_timer_armed:
                membership.retry_timer_armed = True
                delay = after_s * (1.0 + 0.5 * seeded_jitter(self.viewer_id, "ops", op_seq))
                clock.schedule(delay, lambda: self._flush_op_retries(membership))
            return
        data = payload.get("data")
        if data is not None:
            shed_at = self._now()
            delay = after_s * (1.0 + 0.5 * seeded_jitter(self.viewer_id, kind, after_s))
            clock.schedule(
                delay, lambda: self._redispatch_read(membership, kind, dict(data), shed_at)
            )

    def _rejoin(self, membership: Membership) -> None:
        membership.rejoin_pending = False
        if membership is not self.membership or membership.session_id is not None:
            return
        # Deliberately not join(): the join_time stands (the user has waited
        # since their first click) and the uplink's string table survives.
        payload = {"viewer_id": self.viewer_id, "doc_id": membership.doc_id}
        self._send(MessageKind.JOIN, payload, membership)

    def _flush_op_retries(self, membership: Membership) -> None:
        membership.retry_timer_armed = False
        from_seq, membership.retry_from_seq = membership.retry_from_seq, None
        shed_at, membership.retry_shed_at = membership.retry_shed_at, None
        if from_seq is None or membership is not self.membership:
            return
        # If our home died while we backed off, the failover replays all.
        home = self.network.home_of(self.node_id)
        for kind, payload in list(membership.op_log):
            if payload["op_seq"] >= from_seq:
                self._dispatch(kind, payload, home, membership, shed_at)

    def _redispatch_read(
        self, membership: Membership, kind: str, payload: dict[str, Any], shed_at: float
    ) -> None:
        if membership is not self.membership:
            return  # what a departed viewer never fetched stays unfetched
        read = (payload.get("component"), payload.get("value"))
        if kind == MessageKind.FETCH_PAYLOAD and not membership.shows(*read):
            # The form left the screen while we backed off: nothing waits
            # for these bytes, so they do not re-enter the overloaded queue.
            membership.reads_in_flight.pop(read, None)
            return
        self._dispatch(kind, payload, self.network.home_of(self.node_id), membership, shed_at)

    # ----- gateway failover ---------------------------------------------------------------

    def on_gateway_failover(self, new_gateway: str) -> None:
        """Directory callback: our gateway died; re-attach via *new_gateway*.

        The network has already re-homed our links when this fires. A
        fresh logical connection means a fresh string table; LEAVEs queued
        while detached go first. Then the membership's since-join op log
        replays in original order (at-least-once — the shard's op_seq
        fence dedups what did land), its requests queued while detached
        flush, and its reads still in flight re-send last, in issue order
        (a read queued in the dead gateway is otherwise lost), skipping
        any the flush just sent.
        """
        self._wire_table.reset()
        membership = self.membership
        log = membership.op_log if membership is not None else []
        self.gateway_failovers.append(
            {"gateway": new_gateway, "at": self._now(), "replayed": len(log)}
        )
        leaves, self._offline = self._offline, []
        for kind, payload in leaves:
            self._dispatch(kind, payload, new_gateway)
        if membership is None:
            return
        # The full-log replay below supersedes any pending shed retry.
        membership.retry_from_seq = None
        membership.retry_shed_at = None
        for kind, payload in list(log):
            self._dispatch(kind, payload, new_gateway, membership)
        offline, membership.offline = membership.offline, []
        flushed = set()
        for kind, payload in offline:
            self._dispatch(kind, payload, new_gateway, membership)
            flushed.add((payload.get("component"), payload.get("value")))
        reads = [read for read in membership.reads_in_flight if read not in flushed]
        for component, value in reads:
            self.fetch_payload(component, value)

    # ----- graceful degradation ----------------------------------------------------------

    def on_delivery_failed(self, error: Any) -> None:
        """The reliable transport gave up on one of this client's frames.

        Payload fetches degrade gracefully (§4.4): the component renders
        its placeholder instead of hanging forever, and the client steps
        its personal ``tuning.bandwidth`` choice down one level so the
        preference model stops selecting presentations the link cannot
        carry. Everything else is recorded for the caller to inspect.

        Under the gateway tier, failures that are artifacts of a gateway
        crash are healed instead of recorded: they are topology events,
        not link-quality signals, so they must not trigger §4.4 tuning.
        """
        home = self.network.home_of(self.node_id) if self.network is not None else None
        if home is not None and (error.recipient != home) == self.network.has_node(home):
            # A frame to our previous home gave up after we were re-homed,
            # or one to our dead home before we were. The failover replays
            # logged ops; a LEAVE and our membership's requests re-issue.
            payload = dict(error.payload or {})
            owner = self._owner_of(payload)
            if error.kind == MessageKind.LEAVE or (owner and error.kind not in _LOGGED_KINDS):
                self._dispatch(error.kind, payload, home, owner)
            return
        self.delivery_failures.append({
            "kind": error.kind, "recipient": error.recipient,
            "reason": error.reason, "attempts": error.attempts,
        })
        if error.kind != MessageKind.FETCH_PAYLOAD:
            return
        component = (error.payload or {}).get("component")
        membership = self.membership
        if membership is not None:
            membership.reads_in_flight.pop((component, (error.payload or {}).get("value")), None)
        if component is not None:
            self.degraded_components.append(component)
            if self.render is not None and component in self.render:
                self.render.mark_payload_ready(component)  # placeholder
        self._step_down_tuning()

    def _step_down_tuning(self) -> None:
        next_level = _STEP_DOWN.get(self._tuning_level)  # None: at the floor
        if self._tuning_unsupported or self.session_id is None or next_level is None:
            return
        self._tuning_level = next_level
        # Personal scope: one viewer's bad link must not degrade the room.
        # Deliberately not _mark_action(): this is not a user action and
        # must not contaminate view-response latency metrics.
        self._request(
            MessageKind.CHOICE, component=TUNING_VARIABLE, value=next_level, scope="personal"
        )

    @property
    def tuning_level(self) -> str | None:
        """Degradation level this client has stepped itself down to."""
        return self._tuning_level

    # ----- views -------------------------------------------------------------------------

    def displayed(self) -> dict[str, str]:
        render = self.render
        return render.displayed() if render is not None else {}

    def fully_rendered(self) -> bool:
        """True when every visible component's payload has arrived."""
        render = self.render
        return render is not None and not render.pending_payloads()
