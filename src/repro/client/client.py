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
from repro.presentation.tuning import (
    BANDWIDTH_LOW,
    BANDWIDTH_MEDIUM,
    TUNING_VARIABLE,
)
from repro.server.protocol import PROTOCOL, MessageKind
from repro.util.backoff import seeded_jitter

DEFAULT_BUFFER_BYTES = 64 * 1024 * 1024
#: Buffer priorities of arriving payloads: one the display is waiting for
#: outranks any other (a prefetch, or a fetch the display has moved past),
#: and the latter may only displace entries ranked below it.
_DEMAND_PRIORITY = 1.0
_SPECULATIVE_PRIORITY = 0.5

#: Mutating session ops that a client homed on a gateway stamps with an
#: op_seq and keeps in its replay log: after a gateway failover these re-send
#: through the new home (at-least-once; the shard's per-session dedup
#: fence makes the replay exactly-once). JOIN is excluded — a join is a
#: new logical connection, not an op on an existing session — and reads
#: (FETCH_PAYLOAD, MONITOR) are excluded because replaying them changes
#: no room state.
_PARKED_KINDS = frozenset(
    kind for kind, row in PROTOCOL.items() if row.op is not None and not row.opens_session
)
#: Kinds that open a root delivery trace at the actor.
_TRACED_KINDS = frozenset(kind for kind, row in PROTOCOL.items() if row.traced)


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
        self.session_id: str | None = None
        self.room_id: str | None = None
        self.doc_id: str | None = None
        self.render: RenderTree | None = None
        self.sizes: dict[str, dict[str, int]] = {}
        self.peer_events: list[dict[str, Any]] = []
        self.broadcasts: list[dict[str, Any]] = []
        self.errors: list[dict[str, Any]] = []
        #: component -> buffer key pinned for its displayed payload: the
        #: buffer pins exactly what is on screen.
        self._pins: dict[str, str] = {}
        #: Reads in flight, ``(component, value)`` in issue order: asked
        #: once, re-sent only by a gateway failover (a dict, not a set, so
        #: the replay order never depends on string hashing).
        self.reads_in_flight: dict[tuple[str, str], None] = {}
        #: Explicit subscription set acked by the server; ``None`` until
        #: the first SUBSCRIBE_ACK (implicit interest in everything).
        self.subscriptions: tuple[str, ...] | None = None
        #: Frames the reliable transport gave up on, as dicts.
        self.delivery_failures: list[dict[str, Any]] = []
        #: Components displayed as placeholders after payload fetch failed.
        self.degraded_components: list[str] = []
        self._tuning_level: str | None = None
        self._tuning_unsupported = False
        # Per-connection dynamic string table for the uplink (the client
        # speaks to one hub over one reliable in-order stream): repeated
        # non-vocabulary strings — session ids, component paths — shrink
        # to 2-byte references after their first frame.
        self._wire_table = StringInterner()
        # Gateway-tier resilience, on while the network homes us on a
        # gateway (a single server's clients never are, so their bytes
        # are untouched): mutating ops are sequence-stamped and logged
        # for replay through a surviving gateway after failover.
        self._op_seq = 0
        self._op_log: list[tuple[str, dict[str, Any]]] = []
        self._offline: list[tuple[str, dict[str, Any]]] = []
        #: sessions this client has left: their ops never re-dispatch.
        self._closed_sessions: set[str] = set()
        #: RETRY_AFTER bounces received (admission control shed us), by
        #: the bounced message's kind: bounded by the set of kinds.
        self.retry_afters: dict[str | None, int] = {}
        self._rejoin_attempts = 0
        self._rejoin_pending = False
        #: lowest shed op_seq awaiting re-send; while set, newly issued
        #: parked ops are held in the op log instead of dispatched so the
        #: retry flush replays everything in original order.
        self._retry_from_seq: int | None = None
        self._retry_timer_armed = False
        #: when the pending shed-retry window opened (earliest bounce).
        self._retry_shed_at: float | None = None
        #: completed gateway failovers seen by this client, in order.
        self.gateway_failovers: list[dict[str, Any]] = []
        self.updates_received = 0
        self.join_time: float | None = None
        self.join_latency: float | None = None
        self.response_times: list[float] = []
        self._awaiting_response_since: float | None = None

    # ----- requests ------------------------------------------------------------------

    def join(self, doc_id: str) -> None:
        self.join_time = self._now()
        # A (re)join is a new logical connection: the dynamic string
        # table starts empty, so the server never has to remember a
        # previous incarnation's table to decode this one.
        self._wire_table.reset()
        self._send(MessageKind.JOIN, {"viewer_id": self.viewer_id, "doc_id": doc_id})

    def leave(self) -> None:
        session_id = self._require_session()
        self._send(MessageKind.LEAVE, {"session_id": session_id})
        # A left session is abandoned: none of its backlog may replay
        # after a gateway failover — the shard drops the session with
        # the LEAVE (its op_seq dedup fence stays, so a late duplicate
        # LEAVE is still fenced), and a replayed op can only bounce as
        # an unroutable-session error. Ops the user walked away from
        # are at-most-once by design.
        self._closed_sessions.add(session_id)
        self.reads_in_flight.clear()
        self._op_log = [
            entry
            for entry in self._op_log
            if entry[1].get("session_id") != session_id
        ]
        self.session_id = None
        self.room_id = None

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
        self.reads_in_flight[(component, value)] = None

    def _require_session(self) -> str:
        if self.session_id is None:
            raise ClientError(f"client {self.viewer_id!r} has no session (join first)")
        return self.session_id

    def _request(self, kind: str, **fields: Any) -> None:
        """One message on our session: its id first, then *fields* in the
        order given (field order is wire bytes)."""
        self._send(kind, {"session_id": self._require_session(), **fields})

    def _send(self, kind: str, payload: dict[str, Any]) -> None:
        if self.network is None:
            raise ClientError("client is not attached to a network")
        home = self.network.home_of(self.node_id)
        if home is not None:
            if kind in _PARKED_KINDS:
                self._op_seq += 1
                payload = dict(payload)
                payload["op_seq"] = self._op_seq
                self._op_log.append((kind, payload))
                if self._retry_from_seq is not None:
                    # An earlier op of ours was shed and is waiting to
                    # retry; sending this one now would arrive ahead of
                    # it and be shed by the server's ordering fence
                    # anyway. Hold it — the flush replays the log in
                    # order from the shed seq.
                    return
            if not self.network.has_node(home):
                # Our home gateway is dead and the directory has not
                # re-homed us yet. Mutating ops are already in the replay
                # log; everything else queues for the post-failover flush.
                if kind not in _PARKED_KINDS:
                    self._offline.append((kind, payload))
                return
        self._dispatch(kind, payload)

    def _dispatch(
        self, kind: str, payload: dict[str, Any], shed_at: float | None = None
    ) -> None:
        """Encode and put one request on the wire to our current home.

        *shed_at* marks a re-dispatch after a ``RETRY_AFTER`` bounce: the
        trace roots at the bounce and the backoff we honored is recorded
        as an explicit ``shed_wait`` hop — queueing on the op's critical
        path, not wire time.
        """
        frame = encode_message(kind, payload, interner=self._wire_table)
        dtrace = self._dtrace
        if dtrace.enabled and kind in _TRACED_KINDS:
            # Root of the delivery trace: one trace per sampled user
            # action, carried end-to-end on the wire from here.
            ctx = dtrace.start_trace(
                self.node_id,
                kind,
                shed_at if shed_at is not None else self._now(),
                room=self.room_id,
            )
            if ctx is not None and shed_at is not None:
                ctx = dtrace.record_hop(
                    ctx, HOP_SHED_WAIT, self.node_id, shed_at, self._now(),
                    kind=kind,
                )
            if ctx is not None:
                frame = stamp_frame(frame, (ctx,))
        self.network.send(self.node_id, self.network.hub_for(self.node_id), frame)

    def _now(self) -> float:
        return self.network.clock.now if self.network is not None else 0.0

    def _mark_action(self) -> None:
        self._awaiting_response_since = self._now()

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

    def _on_join_ack(self, payload: dict[str, Any]) -> None:
        self.session_id = payload["session_id"]
        self.room_id = payload["room_id"]
        self.doc_id = payload["doc_id"]
        structure = payload.get("structure", [])
        self.render = RenderTree(self.doc_id, structure)
        # A new display: nothing the old one pinned is on screen any more.
        self.buffer.unpin_all()
        self._pins.clear()
        self.reads_in_flight.clear()
        self.sizes = {
            entry["path"]: dict(entry.get("sizes", {})) for entry in structure
        }
        self.render.apply_update(payload.get("outcome", {}))
        self._rejoin_attempts = 0
        self._rejoin_pending = False
        if self.join_time is not None:
            self.join_latency = self._now() - self.join_time
            self._m_join_latency.observe(self.join_latency)
        self._fetch_missing(payload.get("outcome", {}))

    def _on_subscribe_ack(self, payload: dict[str, Any]) -> None:
        self.subscriptions = tuple(payload.get("subscribed", ()))
        # Catch-up: values of newly covered components that changed while
        # this client was not subscribed, applied like a regular update.
        catchup = payload.get("outcome") or {}
        if catchup and self.render is not None:
            changed = self.render.apply_update(catchup)
            self._fetch_missing(
                {path: catchup[path] for path in changed if path in catchup}
            )

    def _on_presentation_update(self, payload: dict[str, Any]) -> None:
        if self.render is None:
            raise ClientError("presentation update before join_ack")
        doc_id = payload.get("doc_id")
        if self.session_id is None or (
            doc_id is not None and doc_id != self.doc_id
        ):
            # Stale fan-out from a room we already left: our LEAVE was
            # still in flight when the server sent this. Dropping it is
            # the only deterministic choice — what a departed viewer
            # "last saw" must not depend on delivery races.
            return
        self.updates_received += 1
        changed = self.render.apply_update(payload.get("changes", {}))
        if self._awaiting_response_since is not None:
            elapsed = self._now() - self._awaiting_response_since
            self.response_times.append(elapsed)
            self._m_view_response.observe(elapsed)
            self._awaiting_response_since = None
        self._fetch_missing(
            {path: payload["changes"][path] for path in changed if path in payload["changes"]}
        )
        ctx = self._dtrace.current()
        if ctx is not None:
            # End of the line: the update is on this client's display.
            self._dtrace.finish_delivery(ctx, self.node_id, self._now())

    def _fetch_missing(self, changes: dict[str, str]) -> None:
        """Release the pins of replaced forms; request payload bytes for
        newly displayed ones."""
        pins = self._pins
        for path in changes:
            key = pins.pop(path, None)
            if key is not None:
                self.buffer.unpin(key)
        if not self.auto_fetch or self.render is None:
            return
        for path, value in changes.items():
            size = self.sizes.get(path, {}).get(value, 0)
            if size <= 0:
                self.render.mark_payload_ready(path)
                continue
            key = entry_key(path, value)
            if self.buffer.lookup(key) is not None:
                self.render.mark_payload_ready(path)
                self.buffer.pin(key)
                pins[path] = key
                continue
            # A read already in flight renders and pins this value on arrival.
            if (path, value) not in self.reads_in_flight:
                self.fetch_payload(path, value)

    def _on_screen(self, component: str, value: str) -> bool:
        render = self.render
        return (
            render is not None and component in render and render.value_of(component) == value
        )

    def _on_payload(self, payload: dict[str, Any]) -> None:
        component = payload.get("component")
        value = payload.get("value")
        size = payload.get("size", 0)
        if component is None or value is None:
            return  # raw media_ref payloads are consumed by media tooling
        self.reads_in_flight.pop((component, value), None)
        key = entry_key(component, value)
        if self._on_screen(component, value):
            if self.buffer.admit(key, size, priority=_DEMAND_PRIORITY):
                self.buffer.pin(key)
                self._pins[component] = key
            self.render.mark_payload_ready(component)
        else:
            self.buffer.admit(
                key, size,
                priority=_SPECULATIVE_PRIORITY, evict_below=_SPECULATIVE_PRIORITY,
            )

    # ----- admission backpressure ---------------------------------------------------------

    def _on_retry_after(self, payload: dict[str, Any]) -> None:
        """An overloaded shard or gateway bounced one of our requests.

        The bounce carries a deterministic backoff hint; we honor it with
        seeded jitter (hashed from our identity, never random) so a flash
        crowd shed together does not retry together. JOINs re-enter a
        rejoin loop with escalating delay; shed session ops replay from
        the op log in original order; op_seq-less reads re-dispatch their
        echoed payload verbatim.
        """
        kind = payload.get("kind")
        self.retry_afters[kind] = self.retry_afters.get(kind, 0) + 1
        after_s = float(payload.get("after_s", 0.25))
        if kind == MessageKind.JOIN:
            doc_id = payload.get("doc_id", self.doc_id)
            if doc_id is not None:
                self._schedule_rejoin(doc_id, after_s)
            return
        op_seq = payload.get("op_seq")  # stamped only while homed
        if op_seq is not None:
            if self._retry_from_seq is None or op_seq < self._retry_from_seq:
                self._retry_from_seq = op_seq
            if self._retry_shed_at is None:
                self._retry_shed_at = self._now()
            if not self._retry_timer_armed and self.network is not None:
                self._retry_timer_armed = True
                delay = after_s * (
                    1.0 + 0.5 * seeded_jitter(self.viewer_id, "ops", op_seq)
                )
                self.network.clock.schedule(delay, self._flush_op_retries)
            return
        data = payload.get("data")
        if data is not None and self.network is not None:
            shed_at = self._now()
            delay = after_s * (1.0 + 0.5 * seeded_jitter(self.viewer_id, kind, after_s))
            self.network.clock.schedule(
                delay, lambda: self._redispatch_read(kind, dict(data), shed_at)
            )

    def _schedule_rejoin(self, doc_id: str, hint_s: float) -> None:
        if self.session_id is not None or self._rejoin_pending:
            return
        if self.network is None:
            return
        self._rejoin_pending = True
        self._rejoin_attempts += 1
        attempt = self._rejoin_attempts
        # Escalate on repeated bounces (capped at 8x the hint) and jitter
        # by up to +50% so the crowd decorrelates deterministically.
        delay = hint_s * min(2.0 ** (attempt - 1), 8.0)
        delay *= 1.0 + 0.5 * seeded_jitter(self.viewer_id, "join", attempt)
        self.network.clock.schedule(delay, lambda: self._rejoin(doc_id))

    def _rejoin(self, doc_id: str) -> None:
        self._rejoin_pending = False
        if self.session_id is not None:
            return
        # Deliberately not join(): the original join_time stands (the
        # user has been waiting since their first click) and the wire
        # table survives — the uplink connection never dropped.
        self._send(MessageKind.JOIN, {"viewer_id": self.viewer_id, "doc_id": doc_id})

    def _flush_op_retries(self) -> None:
        self._retry_timer_armed = False
        from_seq, self._retry_from_seq = self._retry_from_seq, None
        shed_at, self._retry_shed_at = self._retry_shed_at, None
        if from_seq is None or self.network is None:
            return
        hub = self.network.hub_for(self.node_id)
        if not self.network.has_node(hub):
            # Home gateway died while we were backing off; the gateway
            # failover replay covers the whole log, nothing to do here.
            return
        for kind, payload in list(self._op_log):
            if payload.get("op_seq", 0) >= from_seq:
                self._dispatch(kind, payload, shed_at=shed_at)

    def _redispatch_read(
        self, kind: str, payload: dict[str, Any], shed_at: float | None = None
    ) -> None:
        if self.network is None:
            return
        session_id = payload.get("session_id")
        if session_id is not None and session_id != self.session_id:
            # The bounce outlived the session: we left the room while
            # backing off, so the read would chase a dead session. What
            # a departed viewer never fetched stays unfetched by design.
            return
        read = (payload.get("component"), payload.get("value"))
        if kind == MessageKind.FETCH_PAYLOAD and not self._on_screen(*read):
            # The form left the screen while we backed off: nothing waits
            # for these bytes, so they do not re-enter the overloaded queue.
            self.reads_in_flight.pop(read, None)
            return
        hub = self.network.hub_for(self.node_id)
        if not self.network.has_node(hub):  # only a gateway home can die
            self._offline.append((kind, payload))
            return
        self._dispatch(kind, payload, shed_at=shed_at)

    # ----- gateway failover ---------------------------------------------------------------

    def on_gateway_failover(self, new_gateway: str) -> None:
        """Directory callback: our gateway died; re-attach via *new_gateway*.

        The network has already re-homed our links when this fires. A
        fresh logical connection means a fresh dynamic string table;
        then the full since-join op log replays through the new home in
        original order (at-least-once — the shard's per-session op_seq
        fence dedups whatever did land the first time), and any requests
        queued while we were detached flush after it. Reads still in
        flight re-send last, in issue order (a read queued in the dead
        gateway is otherwise lost), skipping any the flush just sent.
        """
        self._wire_table.reset()
        # The full-log replay below supersedes any pending shed retry.
        self._retry_from_seq = None
        self._retry_shed_at = None
        self.gateway_failovers.append(
            {"gateway": new_gateway, "at": self._now(), "replayed": len(self._op_log)}
        )
        for kind, payload in list(self._op_log):
            self._dispatch(kind, payload)
        offline, self._offline = self._offline, []
        flushed = set()
        for kind, payload in offline:
            if payload.get("session_id") in self._closed_sessions:
                continue
            self._dispatch(kind, payload)
            flushed.add((payload.get("component"), payload.get("value")))
        for component, value in [read for read in self.reads_in_flight if read not in flushed]:
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
        if home is not None:
            if error.recipient != home and self.network.has_node(home):
                # Frame addressed to our *previous* home gave up after we
                # were re-homed. The failover replay already covers the
                # mutating backlog; only non-replayed requests re-issue.
                if error.kind not in _PARKED_KINDS:
                    self._dispatch(error.kind, dict(error.payload or {}))
                return
            if error.recipient == home and not self.network.has_node(home):
                # Our home is dead but not yet swept: the failover replay
                # will cover mutating ops; park the rest for the flush.
                if error.kind not in _PARKED_KINDS:
                    self._offline.append((error.kind, dict(error.payload or {})))
                return
        self.delivery_failures.append(
            {
                "kind": error.kind,
                "recipient": error.recipient,
                "reason": error.reason,
                "attempts": error.attempts,
            }
        )
        if error.kind != MessageKind.FETCH_PAYLOAD:
            return
        component = (error.payload or {}).get("component")
        self.reads_in_flight.pop((component, (error.payload or {}).get("value")), None)
        if component is not None:
            self.degraded_components.append(component)
            if self.render is not None and component in self.render:
                self.render.mark_payload_ready(component)  # placeholder
        self._step_down_tuning()

    def _step_down_tuning(self) -> None:
        if self._tuning_unsupported or self.session_id is None:
            return
        if self._tuning_level is None:
            next_level = BANDWIDTH_MEDIUM
        elif self._tuning_level == BANDWIDTH_MEDIUM:
            next_level = BANDWIDTH_LOW
        else:
            return  # already at the floor
        self._tuning_level = next_level
        # Personal scope: one viewer's bad link must not degrade the room.
        # Deliberately not _mark_action(): this is not a user action and
        # must not contaminate view-response latency metrics.
        self._send(
            MessageKind.CHOICE,
            {
                "session_id": self.session_id,
                "component": TUNING_VARIABLE,
                "value": next_level,
                "scope": "personal",
            },
        )

    @property
    def tuning_level(self) -> str | None:
        """Degradation level this client has stepped itself down to."""
        return self._tuning_level

    # ----- views -------------------------------------------------------------------------

    def displayed(self) -> dict[str, str]:
        if self.render is None:
            return {}
        return self.render.displayed()

    def fully_rendered(self) -> bool:
        """True when every visible component's payload has arrived."""
        return self.render is not None and not self.render.pending_payloads()
