"""What the cluster's nodes share, written once.

:class:`ClusterNode` is an id on the simulated network that stamps its
flight-recorder events with the shared clock and sends encode-once
frames. :class:`ServiceNode` is one the directory watches and clients
load — a shard, a gateway: it beats while alive, can fail-stop, and
takes its work in one way, through an admission-gated, traced
:class:`~repro.cluster.shard.ServiceQueue`.
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.cluster.admission import (
    DEFER,
    SHED,
    AdmissionConfig,
    AdmissionController,
    retry_after_body,
)
from repro.cluster.failover import schedule_periodic
from repro.net.codec import encode_message
from repro.net.network import SimulatedNetwork
from repro.obs.dtrace import get_dtrace
from repro.server.protocol import MessageKind


class ClusterNode:
    """One addressable node of the cluster tier."""

    def __init__(self, node_id: str, network: SimulatedNetwork) -> None:
        self.node_id = node_id
        self.network = network
        self._events = obs.get_event_log()

    def _emit(self, name: str, severity: str = "INFO", **fields: Any) -> None:
        self._events.emit(name, severity=severity, at=self.network.clock.now, **fields)

    def _send_framed(self, recipient: str, kind: str, body: dict[str, Any]) -> None:
        """Encode once and send; the frame carries its own honest size."""
        self.network.send(self.node_id, recipient, encode_message(kind, body))


class ServiceNode(ClusterNode):
    """A node that serves traffic until it dies.

    Subclasses name themselves (``role``: the crash event and its
    label) and their queue wait (``queue_hop``), and supply
    ``_serve(sender, kind, body)``, one op's work. A node with admission
    control (a shard) also supplies ``_bounce(sender, body)``, which
    returns a shed op's ``RETRY_AFTER`` body to its sender.
    An op held back (queued, parked by admission, a gateway's route
    miss) is one record, ``(ctx, kind, sender, body, since)``.
    """

    role: str
    queue_hop: str

    def __init__(self, node_id: str, network: SimulatedNetwork, directory_id: str) -> None:
        super().__init__(node_id, network)
        # Heartbeats (and a shard's PROMOTE acks, a gateway's route
        # reports and lookups) go to the directory.
        self.directory_id = directory_id
        self.alive = True
        self.queue: Any = None
        self.admission: AdmissionController | None = None
        self._dtrace = get_dtrace()

    # ----- liveness ---------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: detach from the network and go silent (no heartbeats)."""
        self.alive = False
        self.network.detach_client(self.node_id)
        self._emit(
            f"cluster.{self.role}_crash", severity="WARN", **{self.role: self.node_id}
        )

    def close(self) -> None:
        """The run is over: break what serving needs — the queue's and
        admission's steps bound to this node — and unbind their readers.
        What the node counted stays readable."""
        if self.queue is not None:
            self.queue.close()
        if self.admission is not None:
            self.admission.close()

    def start_heartbeats(self, interval: float, until: float) -> None:
        """Beat every *interval* clock seconds up to the *until* horizon."""
        clock = self.network.clock

        def beat() -> bool:
            if not self.alive:
                return False
            # Heartbeats are unreliable (droppable) so they never touch
            # a dynamic string table — each beat is a stateless frame.
            self._send_framed(
                self.directory_id, MessageKind.HEARTBEAT,
                {"node": self.node_id, "at": clock.now},
            )
            return True

        schedule_periodic(clock, interval, until, beat)

    # ----- the queue front --------------------------------------------------------

    def _serve_through(self, queue: Any, admission: AdmissionConfig | None) -> None:
        """Put *queue* (and, with a config, admission control) in front
        of :meth:`_serve`."""
        self.queue = queue
        if admission is not None:
            self.admission = AdmissionController(
                self.node_id, queue, admission, self._resume_deferred
            )
            queue.on_drain = self.admission.pump

    def _submit(self, sender: str, kind: str, body: Any) -> None:
        """Admit one message of *kind* from *sender* and queue it.

        Accept / park a JOIN until the queue drains / bounce a data op
        with ``RETRY_AFTER`` / forget a leaving session's shed floor.
        """
        # The op's waiting record, as _held builds it (inlined: queueing
        # makes no extra Python call per op).
        dtrace = self._dtrace
        ctx = dtrace.current() if dtrace.enabled else None
        held = (ctx, kind, sender, body, self.network.clock.now)
        admission = self.admission
        if admission is not None:
            payload = body.payload
            is_dict = isinstance(payload, dict)
            session_id = payload.get("session_id") if is_dict else None
            decision = admission.admit(
                kind, session_id=session_id,
                op_seq=payload.get("op_seq") if is_dict else None,
            )
            if decision.action == DEFER:
                admission.park(held)
                return
            if decision.action == SHED:
                after_s = decision.retry_after_s
                bounce = retry_after_body(kind, payload, after_s, self.node_id)
                self._emit("cluster.admission.shed", node=sender, kind=kind, after_s=after_s)
                self._bounce(sender, bounce)
                return
            if kind == MessageKind.LEAVE:
                admission.forget_session(session_id)
        self.queue.submit(held)

    def _held(self, sender: str, kind: str, body: Any) -> tuple[Any, ...]:
        """The record an op waits as: the trace context it arrived under
        and the instant, so the span :meth:`_work` records covers the wait."""
        dtrace = self._dtrace
        ctx = dtrace.current() if dtrace.enabled else None
        return (ctx, kind, sender, body, self.network.clock.now)

    def _enqueue(self, sender: str, kind: str, body: Any) -> None:
        self.queue.submit(self._held(sender, kind, body))

    def _work(self, record: tuple[Any, ...], hop: str | None = None, serve: Any = None) -> None:
        """Resume one held record: charge its wait to *hop* (default: the
        queue's) of its trace, then *serve* it (default: :meth:`_serve`)."""
        if not self.alive:
            return
        ctx, kind, sender, body, since = record
        if serve is None:
            serve = self._serve
        if ctx is None:
            serve(sender, kind, body)
            return
        advanced = self._dtrace.record_hop(
            ctx, hop or self.queue_hop, self.node_id, since,
            self.network.clock.now, kind=kind,
        )
        with self._dtrace.inbound(advanced):
            serve(sender, kind, body)

    def _resume_deferred(self, record: tuple[Any, ...]) -> None:
        """Pump callback: re-enter one deferred JOIN into the queue. No
        client traces a JOIN, so its wait here is charged to no hop."""
        if not self.alive:
            return
        _ctx, kind, sender, body, _since = record
        if not self.network.has_node(sender):
            # The parked client departed (crash, or a gateway re-home
            # swept it away) before capacity freed up: drop with zero
            # residue — nothing was applied, so there is nothing to
            # clean up.
            self.admission.drop_parked()
            self._emit("cluster.admission.deferred_dropped", node=sender, kind=kind)
            return
        self._enqueue(sender, kind, body)
