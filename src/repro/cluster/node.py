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
from repro.obs.dtrace import HOP_SHED_WAIT, TraceContext, get_dtrace
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
        frame = encode_message(kind, body)
        self.network.send(self.node_id, recipient, kind, payload=body, frame=frame)


class ServiceNode(ClusterNode):
    """A node that serves traffic until it dies.

    Subclasses name themselves (``role``: the crash event and its
    label), their queue wait (``queue_hop``) and their admission events
    (``admission_events`` prefix), and supply :meth:`_serve` and
    :meth:`_bounce`.
    """

    role: str
    queue_hop: str
    admission_events: str

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

    def _serve(self, item: Any) -> None:
        """Do one queued item's work."""
        raise NotImplementedError

    def _bounce(self, sender: str, body: dict[str, Any]) -> None:
        """Return a shed op's ``RETRY_AFTER`` *body* to its sender."""
        raise NotImplementedError

    def _submit(
        self, sender: str, kind: str, payload: Any, item: Any, gated: bool = True
    ) -> None:
        """Admit *item* — one message of *kind* from *sender* — and queue it.

        Accept / park a JOIN until the queue drains / bounce a data op
        with ``RETRY_AFTER`` / forget a leaving session's shed floor.
        *gated* is false for traffic that is not a client's request.
        """
        dtrace = self._dtrace
        ctx = dtrace.current() if dtrace.enabled else None
        admission = self.admission
        if admission is not None and gated:
            is_dict = isinstance(payload, dict)
            session_id = payload.get("session_id") if is_dict else None
            decision = admission.admit(
                kind, session_id=session_id,
                op_seq=payload.get("op_seq") if is_dict else None,
            )
            if decision.action == DEFER:
                admission.park((sender, kind, item, ctx))
                return
            if decision.action == SHED:
                after_s = decision.retry_after_s
                body = retry_after_body(kind, payload, after_s, self.node_id)
                self._emit(
                    f"{self.admission_events}.shed", node=sender, kind=kind, after_s=after_s
                )
                self._bounce(sender, body)
                return
            if kind == MessageKind.LEAVE:
                admission.forget_session(session_id)
        self._enqueue(ctx, kind, item)

    def _enqueue(self, ctx: TraceContext | None, kind: str, item: Any) -> None:
        # The queue may dispatch much later than arrival; capture the
        # context now so the queueing span covers the whole wait.
        enqueued = self.network.clock.now

        def work() -> None:
            if not self.alive:
                return
            if ctx is None:
                self._serve(item)
                return
            advanced = self._dtrace.record_hop(
                ctx, self.queue_hop, self.node_id, enqueued,
                self.network.clock.now, kind=kind,
            )
            with self._dtrace.inbound(advanced):
                self._serve(item)

        self.queue.submit(work)

    def _resume_deferred(self, parked: tuple[Any, ...], parked_at: float) -> None:
        """Pump callback: re-enter one deferred JOIN into the queue."""
        sender, kind, item, ctx = parked
        if not self.alive:
            return
        if not self.network.has_node(sender):
            # The parked client departed (crash, or a gateway re-home
            # swept it away) before capacity freed up: drop with zero
            # residue — nothing was applied, so there is nothing to
            # clean up.
            self.admission.drop_parked()
            self._emit(f"{self.admission_events}.deferred_dropped", node=sender, kind=kind)
            return
        if ctx is not None:
            # The backoff is queueing on the op's critical path, not wire.
            ctx = self._dtrace.record_hop(
                ctx, HOP_SHED_WAIT, self.node_id, parked_at,
                self.network.clock.now, kind=kind,
            )
        self._enqueue(ctx, kind, item)
