"""A :class:`SimulatedNetwork` that attacks its own traffic.

``ChaosNetwork`` overrides the single transmission hook
(:meth:`SimulatedNetwork._transmit`) — the choke point every first send,
duplicate and retransmission passes through — and consults its
:class:`~repro.chaos.plan.FaultPlan` there. Faults therefore compose
correctly with the reliable transport: a retransmission can itself be
dropped, a duplicated frame is deduplicated downstream, a corrupted
frame fails its checksum at delivery.

Every injected fault increments the ``chaos.injected`` counter family
(labelled by fault) and leaves a flight-recorder event, so a chaos run
explains itself in the same telemetry as a healthy one.
"""

from __future__ import annotations

from repro.chaos.plan import (
    CORRUPT,
    DELAY,
    DROP,
    DUPLICATE,
    FaultPlan,
    FLAP_DROP,
    LinkFlap,
    PARTITION_DROP,
    PartitionWindow,
    REORDER,
)
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.net.reliable import RetryPolicy
from repro.net.simclock import SimClock

#: Payload substituted into a corrupted frame. With the reliable layer
#: on, the stale checksum quarantines it; without, the receiver gets
#: garbage — which is the point of the experiment.
CORRUPTED_PAYLOAD = {"__chaos_corrupted__": True}


class ChaosNetwork(SimulatedNetwork):
    """The simulated star network, plus a deterministic adversary."""

    def __init__(
        self,
        clock: SimClock | None = None,
        reliability: RetryPolicy | bool | None = None,
        plan: FaultPlan | None = None,
    ) -> None:
        super().__init__(clock, reliability=reliability)
        self.plan = plan
        self._f_injected = self._obs.counter_family("chaos.injected", ("fault",))
        self._announced: set[PartitionWindow | LinkFlap] = set()

    # ----- fault injection -------------------------------------------------------

    def _transmit(self, message: Message) -> None:
        plan = self.plan
        if plan is None:
            super()._transmit(message)
            return
        cut = plan.severed(message.sender, message.recipient, self.clock.now)
        if cut is not None:
            self._announce_windows()
            self._inject(cut, message)
            return
        decision = plan.decide(message.kind)
        if decision is None:
            super()._transmit(message)
            return
        action, extra_delay = decision
        self._inject(action, message)
        if action == DROP:
            return
        if action == CORRUPT:
            super()._transmit(message._replace(payload=CORRUPTED_PAYLOAD))
            return
        if action == DUPLICATE:
            super()._transmit(message)
            super()._transmit(message)
            return
        # DELAY / REORDER: defer the transmission; frames sent in the
        # meantime overtake it on the link. The deferred copy goes out
        # clean (one fault per transmission keeps the rates honest).
        assert action in (DELAY, REORDER)
        self.clock.schedule(
            extra_delay, lambda: SimulatedNetwork._transmit(self, message)
        )

    def _inject(self, fault: str, message: Message) -> None:
        self._f_injected.labels(fault).inc()
        self._events.emit(
            "chaos.injected",
            severity="DEBUG",
            at=self.clock.now,
            fault=fault,
            sender=message.sender,
            recipient=message.recipient,
            kind=message.kind,
            seq=message.seq,
        )

    def _announce_windows(self) -> None:
        """Emit open/close flight-recorder events for active windows."""
        now = self.clock.now
        for window in self.plan.partitions:
            if window in self._announced or not (window.start <= now < window.end):
                continue
            self._announced.add(window)
            self._events.emit(
                "chaos.partition_open",
                severity="WARN",
                at=now,
                a=sorted(window.a),
                b=sorted(window.b),
                until=window.end,
            )
            self.clock.schedule_at(
                window.end,
                lambda w=window: self._events.emit(
                    "chaos.partition_close",
                    severity="INFO",
                    at=self.clock.now,
                    a=sorted(w.a),
                    b=sorted(w.b),
                ),
            )
        for flap in self.plan.flaps:
            if flap in self._announced or not (flap.start <= now < flap.end):
                continue
            self._announced.add(flap)
            self._events.emit(
                "chaos.link_flap_open",
                severity="WARN", at=now, node=flap.node, until=flap.end,
            )
            self.clock.schedule_at(
                flap.end,
                lambda f=flap: self._events.emit(
                    "chaos.link_flap_close", severity="INFO",
                    at=self.clock.now, node=f.node,
                ),
            )

    # ----- introspection ----------------------------------------------------------

    def injected_counts(self) -> dict[str, int]:
        """Faults injected so far, by kind of fault."""
        children = getattr(self._f_injected, "children", None) or {}
        return {labels[0]: counter.value for labels, counter in children.items()}


#: Fault label for a severed path, re-exported for test readability.
SEVERED_FAULTS = (PARTITION_DROP, FLAP_DROP)
