"""A :class:`SimulatedNetwork` that attacks its own traffic.

``ChaosNetwork`` overrides the single transmission hook
(:meth:`SimulatedNetwork._transmit`) — the choke point every first send,
duplicate and retransmission passes through — and consults its
:class:`~repro.chaos.plan.FaultPlan` there. Faults therefore compose
correctly with the reliable transport: a retransmission can itself be
dropped, a duplicated frame is deduplicated downstream, a corrupted
frame fails its checksum at delivery.

Every injected fault is counted by fault (``chaos.injected{fault}`` reads
the counts) and leaves a flight-recorder event, so a chaos run
explains itself in the same telemetry as a healthy one.
"""

from __future__ import annotations

from repro.chaos.plan import CORRUPT, DROP, DUPLICATE, FaultPlan, PartitionWindow, REORDER
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.util.tally import LabelCounts

#: Payload substituted into a corrupted frame. With the reliable layer
#: on, the stale checksum quarantines it; without, the receiver gets
#: garbage — which is the point of the experiment.
CORRUPTED_PAYLOAD = {"__chaos_corrupted__": True}


class ChaosNetwork(SimulatedNetwork):
    """The simulated star network, plus a deterministic adversary."""

    def __init__(self, reliability: bool = False, plan: FaultPlan | None = None) -> None:
        super().__init__(reliability=reliability)
        self.plan = plan
        self._injected = LabelCounts(self._obs.counter_family("chaos.injected", ("fault",)))
        self._announced: set[PartitionWindow] = set()

    def close(self) -> None:
        super().close()
        self._injected.release()

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
        # REORDER: defer the transmission; frames sent in the meantime
        # overtake it on the link. The deferred copy goes out clean (one
        # fault per transmission keeps the rates honest).
        assert action == REORDER
        self.clock.schedule(
            extra_delay, lambda: SimulatedNetwork._transmit(self, message)
        )

    def _inject(self, fault: str, message: Message) -> None:
        self._injected[fault] += 1
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
        """Emit open/close flight-recorder events for active partitions."""
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

    # ----- introspection ----------------------------------------------------------

    def injected_counts(self) -> dict[str, int]:
        """Faults injected so far, by kind of fault."""
        return dict(self._injected)
