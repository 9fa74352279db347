"""Admission control for the cluster's serial service queues.

Every shard serves its ops through one serial :class:`ServiceQueue`, and
every gateway routes through another; both queue without bound, so a
flash crowd turns into unbounded latency rather than visible overload.
The :class:`AdmissionController` sits in front of a queue and turns
overload into bounded deferral instead:

* **Priority lanes.** Control-plane traffic (heartbeats, PROMOTE, ACK,
  route control, LEAVE) is always admitted — shedding a heartbeat would
  fake a death and trigger a spurious failover, and shedding a LEAVE
  would leak the session. JOINs are *deferred* (parked FIFO, resumed as
  the queue drains) before data ops are *shed* (bounced to the sender
  with a typed ``RETRY_AFTER`` and a deterministic backoff hint).
* **Bounded depth + latency watermark.** Admission looks at the queue's
  pending depth and, optionally, its simulated-clock wait (how far
  ``busy_until`` is past *now*); either tripping defers/sheds.
* **The shed floor.** Parked-kind client ops carry an ``op_seq`` and the
  shard dedups on a highest-seq watermark, so shedding op *n* while
  admitting *n+1* would make the client's retry of *n* look like a
  duplicate and silently drop it. Once an op of a session is shed, every
  later op of that session is shed too until the shed seq returns —
  the fence stays gap-free.

``admission=None`` (the default everywhere) leaves every code path
untouched: the PR 8 cluster byte-for-byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro import obs
from repro.server.protocol import LANE_CONTROL, LANE_DATA, LANE_JOIN, PROTOCOL, MessageKind


def lane_of(kind: str) -> str:
    """The admission lane for one message kind.

    A client kind rides the lane its protocol-table row names: JOIN its
    own; everything carrying an op_seq, plus reads, the data lane that
    may be shed under overload; LEAVE (dropping one leaks the session
    server-side) and monitor traffic the control lane. Anything that is
    not a client kind — heartbeats, PROMOTE, ACK, ROUTE envelopes — is
    control plane too and can never be deferred or shed.
    """
    row = PROTOCOL.get(kind)
    return row.lane if row is not None else LANE_CONTROL


@dataclass(frozen=True)
class AdmissionConfig:
    """Thresholds for one admission controller.

    Depths count ops pending in the guarded queue. ``depth_defer`` is
    where JOINs start parking; ``depth_shed`` is where data ops start
    bouncing. The optional wait watermarks trip on the queue's simulated
    service backlog (seconds until ``busy_until``) and are OR'd with the
    depth thresholds. ``defer_limit`` bounds the parking lot itself —
    beyond it JOINs are bounced like data ops, so no queue in the system
    grows without bound. ``retry_after_s`` floors the backoff hint
    carried by ``RETRY_AFTER``.
    """

    depth_defer: int = 16
    depth_shed: int = 64
    wait_defer_s: float | None = None
    wait_shed_s: float | None = None
    defer_limit: int = 256
    retry_after_s: float = 0.25

    def __post_init__(self) -> None:
        if self.depth_defer <= 0:
            raise ValueError(f"depth_defer must be > 0, got {self.depth_defer}")
        if self.depth_shed < self.depth_defer:
            raise ValueError(
                f"depth_shed ({self.depth_shed}) must be >= depth_defer "
                f"({self.depth_defer}): joins defer before data sheds"
            )
        if self.defer_limit <= 0:
            raise ValueError(f"defer_limit must be > 0, got {self.defer_limit}")
        if self.retry_after_s <= 0:
            raise ValueError(f"retry_after_s must be > 0, got {self.retry_after_s}")
        for name, value in (
            ("wait_defer_s", self.wait_defer_s),
            ("wait_shed_s", self.wait_shed_s),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")


#: admission verdicts
ACCEPT = "accept"
DEFER = "defer"
SHED = "shed"


def retry_after_body(
    kind: str, payload: Any, after_s: float, node_id: str
) -> dict[str, Any]:
    """The ``RETRY_AFTER`` body bounced back for one shed op.

    Echoes enough identity for the client to retry correctly: a JOIN
    retries by ``doc_id``, a parked op by its ``op_seq`` against the
    client's own op log, and an op_seq-less read gets its whole payload
    back for verbatim re-dispatch.
    """
    body: dict[str, Any] = {
        "kind": kind,
        "after_s": after_s,
        "reason": "shed",
        "node": node_id,
    }
    if isinstance(payload, dict):
        for key in ("doc_id", "viewer_id", "session_id", "op_seq"):
            if key in payload:
                body[key] = payload[key]
        if kind != MessageKind.JOIN and "op_seq" not in payload:
            body["data"] = payload
    return body


class Decision(NamedTuple):
    """One admission verdict plus the backoff hint a bounce carries."""

    action: str
    retry_after_s: float = 0.0


_ACCEPTED = Decision(ACCEPT)


class AdmissionController:
    """Gatekeeper in front of one serial queue (shard or gateway).

    The owner calls :meth:`admit` before submitting work; on ``defer`` it
    parks the pending item via :meth:`park` and wires :meth:`pump` as the
    queue's drain hook so parked items resume FIFO as capacity frees up.
    ``resume(item, parked_at)`` is the owner's callback that re-enters a
    parked item into the normal dispatch path.
    """

    def __init__(
        self,
        node_id: str,
        queue: Any,
        config: AdmissionConfig,
        resume: Callable[[Any, float], None],
    ) -> None:
        self.node_id = node_id
        self.queue = queue
        self.config = config
        self._resume = resume
        self._clock = queue.clock
        self._parked: deque[tuple[Any, float]] = deque()
        #: session -> lowest shed op_seq; later seqs shed until it returns
        self._shed_floor: dict[str, int] = {}
        self._pumping = False
        registry = obs.get_registry()
        self._f_accepted = registry.counter_family("admission.accepted", ("node", "lane"))
        self._f_deferred = registry.counter_family("admission.deferred", ("node", "lane"))
        self._f_shed = registry.counter_family("admission.shed", ("node", "lane"))
        self._g_depth = registry.gauge_family("admission.queue_depth", ("node",)).labels(
            node_id
        )
        self._g_parked = registry.gauge_family(
            "admission.deferred_depth", ("node",)
        ).labels(node_id)
        # Plain-attribute mirrors so tests and benchmark reports can read
        # per-controller tallies without going through the registry.
        self.accepted = 0
        self.deferred = 0
        self.shed = 0
        self.shed_by_lane: dict[str, int] = {}
        self.resumed = 0
        self.dropped_dead = 0
        self.max_depth_seen = 0
        self.max_wait_seen = 0.0

    # ----- admission --------------------------------------------------------------

    def admit(
        self,
        kind: str,
        *,
        session_id: str | None = None,
        op_seq: int | None = None,
    ) -> Decision:
        """Decide one inbound message's fate. Control always passes."""
        lane = lane_of(kind)
        depth = self.queue.pending
        wait = self.queue.wait_s
        if depth > self.max_depth_seen:
            self.max_depth_seen = depth
        if wait > self.max_wait_seen:
            self.max_wait_seen = wait
        self._g_depth.set(depth)
        if lane == LANE_CONTROL:
            return self._accept(lane)
        if lane == LANE_DATA and session_id is not None and op_seq is not None:
            floor = self._shed_floor.get(session_id)
            if floor is not None and op_seq > floor:
                # An earlier op of this session was shed; admitting this
                # one would advance the dedup fence past the hole and the
                # retried op would be dropped as a duplicate. Shed until
                # the floor seq comes back.
                return self._shed(lane)
        if lane == LANE_JOIN:
            if not self._over(depth, wait, self.config.depth_defer, self.config.wait_defer_s):
                return self._accept(lane)
            if len(self._parked) >= self.config.defer_limit:
                return self._shed(lane)
            self.deferred += 1
            self._f_deferred.labels(self.node_id, lane).inc()
            return Decision(DEFER, self._hint(depth, self.config.depth_defer))
        # data lane
        if not self._over(depth, wait, self.config.depth_shed, self.config.wait_shed_s):
            decision = self._accept(lane)
            if session_id is not None and op_seq is not None:
                floor = self._shed_floor.get(session_id)
                if floor is not None and op_seq >= floor:
                    del self._shed_floor[session_id]  # the hole is plugged
            return decision
        if session_id is not None and op_seq is not None:
            floor = self._shed_floor.get(session_id)
            if floor is None or op_seq < floor:
                self._shed_floor[session_id] = op_seq
        return self._shed(lane)

    def _over(
        self, depth: int, wait: float, depth_limit: int, wait_limit: float | None
    ) -> bool:
        if depth >= depth_limit:
            return True
        return wait_limit is not None and wait >= wait_limit

    def _accept(self, lane: str) -> Decision:
        self.accepted += 1
        self._f_accepted.labels(self.node_id, lane).inc()
        return _ACCEPTED

    def _shed(self, lane: str) -> Decision:
        self.shed += 1
        self.shed_by_lane[lane] = self.shed_by_lane.get(lane, 0) + 1
        self._f_shed.labels(self.node_id, lane).inc()
        return Decision(SHED, self._hint(self.queue.pending, self.config.depth_defer))

    def _hint(self, depth: int, threshold: int) -> float:
        """Deterministic backoff hint: time to drain back under threshold."""
        rate = self.queue.rate
        excess = max(0, depth - threshold) + 1
        drain_s = excess / rate if rate else 0.0
        return max(self.config.retry_after_s, drain_s)

    # ----- the parking lot --------------------------------------------------------

    def park(self, item: Any) -> None:
        """FIFO-park one deferred item until :meth:`pump` resumes it."""
        self._parked.append((item, self._clock.now))
        self._g_parked.set(len(self._parked))

    def pump(self) -> None:
        """Drain hook: resume parked items while the queue has headroom.

        Resuming re-enters the owner's dispatch path, which submits to
        the queue (raising ``pending``) and, at infinite service rate,
        can drain synchronously and re-enter this hook — the reentrancy
        guard keeps the resume order strictly FIFO.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._parked and self.queue.pending < self.config.depth_defer:
                item, parked_at = self._parked.popleft()
                self._g_parked.set(len(self._parked))
                self.resumed += 1
                self._resume(item, parked_at)
        finally:
            self._pumping = False

    def drop_parked(self) -> None:
        """Account one resumed item whose sender is gone (zero residue)."""
        self.resumed -= 1
        self.dropped_dead += 1

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    # ----- session lifecycle ------------------------------------------------------

    def forget_session(self, session_id: str | None) -> None:
        """Clear the shed floor when a session ends (LEAVE or cleanup)."""
        if session_id is not None:
            self._shed_floor.pop(session_id, None)

    def shed_floor(self, session_id: str) -> int | None:
        return self._shed_floor.get(session_id)

    # ----- introspection ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "node": self.node_id,
            "accepted": self.accepted,
            "deferred": self.deferred,
            "shed": self.shed,
            "shed_by_lane": dict(self.shed_by_lane),
            "resumed": self.resumed,
            "dropped_dead": self.dropped_dead,
            "parked": len(self._parked),
            "max_depth_seen": self.max_depth_seen,
            "max_wait_seen": self.max_wait_seen,
            "shed_floors": len(self._shed_floor),
        }
