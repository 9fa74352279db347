"""Primary→replica room-state replication via op-log shipping.

The primary shard does not ship room *state* — it ships the room *ops*
(join/leave/choice/operation/annotation/freeze/release) that produced
the state, stamped with sequence numbers and the primary's clock. The
replica replays each op against its own shadow ``InteractionServer``
(same document store, forced primary-minted ids, no network: it decides
every member's update and ships none), so replayed state is
byte-identical to the primary's: presentation outcomes are
deterministic functions of the op sequence.
Acked sequence numbers flow back (``ACK``); the primary advances its
ack watermark and exports the ship/ack gap as replication lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ClusterError
from repro.db.orm import MultimediaObjectStore
from repro.net.simclock import SimClock
from repro.server.interaction import InteractionServer
from repro.server.protocol import PROTOCOL, MessageKind

#: client message kind -> replicated op name (absent = read-only, not logged)
REPLICATED_OPS = {kind: row.op for kind, row in PROTOCOL.items() if row.op is not None}
_KIND_OF_OP = {op: kind for kind, op in REPLICATED_OPS.items()}


@dataclass(frozen=True)
class LogEntry:
    """One replicated room op."""

    seq: int
    at: float        # primary's clock when the op was applied
    room_key: str    # the sharding key (document id)
    op: str          # a REPLICATED_OPS name
    data: dict[str, Any]

    def to_wire(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "at": self.at,
            "room_key": self.room_key,
            "op": self.op,
            "data": dict(self.data),
        }

    @classmethod
    def from_wire(cls, body: dict[str, Any]) -> LogEntry:
        return cls(
            seq=body["seq"],
            at=body["at"],
            room_key=body["room_key"],
            op=body["op"],
            data=dict(body["data"]),
        )


class ShipLog:
    """Primary-side sequencing to one replica: counters, not entries.

    Nothing re-ships from here — the transport retransmits a lost frame,
    and a replica that missed a room bootstraps from the shard's room
    history — so an entry is forgotten as soon as it is minted.
    """

    def __init__(self) -> None:
        self._next_seq = 1
        self.shipped_seq = 0
        self.acked_seq = 0

    def append(self, at: float, room_key: str, op: str, data: dict[str, Any]) -> LogEntry:
        entry = LogEntry(seq=self._next_seq, at=at, room_key=room_key, op=op, data=data)
        self._next_seq += 1
        return entry

    def mark_shipped(self, seq: int) -> None:
        self.shipped_seq = max(self.shipped_seq, seq)

    def mark_acked(self, seq: int) -> None:
        """Advance the ack watermark (a stale ack never moves it back)."""
        self.acked_seq = max(self.acked_seq, seq)

    @property
    def lag(self) -> int:
        """Ops shipped but not yet acknowledged by the replica."""
        return self.shipped_seq - self.acked_seq


class ReplicaState:
    """Replica-side mirror of one primary shard, built by op replay.

    The shadow server has no outbox while it is a standby, so replay
    does all of the room-state work — sweeps, diffs, interest filtering,
    known-spec merges — and none of the shipping; after :meth:`promote`
    the owning shard gives it an outbox and the same server starts
    answering real clients (no state copy, no catch-up at failover).
    ``clock`` is the owning shard's, lent for event and spec stamps.
    """

    def __init__(
        self,
        primary_id: str,
        store: MultimediaObjectStore,
        clock: SimClock | None = None,
        on_gap: Callable[[int, int], None] | None = None,
        interest_mode: str = "off",
    ) -> None:
        self.applied_seq = 0
        self.promoted = False
        #: every entry applied, in order — at promotion this becomes the
        #: new primary's room history (so *it* can bootstrap replicas).
        self.applied_log: list[LogEntry] = []
        self._pending: dict[int, LogEntry] = {}  # out-of-order buffer
        self._on_gap = on_gap
        self.server = InteractionServer(
            store,
            node_id=f"replica:{primary_id}",
            interest_mode=interest_mode,
        )
        self.server.clock = clock

    # ----- replay ---------------------------------------------------------------

    def offer(self, entry: LogEntry) -> int:
        """Accept one shipped entry; returns how many entries were applied.

        Entries apply strictly in sequence order: a duplicate is ignored,
        a gap is buffered until the missing entries arrive (links are
        FIFO, so in practice the buffer only fills while a batch is being
        torn apart).
        """
        if entry.seq <= self.applied_seq:
            return 0
        self._pending[entry.seq] = entry
        applied = 0
        while self.applied_seq + 1 in self._pending:
            nxt = self._pending.pop(self.applied_seq + 1)
            self._apply(nxt)
            self.applied_seq = nxt.seq
            self.applied_log.append(nxt)
            applied += 1
        return applied

    def _apply(self, entry: LogEntry) -> None:
        data = entry.data
        server = self.server
        kind = _KIND_OF_OP.get(entry.op)
        if kind is None:
            raise ClusterError(f"unknown replicated op {entry.op!r}")
        if kind != MessageKind.JOIN:
            # ``data`` is the client's own payload: replay is the very
            # dispatch the primary ran.
            server.apply_session_op(kind, data)
            return
        server.open_room(entry.room_key, room_id=data["room_id"])
        server.connect_session(
            data["viewer_id"],
            node_id=data["node_id"],
            session_id=data["session_id"],
        )
        server.join_room(data["session_id"], entry.room_key)

    # ----- failover --------------------------------------------------------------

    def promote(self) -> InteractionServer:
        """Finish replay and hand over the shadow server as the new primary.

        Everything acked is guaranteed applied (acks are sent *after*
        apply); buffered entries past a gap can never apply safely and
        are dropped — they were never acked, so no client-visible state
        is lost.
        """
        if self._pending:
            dropped = sorted(self._pending)
            if self._on_gap is not None:
                self._on_gap(self.applied_seq, len(dropped))
            self._pending.clear()
        self.promoted = True
        return self.server
