"""Primary→replica room-state replication via op-log shipping.

The primary shard does not ship room *state* — it ships the room *ops*
(join/leave/choice/operation/annotation/freeze/release) that produced
the state, stamped with sequence numbers and the primary's clock. The
replica logs each op in sequence and acks the logged prefix (``ACK``);
the primary advances its ack watermark and exports the ship/ack gap as
replication lag. The log is the standby: its shadow
``InteractionServer`` (forced primary-minted ids, no outbox, a
read-only view of the store) replays the backlog only when it must —
at promotion, when read, or at a join that opens a room — so replayed
state is byte-identical to the primary's: presentation outcomes are
deterministic functions of the op sequence. At promotion the holding
shard's own server adopts the shadow's rooms and sessions.
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


class _ReadOnlyStore:
    """The store as a standby sees it: reads pass through; writes are
    dropped, since its primary made each one (§1's persist on close)."""

    def __init__(self, store: MultimediaObjectStore) -> None:
        self.fetch_document = store.fetch_document

    def _drop(self, *write: Any) -> None:
        pass

    store_document = store_annotation = _drop


class ReplicaState:
    """Replica-side mirror of one primary shard: its op log, replayed
    into a shadow server only when it must be.

    Entries are logged in sequence on arrival, not applied. The shadow
    catches up on the backlog, in log order, at :meth:`promote`, at a
    read of :attr:`server`, and at a join entry whose room it does not
    have open, where it also opens that room: on the primary that join
    minted a new room id and read the document from the store, so the
    standby reads it there too (a reopen mints a new id, so a deferred
    close never hides one). Replay does the room-state work — sweeps,
    diffs, interest filtering, known-spec merges — and, with no outbox,
    none of the shipping, and it writes no store: the server that adopts
    it at promotion does. ``clock`` is the owning shard's, lent for
    event and spec stamps. The shadow is named ``replica:<primary>@<holder>``:
    each standby of one primary reads in its own ``server.*{node}`` series.
    """

    def __init__(
        self,
        primary_id: str,
        holder_id: str,
        store: MultimediaObjectStore,
        clock: SimClock | None = None,
        on_gap: Callable[[int, int], None] | None = None,
        interest_mode: str = "off",
    ) -> None:
        self.applied_seq = 0
        #: every entry logged, in order — at promotion this becomes the
        #: new primary's room history (so *it* can bootstrap replicas).
        self.applied_log: list[LogEntry] = []
        self._replayed = 0  # applied_log[:_replayed] is in the shadow
        self._pending: dict[int, LogEntry] = {}  # out-of-order buffer
        self._on_gap = on_gap
        self._shadow = InteractionServer(
            _ReadOnlyStore(store),  # type: ignore[arg-type]
            node_id=f"replica:{primary_id}@{holder_id}",
            interest_mode=interest_mode,
        )
        self._shadow.clock = clock

    @property
    def server(self) -> InteractionServer:
        """The shadow server, caught up on the whole log."""
        self._catch_up()
        return self._shadow

    def offer(self, entry: LogEntry) -> int:
        """Accept one shipped entry; returns how many entries were logged.

        Entries log strictly in sequence order: a duplicate is ignored,
        a gap is buffered until the missing entries arrive (links are
        FIFO, so in practice the buffer only fills while a batch is being
        torn apart).
        """
        if entry.op not in _KIND_OF_OP:
            raise ClusterError(f"unknown replicated op {entry.op!r}")
        if entry.seq <= self.applied_seq:
            return 0
        self._pending[entry.seq] = entry
        logged = 0
        while self.applied_seq + 1 in self._pending:
            nxt = self._pending.pop(self.applied_seq + 1)
            self.applied_seq = nxt.seq
            self.applied_log.append(nxt)
            logged += 1
            if nxt.op == "join" and nxt.data["room_id"] not in self._shadow.room_ids:
                # The primary read the store here: so does the standby.
                self._catch_up(len(self.applied_log) - 1)
                self._shadow.open_room(nxt.room_key, room_id=nxt.data["room_id"])
        return logged

    def _catch_up(self, upto: int | None = None) -> None:
        backlog = self.applied_log[self._replayed:upto]
        self._replayed += len(backlog)
        for entry in backlog:
            self._apply(entry)

    def _apply(self, entry: LogEntry) -> None:
        data = entry.data
        server = self._shadow
        kind = _KIND_OF_OP[entry.op]
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

    def close(self) -> None:
        """Its holder is done: drop the gap hook (the holder's own method)
        and close the shadow server."""
        self._on_gap = None
        self._shadow.close()

    def promote(self) -> InteractionServer:
        """Catch up and return the shadow server, for the new primary to adopt.

        Everything acked is logged (acks are sent *after* logging);
        buffered entries past a gap can never apply safely and are
        dropped — they were never acked, so no client-visible state is
        lost. Replay pays, in wall time only, for the backlog since the
        last room open.
        """
        if self._pending:
            dropped = sorted(self._pending)
            if self._on_gap is not None:
                self._on_gap(self.applied_seq, len(dropped))
            self._pending.clear()
        self._catch_up()
        return self._shadow
