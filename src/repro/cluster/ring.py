"""Consistent-hash ring: rooms sharded across server nodes.

Each node owns many virtual points on a 64-bit ring (SHA-1 of
``"<node>#<index>"`` — deterministic across processes and runs, unlike
Python's salted ``hash``). A room key is owned by the first node
clockwise from the key's point, so adding or removing one node only
moves the keys that fall between the changed node's points and their
predecessors — roughly ``1/n`` of the keyspace, never the whole mapping.
The ``owners`` preference list (first *k* distinct nodes clockwise)
doubles as the primary/replica assignment: on node removal the old
second owner becomes the new first owner, which is exactly the node the
failover path promotes.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.errors import ClusterError

DEFAULT_VNODES = 64

#: Bound on :meth:`HashRing.owner`'s memo; at the bound it starts over.
OWNER_MEMO_KEYS = 1 << 16


def ring_hash(value: str) -> int:
    """Deterministic 64-bit position of *value* on the ring."""
    digest = hashlib.sha1(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Maps room keys to owning nodes with bounded movement on change."""

    def __init__(self, nodes: tuple[str, ...] = (), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ClusterError(f"vnodes must be >= 1, got {vnodes}")
        self._vnodes = vnodes
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []  # sorted (position, node)
        # key -> owner under the current membership: an assignment moves
        # only when a node joins or leaves, and both clear this.
        self._owner_memo: dict[str, str] = {}
        for node in nodes:
            self.add_node(node)

    # ----- membership -----------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def add_node(self, node_id: str) -> None:
        if node_id in self._nodes:
            raise ClusterError(f"node {node_id!r} is already on the ring")
        self._nodes.add(node_id)
        self._owner_memo.clear()
        for index in range(self._vnodes):
            point = (ring_hash(f"{node_id}#{index}"), node_id)
            bisect.insort(self._points, point)

    def remove_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise ClusterError(f"node {node_id!r} is not on the ring")
        self._nodes.discard(node_id)
        self._owner_memo.clear()
        self._points = [p for p in self._points if p[1] != node_id]

    # ----- lookup ----------------------------------------------------------------

    def owner(self, key: str) -> str:
        """The node owning *key* (primary shard of that room)."""
        owner = self._owner_memo.get(key)
        if owner is None:
            owner = self.owners(key, 1)[0]
            if len(self._owner_memo) >= OWNER_MEMO_KEYS:
                self._owner_memo.clear()
            self._owner_memo[key] = owner
        return owner

    def owners(self, key: str, count: int = 1) -> list[str]:
        """Preference list: the first *count* distinct nodes clockwise of *key*.

        Entry 0 is the primary, entry 1 the replica, and so on; fewer
        entries are returned when the ring has fewer nodes.
        """
        if not self._points:
            raise ClusterError("ring has no nodes")
        if count < 1:
            raise ClusterError(f"count must be >= 1, got {count}")
        start = bisect.bisect_right(self._points, ring_hash(key), key=lambda p: p[0])
        found: list[str] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in found:
                found.append(node)
                if len(found) >= count:
                    break
        return found

    def assignment(self, keys: list[str]) -> dict[str, str]:
        """Owner of every key — handy for stability tests and balance checks."""
        return {key: self.owner(key) for key in keys}
