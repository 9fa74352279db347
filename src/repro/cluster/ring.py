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

try:
    # CPython's own SHA-1, the one hashlib falls back to: same digests,
    # without loading OpenSSL's libcrypto for one hash function.
    from _sha1 import sha1
except ImportError:  # pragma: no cover - an interpreter without it
    from hashlib import sha1

from repro.errors import ClusterError

#: Virtual points per ring member.
VNODES = 64

#: Bound on the memo behind :meth:`HashRing.owner` and :meth:`HashRing.owners`;
#: at the bound it starts over.
OWNER_MEMO_KEYS = 1 << 16


def ring_hash(value: str) -> int:
    """Deterministic 64-bit position of *value* on the ring."""
    digest = sha1(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Maps room keys to owning nodes with bounded movement on change."""

    def __init__(self) -> None:
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []  # sorted (position, node)
        # (key, count) -> preference list under the current membership:
        # an assignment moves only when a node joins or leaves, and both
        # clear this.
        self._owners_memo: dict[tuple[str, int], tuple[str, ...]] = {}

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
        self._owners_memo.clear()
        for index in range(VNODES):
            point = (ring_hash(f"{node_id}#{index}"), node_id)
            bisect.insort(self._points, point)

    def remove_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise ClusterError(f"node {node_id!r} is not on the ring")
        self._nodes.discard(node_id)
        self._owners_memo.clear()
        self._points = [p for p in self._points if p[1] != node_id]

    # ----- lookup ----------------------------------------------------------------

    def owner(self, key: str) -> str:
        """The node owning *key* (primary shard of that room)."""
        found = self._owners_memo.get((key, 1))
        if found is None:
            found = self.owners(key, 1)
        return found[0]

    def owners(self, key: str, count: int = 1) -> tuple[str, ...]:
        """Preference list: the first *count* distinct nodes clockwise of *key*.

        Entry 0 is the primary, entry 1 the replica, and so on; fewer
        entries are returned when the ring has fewer nodes.
        """
        found = self._owners_memo.get((key, count))
        if found is not None:
            return found
        if not self._points:
            raise ClusterError("ring has no nodes")
        if count < 1:
            raise ClusterError(f"count must be >= 1, got {count}")
        start = bisect.bisect_right(self._points, ring_hash(key), key=lambda p: p[0])
        nodes: list[str] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in nodes:
                nodes.append(node)
                if len(nodes) >= count:
                    break
        if len(self._owners_memo) >= OWNER_MEMO_KEYS:
            self._owners_memo.clear()
        found = self._owners_memo[(key, count)] = tuple(nodes)
        return found

    def assignment(self, keys: list[str]) -> dict[str, str]:
        """Owner of every key — handy for stability tests and balance checks."""
        return {key: self.owner(key) for key in keys}
