"""Unit tests for the consistent-hash ring."""

import pytest

from repro.cluster import HashRing, ring_hash
from repro.errors import ClusterError

KEYS = [f"case-{i}" for i in range(400)]
NODES = ("shard-1", "shard-2", "shard-3", "shard-4")


class TestDeterminism:
    def test_ring_hash_is_stable(self):
        # SHA-1-based, not Python's salted hash(): positions must be the
        # same in every process or two gateways would disagree on owners.
        assert ring_hash("case-0") == ring_hash("case-0")
        assert ring_hash("case-0") != ring_hash("case-1")

    def test_identical_mapping_across_instances(self):
        first = HashRing(NODES)
        second = HashRing(NODES)
        assert first.assignment(KEYS) == second.assignment(KEYS)

    def test_insertion_order_is_irrelevant(self):
        forward = HashRing(NODES)
        backward = HashRing(tuple(reversed(NODES)))
        assert forward.assignment(KEYS) == backward.assignment(KEYS)


class TestBoundedMovement:
    def test_add_node_moves_roughly_its_share(self):
        ring = HashRing(NODES[:3])
        before = ring.assignment(KEYS)
        ring.add_node("shard-4")
        after = ring.assignment(KEYS)
        moved = sum(1 for key in KEYS if before[key] != after[key])
        # The new node should take about 1/4 of the keys; far less than a
        # rehash-everything scheme (which would move ~3/4 of them).
        assert 0 < moved < len(KEYS) / 2
        # Every moved key moved *to* the new node, nowhere else.
        assert all(after[key] == "shard-4" for key in KEYS if before[key] != after[key])
        # owner() is memoised; every key asked before the change must
        # still agree with the unmemoised preference list after it.
        assert all(ring.owner(key) == ring.owners(key, 1)[0] for key in KEYS)

    def test_remove_node_moves_only_its_keys(self):
        ring = HashRing(NODES)
        before = ring.assignment(KEYS)
        ring.remove_node("shard-2")
        after = ring.assignment(KEYS)
        for key in KEYS:
            if before[key] == "shard-2":
                assert after[key] != "shard-2"
            else:
                assert after[key] == before[key]  # untouched keys stay put
        assert all(ring.owner(key) == ring.owners(key, 1)[0] for key in KEYS)

    def test_owner_memo_never_outlives_membership(self):
        ring = HashRing(("a",))
        assert ring.owner("case-0") == "a"
        ring.remove_node("a")
        with pytest.raises(ClusterError, match="no nodes"):
            ring.owner("case-0")
        ring.add_node("b")
        assert ring.owner("case-0") == "b"

    def test_owner_memo_is_bounded(self, monkeypatch):
        from repro.cluster import ring as ring_module

        monkeypatch.setattr(ring_module, "OWNER_MEMO_KEYS", 16)
        ring = HashRing(NODES)
        for _ in range(2):  # second pass: hits, and refills after the bound
            for key in KEYS:
                assert ring.owner(key) == ring.owners(key, 1)[0]
                assert len(ring._owner_memo) <= 16

    def test_removal_promotes_the_old_second_owner(self):
        # The invariant failover relies on: the ring's new owner of a dead
        # node's key is exactly the old preference-list runner-up.
        ring = HashRing(NODES)
        expected = {
            key: ring.owners(key, 2)[1]
            for key in KEYS
            if ring.owner(key) == "shard-3"
        }
        ring.remove_node("shard-3")
        for key, runner_up in expected.items():
            assert ring.owner(key) == runner_up


class TestPreferenceList:
    def test_owners_are_distinct(self):
        ring = HashRing(NODES)
        for key in KEYS[:50]:
            owners = ring.owners(key, 3)
            assert len(owners) == len(set(owners)) == 3

    def test_owners_clipped_to_ring_size(self):
        ring = HashRing(NODES[:2])
        assert len(ring.owners("case-0", 5)) == 2

    def test_every_node_owns_something(self):
        ring = HashRing(NODES)
        assert set(ring.assignment(KEYS).values()) == set(NODES)


class TestErrors:
    def test_duplicate_node_rejected(self):
        ring = HashRing(("a",))
        with pytest.raises(ClusterError, match="already on the ring"):
            ring.add_node("a")

    def test_unknown_node_rejected(self):
        ring = HashRing(("a",))
        with pytest.raises(ClusterError, match="not on the ring"):
            ring.remove_node("b")

    def test_empty_ring_has_no_owner(self):
        with pytest.raises(ClusterError, match="no nodes"):
            HashRing().owner("case-0")

    def test_bad_vnodes(self):
        with pytest.raises(ClusterError, match="vnodes"):
            HashRing(vnodes=0)

    def test_bad_count(self):
        with pytest.raises(ClusterError, match="count"):
            HashRing(("a",)).owners("k", 0)

    def test_membership_introspection(self):
        ring = HashRing(("a", "b"))
        assert "a" in ring and "c" not in ring
        assert len(ring) == 2
        assert ring.nodes == ("a", "b")
