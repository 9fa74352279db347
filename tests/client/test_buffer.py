"""Unit tests for the client buffer (cache)."""

import random

import pytest

from repro.client import ClientBuffer
from repro.client.buffer import entry_key
from repro.errors import BufferFullError


class TestAdmission:
    def test_admit_and_lookup(self):
        buf = ClientBuffer(1000)
        assert buf.admit("a", 400)
        assert buf.lookup("a") is not None
        assert buf.used_bytes == 400

    def test_lookup_miss_counts(self):
        buf = ClientBuffer(1000)
        assert buf.lookup("ghost") is None
        assert buf.misses == 1
        assert buf.hit_rate == 0.0

    def test_hit_rate(self):
        buf = ClientBuffer(1000)
        buf.admit("a", 10)
        buf.lookup("a")
        buf.lookup("b")
        assert buf.hit_rate == 0.5

    def test_refresh_existing(self):
        buf = ClientBuffer(1000)
        buf.admit("a", 400, priority=1.0)
        assert buf.admit("a", 400, priority=2.0)
        assert buf.used_bytes == 400  # not double-counted
        entry = buf.lookup("a")
        assert entry.priority == 2.0

    def test_oversized_rejected_not_raised(self):
        buf = ClientBuffer(100)
        assert buf.admit("big", 500) is False
        assert buf.used_bytes == 0

    def test_oversized_pinned_raises(self):
        buf = ClientBuffer(100)
        with pytest.raises(BufferFullError):
            buf.admit("big", 500, pinned=True)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ClientBuffer(100).admit("a", -1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ClientBuffer(0)


class TestEviction:
    def test_lowest_priority_evicted_first(self):
        buf = ClientBuffer(1000)
        buf.admit("low", 400, priority=0.1)
        buf.admit("high", 400, priority=0.9)
        buf.admit("new", 400, priority=0.5)
        assert "low" not in buf
        assert "high" in buf and "new" in buf

    def test_lru_breaks_priority_ties(self):
        buf = ClientBuffer(1000)
        buf.admit("older", 400, priority=0.5)
        buf.admit("newer", 400, priority=0.5)
        buf.lookup("older")  # refresh recency
        buf.admit("incoming", 400, priority=0.5)
        assert "newer" not in buf
        assert "older" in buf

    def test_pinned_never_evicted(self):
        buf = ClientBuffer(1000)
        buf.admit("display", 600, pinned=True)
        buf.admit("cache", 300, priority=0.9)
        assert buf.admit("incoming", 350) is True
        assert "display" in buf
        assert "cache" not in buf

    def test_all_pinned_blocks_admission(self):
        buf = ClientBuffer(1000)
        buf.admit("a", 600, pinned=True)
        buf.admit("b", 400, pinned=True)
        assert buf.admit("c", 100) is False
        with pytest.raises(BufferFullError, match="pinned"):
            buf.admit("c", 100, pinned=True)

    def test_unpin_allows_eviction(self):
        buf = ClientBuffer(1000)
        buf.admit("a", 600, pinned=True)
        buf.unpin("a")
        assert buf.admit("b", 600)
        assert "a" not in buf

    def test_unpin_all_and_clear(self):
        buf = ClientBuffer(1000)
        buf.admit("a", 100, pinned=True)
        buf.admit("b", 100, pinned=True)
        buf.unpin_all()
        buf.clear()
        assert len(buf) == 0
        assert buf.used_bytes == 0

    def test_remove(self):
        buf = ClientBuffer(1000)
        buf.admit("a", 100)
        buf.remove("a")
        assert buf.used_bytes == 0
        buf.remove("ghost")  # no error

    @pytest.mark.parametrize("seed", range(8))
    def test_pinned_tally_tracks_every_pin_change(self, seed):
        """``admit`` reads a running tally of pinned bytes; after any mix
        of admits (new and refreshing), pins, unpins, removals,
        evictions and clears it equals the sum it replaced."""
        rng = random.Random(seed)
        buf = ClientBuffer(1000)
        keys = [f"k{i}" for i in range(12)]
        evictions = 0
        for _ in range(400):
            key = rng.choice(keys)
            op = rng.choices(
                ["admit", "pin", "unpin", "remove", "unpin_all", "clear"],
                weights=[30, 10, 10, 10, 1, 1],
            )[0]
            if op == "admit":
                before = set(buf.keys())
                try:
                    buf.admit(
                        key, rng.randrange(0, 400), priority=rng.random(),
                        pinned=rng.random() < 0.4,
                        evict_below=rng.choice([None, None, 0.5]),
                    )
                except BufferFullError:
                    pass
                evictions += len(before - set(buf.keys()))
            elif op in ("pin", "unpin", "remove"):
                getattr(buf, op)(key)
            else:
                getattr(buf, op)()
            entries = buf._entries.values()
            assert buf._pinned == sum(e.size for e in entries if e.pinned)
            assert buf.used_bytes == sum(e.size for e in entries) <= buf.capacity_bytes
        assert evictions  # the sequence did reach the eviction path


class TestHelpers:
    def test_entry_key(self):
        assert entry_key("imaging.ct", "flat") == "imaging.ct=flat"

    def test_reset_stats(self):
        buf = ClientBuffer(100)
        buf.lookup("x")
        buf.reset_stats()
        assert (buf.hits, buf.misses) == (0, 0)
