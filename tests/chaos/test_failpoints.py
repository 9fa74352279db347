"""The failpoint registry itself (crash-point wiring is tested per-tier)."""

import pytest

from repro.chaos import Failpoints, get_failpoints, use_failpoints


class TestArming:
    def test_unarmed_fire_is_a_noop_but_counted(self):
        fp = Failpoints()
        assert fp.fire("journal.append", op="put") is None
        assert fp.hits == {"journal.append": 1}
        assert fp.fired == []

    def test_armed_point_fires_once_by_default(self):
        fp = Failpoints()
        fp.arm("journal.append", mode="torn")
        assert fp.fire("journal.append") == "torn"
        assert fp.fire("journal.append") is None  # disarmed after count
        assert fp.fired == [("journal.append", "torn")]

    def test_after_skips_matching_hits(self):
        fp = Failpoints()
        fp.arm("cluster.replicate", mode="crash_before", after=2)
        assert fp.fire("cluster.replicate") is None
        assert fp.fire("cluster.replicate") is None
        assert fp.fire("cluster.replicate") == "crash_before"

    def test_count_fires_repeatedly(self):
        fp = Failpoints()
        fp.arm("p", mode="m", count=3)
        assert [fp.fire("p") for _ in range(4)] == ["m", "m", "m", None]

    def test_match_restricts_by_context(self):
        fp = Failpoints()
        fp.arm("cluster.replicate", mode="crash_after", match={"shard": "shard-2"})
        assert fp.fire("cluster.replicate", shard="shard-1") is None
        assert fp.fire("cluster.replicate", shard="shard-2") == "crash_after"
        assert fp.armed("cluster.replicate") is False

    def test_validation(self):
        fp = Failpoints()
        with pytest.raises(ValueError):
            fp.arm("p", "fire", after=-1)
        with pytest.raises(ValueError):
            fp.arm("p", "fire", count=0)


class TestIsolation:
    def test_use_failpoints_installs_and_restores(self):
        outer = get_failpoints()
        with use_failpoints() as fp:
            assert get_failpoints() is fp
            assert fp is not outer
            fp.arm("p", "fire")
            assert get_failpoints().fire("p") == "fire"
        assert get_failpoints() is outer
        assert not outer.armed("p")

    def test_clear_disarms_everything(self):
        fp = Failpoints()
        fp.arm("a", "fire")
        fp.fire("b")
        fp.clear()
        assert not fp.armed("a")
        assert fp.hits == {} and fp.fired == []
