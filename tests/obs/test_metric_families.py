"""Labelled metric families: canonical names, cardinality bounds, exporters."""

import gc
import weakref

import pytest

from repro.obs.export import to_json, to_lines
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MAX_SERIES,
    OVERFLOW_LABEL,
    MetricsRegistry,
    NullRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


def leave_room(family, series: int):
    """Fill *family* until only *series* more label sets get their own child."""
    for index in range(MAX_SERIES - series):
        family.labels(f"filler-{index}")
    return family


class Tally:
    def __init__(self, count: int) -> None:
        self.count = count

    def read(self) -> int:
        return self.count


class TestFamilies:
    def test_children_register_under_canonical_names(self, registry):
        family = registry.counter_family("db.rows_scanned", ("table",))
        family.labels("patients").inc(5)
        family.labels("images").inc(2)
        assert registry.counters['db.rows_scanned{table="patients"}'].value == 5
        assert registry.counters['db.rows_scanned{table="images"}'].value == 2

    def test_same_labels_resolve_to_same_child(self, registry):
        family = registry.counter_family("c", ("k",))
        assert family.labels("v") is family.labels("v")

    def test_label_values_coerced_to_str(self, registry):
        family = registry.gauge_family("g", ("shard",))
        assert family.labels(3) is family.labels("3")

    def test_multi_label_families(self, registry):
        family = registry.counter_family("bytes", ("room", "mode"))
        family.labels("room-1", "diff").inc(10)
        assert registry.counters['bytes{room="room-1",mode="diff"}'].value == 10

    def test_wrong_arity_rejected(self, registry):
        family = registry.counter_family("c", ("a", "b"))
        with pytest.raises(ValueError):
            family.labels("only-one")

    def test_needs_at_least_one_label(self, registry):
        with pytest.raises(ValueError):
            registry.counter_family("c", ())

    def test_get_or_create_is_idempotent(self, registry):
        first = registry.counter_family("c", ("k",))
        second = registry.counter_family("c", ("k",))
        assert first is second

    def test_kind_mismatch_rejected(self, registry):
        registry.counter_family("c", ("k",))
        with pytest.raises(ValueError):
            registry.gauge_family("c", ("k",))

    def test_label_name_mismatch_rejected(self, registry):
        registry.counter_family("c", ("k",))
        with pytest.raises(ValueError):
            registry.counter_family("c", ("other",))

    def test_label_values_escaped(self, registry):
        family = registry.counter_family("c", ("k",))
        family.labels('say "hi"').inc()
        assert 'c{k="say \\"hi\\""}' in registry.counters

    def test_histogram_family_children_use_latency_buckets(self, registry):
        family = registry.histogram_family("h", ("k",))
        child = family.labels("a")
        child.observe(1.5)
        assert child.bounds == LATENCY_BUCKETS
        assert child.count == 1

    def test_remove_drops_child_from_registry(self, registry):
        family = registry.gauge_family("g", ("room",))
        family.labels("room-1", read=lambda: 5)
        family.remove("room-1")
        assert 'g{room="room-1"}' not in registry.gauges
        assert family.children == {}
        # Asking again builds a fresh child; the removed one stays gone.
        assert family.labels("room-1").value == 0
        assert 'g{room="room-1"}' in registry.gauges

    def test_reset_clears_families(self, registry):
        registry.counter_family("c", ("k",)).labels("v").inc()
        registry.reset()
        assert registry.families == {}
        assert registry.counters == {}


class TestCardinalityBound:
    def test_overflow_collapses_to_shared_child(self, registry):
        family = leave_room(registry.counter_family("c", ("k",)), 2)
        family.labels("a").inc()
        family.labels("b").inc()
        overflow_1 = family.labels("c")
        overflow_2 = family.labels("d")
        assert overflow_1 is overflow_2
        assert overflow_1.name == f'c{{k="{OVERFLOW_LABEL}"}}'
        overflow_1.inc(3)
        # MAX_SERIES real series + one overflow series; no unbounded growth.
        assert len(family.children) == MAX_SERIES + 1
        family.labels("e").inc()
        assert len(family.children) == MAX_SERIES + 1

    def test_known_labels_still_resolve_after_overflow(self, registry):
        family = leave_room(registry.counter_family("c", ("k",)), 1)
        child = family.labels("a")
        family.labels("b")  # overflow
        assert family.labels("a") is child


    def test_overflow_drops_the_readers_of_a_retired_label(self, registry):
        family = leave_room(registry.counter_family("c", ("k",)), 2)
        family.labels("a").inc()
        family.labels("b").inc()
        overflow = family.labels("c")
        tallies = []
        for cycle in range(5):
            tally = Tally(3)
            tallies.append(weakref.ref(tally))
            family.labels("c", read=tally.read)
            assert overflow.value == 3 * (cycle + 1)
            family.remove("c")
            del tally
            # The retired label's count stays; its reader and tally go.
            assert overflow.value == 3 * (cycle + 1)
        gc.collect()
        assert [ref() for ref in tallies] == [None] * 5

    def test_overflow_gauge_forgets_a_retired_owner(self, registry):
        family = leave_room(registry.gauge_family("g", ("k",)), 1)
        family.labels("a", read=lambda: 1)
        tally = Tally(7)
        overflow = family.labels("b", read=tally.read)
        assert overflow.value == 7
        family.remove("b")
        assert overflow.value == 0
        ref = weakref.ref(tally)
        del tally
        gc.collect()
        assert ref() is None


class TestExportersSeeChildren:
    def test_snapshot_and_lines_and_json(self, registry):
        registry.counter_family("db.rows", ("table",)).labels("patients").inc(7)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {'db.rows{table="patients"}': 7}
        assert 'counter db.rows{table="patients"} 7' in to_lines(snapshot)
        assert '"db.rows{table=\\"patients\\"}"' in to_json(snapshot)


class TestNullRegistryFamilies:
    def test_families_are_inert(self):
        registry = NullRegistry()
        family = registry.counter_family("c", ("k",))
        family.labels("v").inc(100)
        family.remove("v")
        assert registry.families == {}
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_all_family_kinds_share_the_null_family(self):
        registry = NullRegistry()
        assert registry.counter_family("a", ("k",)) is registry.gauge_family("b", ("k",))
        assert registry.histogram_family("c", ("k",)) is registry.counter_family("a", ("k",))
