"""Labelled metric families: canonical names, cardinality bounds, exporters."""

import pytest

from repro.obs.export import to_exposition, to_json, to_lines
from repro.obs.metrics import (
    OVERFLOW_LABEL,
    MetricsRegistry,
    NullRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


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

    def test_histogram_family_custom_bounds(self, registry):
        family = registry.histogram_family("h", ("k",), bounds=(1.0, 2.0))
        child = family.labels("a")
        child.observe(1.5)
        assert child.bounds == (1.0, 2.0)
        assert child.count == 1

    def test_remove_drops_child_from_registry(self, registry):
        family = registry.gauge_family("g", ("room",))
        family.labels("room-1").set(5)
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
        family = registry.counter_family("c", ("k",), max_series=2)
        family.labels("a").inc()
        family.labels("b").inc()
        overflow_1 = family.labels("c")
        overflow_2 = family.labels("d")
        assert overflow_1 is overflow_2
        assert overflow_1.name == f'c{{k="{OVERFLOW_LABEL}"}}'
        overflow_1.inc(3)
        # Two real series + one overflow series; no unbounded growth.
        assert len(family.children) == 3
        family.labels("e").inc()
        assert len(family.children) == 3

    def test_known_labels_still_resolve_after_overflow(self, registry):
        family = registry.counter_family("c", ("k",), max_series=1)
        child = family.labels("a")
        family.labels("b")  # overflow
        assert family.labels("a") is child


class TestExportersSeeChildren:
    def test_snapshot_and_lines_and_json(self, registry):
        registry.counter_family("db.rows", ("table",)).labels("patients").inc(7)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {'db.rows{table="patients"}': 7}
        assert 'counter db.rows{table="patients"} 7' in to_lines(snapshot)
        assert '"db.rows{table=\\"patients\\"}"' in to_json(snapshot)

    def test_exposition_renders_labels_and_types(self, registry):
        registry.counter_family("db.rows", ("table",)).labels("patients").inc(7)
        registry.gauge("server.rooms_open").set(2)
        text = to_exposition(registry.snapshot())
        assert "# TYPE db_rows counter" in text
        assert 'db_rows{table="patients"} 7' in text
        assert "# TYPE server_rooms_open gauge" in text
        assert "server_rooms_open 2" in text

    def test_exposition_histogram_buckets_are_cumulative(self, registry):
        hist = registry.histogram("lat", bounds=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = to_exposition(registry.snapshot())
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1.0"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_exposition_is_deterministic(self, registry):
        registry.counter_family("c", ("k",)).labels("b").inc()
        registry.counter_family("c", ("k",)).labels("a").inc()
        registry.counter("zz").inc()
        assert to_exposition(registry.snapshot()) == to_exposition(registry.snapshot())

    def test_exposition_empty_snapshot(self):
        assert to_exposition({"counters": {}, "gauges": {}, "histograms": {}}) == ""


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
