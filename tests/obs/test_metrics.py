"""Instrument and registry behavior."""

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


class TestCounterGauge:
    def test_counter_counts(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_gauge_moves_both_ways(self):
        queue: list[int] = []
        gauge = MetricsRegistry().gauge("g", read=queue.__len__)
        queue.extend(range(10))
        assert gauge.value == 10
        del queue[3:]
        assert gauge.value == 3


class TestReaders:
    """A series read from its owners' tallies, taken at snapshot."""

    def test_a_counter_sums_what_was_added_and_every_reader(self):
        registry = MetricsRegistry()
        primary, standby = {"hits": 2}, {"hits": 5}
        counter = registry.counter("c", read=lambda: primary["hits"])
        counter.inc(1)
        registry.counter("c", read=lambda: standby["hits"])
        assert registry.snapshot()["counters"] == {"c": 8}
        standby["hits"] += 1
        assert counter.value == 9

    def test_a_gauge_belongs_to_its_newest_reader(self):
        registry = MetricsRegistry()
        registry.gauge("g", read=lambda: 4)
        registry.gauge("g", read=lambda: 7)
        assert registry.snapshot()["gauges"] == {"g": 7}
        assert MetricsRegistry().gauge("unbound").value == 0

    def test_a_lookup_without_a_reader_keeps_the_owners(self):
        registry = MetricsRegistry()
        registry.gauge("g", read=lambda: 4)
        registry.counter("c", read=lambda: 3)
        assert (registry.gauge("g").value, registry.counter("c").value) == (4, 3)

    def test_family_children_take_readers_and_remove_drops_them(self):
        registry = MetricsRegistry()
        family = registry.counter_family("f", ("doc",))
        tally = {"d1": 3}
        family.labels("d1", read=lambda: tally["d1"])
        family.labels("d1", read=lambda: 1)
        assert registry.snapshot()["counters"] == {'f{doc="d1"}': 4}
        family.remove("d1")
        assert registry.snapshot()["counters"] == {}
        assert family.labels("d1").value == 0

    def test_null_registry_accepts_readers(self):
        registry = NullRegistry()
        registry.counter("c", read=lambda: 1)
        registry.gauge("g", read=lambda: 1)
        registry.gauge_family("f", ("k",)).labels("v", read=lambda: 1)
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestHistogram:
    def test_rejects_unsorted_or_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(3.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_bucket_assignment_inclusive_upper_edge(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 100.0, 1000.0):
            histogram.observe(value)
        # <=1 | <=10 | <=100 | overflow
        assert histogram.bucket_counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.min == 0.5
        assert histogram.max == 1000.0

    def test_percentiles_interpolate_within_buckets(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for _ in range(90):
            histogram.observe(0.5)
        for _ in range(10):
            histogram.observe(50.0)
        summary = histogram.summary()
        # rank 50 of 90 in [min 0.5, 1.0]; rank 90 closes that bucket;
        # rank 99 is 9/10 through (10.0, max 50.0].
        assert summary["p50"] == pytest.approx(0.5 + 0.5 * 50 / 90)
        assert summary["p90"] == pytest.approx(1.0)
        assert summary["p99"] == pytest.approx(46.0)

    def test_overflow_bucket_reports_observed_max(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(123.0)
        assert histogram.summary()["p99"] == 123.0

    def test_empty_percentile_is_none(self):
        summary = Histogram("h").summary()
        assert summary["p50"] is None and summary["p90"] is None and summary["p99"] is None

    def test_summary_shape(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        histogram.observe(1.5)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["mean"] == 1.5
        assert summary["p50"] == 1.5  # clamped to the one observation
        assert summary["bucket_counts"] == [0, 1, 0]

    def test_bucket_presets_are_sorted(self):
        for preset in (LATENCY_BUCKETS, SIZE_BUCKETS, COUNT_BUCKETS):
            assert list(preset) == sorted(preset)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("x") is registry.gauge("x")
        assert registry.histogram("x") is registry.histogram("x")

    def test_snapshot_is_sorted_and_plain(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("g", read=lambda: 7)
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["counters"] == {"a": 2, "b": 1}
        assert snapshot["gauges"] == {"g": 7}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_enabled_flags(self):
        assert MetricsRegistry().enabled is True
        assert NullRegistry().enabled is False


class TestNullRegistry:
    def test_all_instruments_share_one_noop(self):
        registry = NullRegistry()
        counter = registry.counter("a")
        assert counter is registry.counter("b")
        assert counter is registry.gauge("c")
        assert counter is registry.histogram("d")

    def test_noop_interface_is_complete(self):
        registry = NullRegistry()
        instrument = registry.counter("x")
        instrument.inc()
        instrument.inc(10)
        instrument.observe(1.0)
        assert instrument.value == 0
        assert instrument.summary() == {}
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        registry.reset()
