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
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.inc(-12)
        assert gauge.value == 3


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

    def test_percentiles_are_bucket_upper_edges(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for _ in range(90):
            histogram.observe(0.5)
        for _ in range(10):
            histogram.observe(50.0)
        assert histogram.percentile(0.50) == 1.0
        assert histogram.percentile(0.90) == 1.0
        assert histogram.percentile(0.99) == 100.0

    def test_overflow_bucket_reports_observed_max(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(123.0)
        assert histogram.percentile(0.99) == 123.0

    def test_empty_percentile_is_none(self):
        assert Histogram("h").percentile(0.5) is None

    def test_summary_shape(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        histogram.observe(1.5)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["mean"] == 1.5
        assert summary["p50"] == 2.0
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
        registry.gauge("g").set(7)
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
        instrument.set(5)
        instrument.observe(1.0)
        assert instrument.value == 0
        assert instrument.percentile(0.5) is None
        assert instrument.summary() == {}
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        registry.reset()
