"""Exporters: JSON, line format, and snapshot diffing."""

import json

import pytest

from repro.obs import MetricsRegistry, diff, to_json, to_lines


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("db.rows_scanned").inc(100)
    registry.gauge("server.room_occupancy", read=lambda: 3)
    histogram = registry.histogram("db.query_latency_s", bounds=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.005, 0.05):
        histogram.observe(value)
    return registry


class TestJson:
    def test_round_trips_and_sorts_keys(self):
        rendered = to_json(_registry().snapshot())
        parsed = json.loads(rendered)
        assert parsed["counters"]["db.rows_scanned"] == 100
        assert list(parsed) == ["counters", "gauges", "histograms"]

    def test_identical_state_is_byte_identical(self):
        assert to_json(_registry().snapshot()) == to_json(_registry().snapshot())


class TestLines:
    def test_flat_format(self):
        lines = to_lines(_registry().snapshot()).splitlines()
        assert "counter db.rows_scanned 100" in lines
        assert "gauge server.room_occupancy 3" in lines
        histogram_lines = [l for l in lines if l.startswith("histogram")]
        assert len(histogram_lines) == 1
        assert "count=3" in histogram_lines[0]
        # rank 1.5 is halfway through the (0.001, 0.01] bucket
        assert "p50=0.0055 " in histogram_lines[0]

    def test_empty_histogram_renders_count_zero(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        assert to_lines(registry.snapshot()) == "histogram h count=0"


class TestDiff:
    def test_counters_subtract_and_unmoved_are_omitted(self):
        registry = _registry()
        before = registry.snapshot()
        registry.counter("db.rows_scanned").inc(20)
        registry.counter("db.queries").inc(1)
        delta = diff(before, registry.snapshot())
        assert delta["counters"] == {"db.queries": 1, "db.rows_scanned": 20}

    def test_gauges_report_after_value_only_when_changed(self):
        registry = _registry()
        before = registry.snapshot()
        registry.gauge("server.room_occupancy", read=lambda: 5)
        registry.gauge("untouched", read=lambda: 0)
        delta = diff(before, registry.snapshot())
        assert delta["gauges"] == {"server.room_occupancy": 5}

    def test_histograms_subtract_bucketwise(self):
        registry = _registry()
        before = registry.snapshot()
        histogram = registry.histogram("db.query_latency_s")
        for _ in range(10):
            histogram.observe(0.005)
        delta = diff(before, registry.snapshot())
        summary = delta["histograms"]["db.query_latency_s"]
        assert summary["count"] == 10
        assert summary["bucket_counts"] == [0, 10, 0, 0]
        # Every new observation fell in the (0.001, 0.01] bucket, the
        # delta's only one: its quantiles interpolate across that bucket,
        # not from the cumulative min 0.0005 the interval never saw.
        assert (summary["min"], summary["max"]) == (0.001, 0.01)
        assert summary["p50"] == pytest.approx(0.0055)
        assert summary["p99"] == pytest.approx(0.001 + 0.009 * 0.99)
        assert abs(summary["total"] - 0.05) < 1e-12

    @pytest.mark.parametrize(
        "earlier, interval",
        [
            ((0.0005,), (0.005,) * 10),  # cumulative min below the interval's
            ((0.05, 0.5), (0.005, 0.006)),  # cumulative max above it
            ((0.0002, 0.2), (0.002, 0.05, 0.07)),  # both, two buckets apart
            ((0.003,), (0.0004, 0.5)),  # the interval holds the extremes
        ],
    )
    def test_every_quantile_of_a_diff_lies_in_its_populated_buckets(
        self, earlier, interval
    ):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=(0.001, 0.01, 0.1))
        for value in earlier:
            histogram.observe(value)
        before = registry.snapshot()
        for value in interval:
            histogram.observe(value)
        summary = diff(before, registry.snapshot())["histograms"]["h"]
        edges = (float("-inf"), *histogram.bounds, float("inf"))
        populated = [i for i, n in enumerate(summary["bucket_counts"]) if n]
        low, high = edges[populated[0]], edges[populated[-1] + 1]
        estimates = [summary[key] for key in ("min", "p50", "p90", "p99", "max")]
        assert estimates == sorted(estimates)
        assert low <= estimates[0] and estimates[-1] <= high

    def test_no_activity_diffs_to_empty(self):
        registry = _registry()
        snapshot = registry.snapshot()
        assert diff(snapshot, registry.snapshot()) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_instrument_created_after_before_snapshot(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.counter("fresh").inc(7)
        registry.histogram("fresh_h", bounds=(1.0,)).observe(0.5)
        delta = diff(before, registry.snapshot())
        assert delta["counters"] == {"fresh": 7}
        assert delta["histograms"]["fresh_h"]["count"] == 1


class TestGaugesAbsent:
    def test_gauge_vanishing_is_reported(self):
        before = {
            "counters": {},
            "gauges": {"server.rooms_open": 4, "stable": 1},
            "histograms": {},
        }
        after = {"counters": {}, "gauges": {"stable": 1}, "histograms": {}}
        delta = diff(before, after)
        # Last-known value going to absent, not silently dropped.
        assert delta["gauges_absent"] == {"server.rooms_open": 4}
        assert delta["gauges"] == {}

    def test_registry_recreated_between_snapshots(self):
        first = MetricsRegistry()
        first.gauge("server.sessions_connected", read=lambda: 3)
        before = first.snapshot()
        after = MetricsRegistry().snapshot()  # reset: gauge is gone
        delta = diff(before, after)
        assert delta["gauges_absent"] == {"server.sessions_connected": 3}

    def test_key_absent_when_nothing_disappeared(self):
        registry = _registry()
        delta = diff(registry.snapshot(), registry.snapshot())
        assert "gauges_absent" not in delta

    def test_lines_render_absent_gauges(self):
        delta = diff(
            {"counters": {}, "gauges": {"g": 7}, "histograms": {}},
            {"counters": {}, "gauges": {}, "histograms": {}},
        )
        assert "gauge g absent last=7" in to_lines(delta)
