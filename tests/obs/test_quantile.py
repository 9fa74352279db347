"""The one histogram quantile estimator and its exporter threading.

``quantile_from_buckets`` interpolates inside the bucket holding the
fractional rank, clamped to the observed min/max. A histogram's summary
carries its p50/p90/p99, and the text lines and the dashboard print
those fields.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.dashboard import render_dashboard
from repro.obs.export import to_lines
from repro.obs.metrics import Histogram, quantile_from_buckets

BOUNDS = (0.1, 1.0, 10.0)


def quantile(h: Histogram, q: float) -> float | None:
    return quantile_from_buckets(h.bounds, h.bucket_counts, h.count, h.min, h.max, q)


def test_empty_histogram_returns_none():
    h = Histogram("t", BOUNDS)
    assert quantile(h, 0.5) is None
    assert quantile(h, 0.0) is None


def test_extremes_clamp_to_observed_min_and_max():
    h = Histogram("t", BOUNDS)
    for value in (0.05, 0.5, 5.0):
        h.observe(value)
    assert quantile(h, 0.0) == pytest.approx(0.05)
    assert quantile(h, 1.0) == pytest.approx(5.0)


def test_interpolates_within_a_bucket():
    h = Histogram("t", BOUNDS)
    for value in (0.05, 0.5, 5.0):
        h.observe(value)
    # rank 1.5 falls in the (0.1, 1.0] bucket: halfway through one
    # observation -> halfway between the bucket edges.
    assert quantile(h, 0.5) == pytest.approx(0.55)


def test_single_bucket_uses_observed_min_as_lower_edge():
    h = Histogram("t", BOUNDS)
    for value in (0.02, 0.04, 0.06, 0.08):
        h.observe(value)  # all in the first bucket
    # Both edges clamp to observations: min 0.02 + 0.5 * (max 0.08 - 0.02).
    assert quantile(h, 0.5) == pytest.approx(0.05)


def test_bucket_edge_values_stay_in_their_bucket():
    h = Histogram("t", BOUNDS)
    for _ in range(4):
        h.observe(0.1)  # exactly on the first bound: bisect_left -> bucket 0
    assert quantile(h, 0.5) == pytest.approx(0.1)
    assert quantile(h, 1.0) == pytest.approx(0.1)


def test_overflow_bucket_clamps_to_observed_max():
    h = Histogram("t", BOUNDS)
    for value in (50.0, 80.0, 110.0):
        h.observe(value)  # all beyond the last bound
    assert quantile(h, 0.99) <= 110.0
    assert quantile(h, 1.0) == pytest.approx(110.0)


def test_summary_carries_the_interpolated_quantiles():
    h = Histogram("t", BOUNDS)
    for value in (0.05, 0.5, 5.0):
        h.observe(value)
    summary = h.summary()
    for key, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        assert summary[key] == quantile(h, q)
    assert summary["p50"] == pytest.approx(0.55)


def test_quantile_from_buckets_handles_empty_state():
    assert quantile_from_buckets(BOUNDS, [0, 0, 0, 0], 0, None, None, 0.5) is None


def make_registry():
    registry = MetricsRegistry()
    h = registry.histogram("request.latency_s", BOUNDS)
    for value in (0.05, 0.5, 5.0):
        h.observe(value)
    return registry


def test_to_lines_carries_interpolated_quantiles():
    line = next(
        l for l in to_lines(make_registry().snapshot()).splitlines()
        if "request.latency_s" in l
    )
    assert "p50=0.55 " in line
    assert "p99=" in line
    assert "q50=" not in line and "q99=" not in line


def test_dashboard_shows_p50_and_p99():
    board = render_dashboard(make_registry().snapshot())
    line = next(l for l in board.splitlines() if "request.latency_s" in l)
    assert " p50=0.55 " in line
    assert "p90=" in line
    assert "p99=" in line
