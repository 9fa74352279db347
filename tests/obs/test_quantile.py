"""Interpolated histogram quantiles and their exporter threading.

``Histogram.quantile`` interpolates inside the bucket holding the
fractional rank, clamped to the observed min/max; ``percentile`` keeps
its pinned upper-edge semantics untouched. The estimates surface as
``q50``/``q99`` in text lines and ``p50``/``p99`` columns on the
dashboard.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.dashboard import render_dashboard
from repro.obs.export import summary_quantile, to_lines
from repro.obs.metrics import Histogram, quantile_from_buckets

BOUNDS = (0.1, 1.0, 10.0)


def test_empty_histogram_returns_none():
    h = Histogram("t", BOUNDS)
    assert h.quantile(0.5) is None
    assert h.quantile(0.0) is None


def test_out_of_range_fraction_rejected():
    h = Histogram("t", BOUNDS)
    with pytest.raises(ValueError):
        h.quantile(-0.1)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_extremes_clamp_to_observed_min_and_max():
    h = Histogram("t", BOUNDS)
    for value in (0.05, 0.5, 5.0):
        h.observe(value)
    assert h.quantile(0.0) == pytest.approx(0.05)
    assert h.quantile(1.0) == pytest.approx(5.0)


def test_interpolates_within_a_bucket():
    h = Histogram("t", BOUNDS)
    for value in (0.05, 0.5, 5.0):
        h.observe(value)
    # rank 1.5 falls in the (0.1, 1.0] bucket: halfway through one
    # observation -> halfway between the bucket edges.
    assert h.quantile(0.5) == pytest.approx(0.55)


def test_single_bucket_uses_observed_min_as_lower_edge():
    h = Histogram("t", BOUNDS)
    for value in (0.02, 0.04, 0.06, 0.08):
        h.observe(value)  # all in the first bucket
    q50 = h.quantile(0.5)
    assert 0.02 <= q50 <= 0.08
    # Both edges clamp to observations: min 0.02 + 0.5 * (max 0.08 - 0.02).
    assert q50 == pytest.approx(0.05)


def test_bucket_edge_values_stay_in_their_bucket():
    h = Histogram("t", BOUNDS)
    for _ in range(4):
        h.observe(0.1)  # exactly on the first bound: bisect_left -> bucket 0
    assert h.quantile(0.5) == pytest.approx(0.1)
    assert h.quantile(1.0) == pytest.approx(0.1)


def test_overflow_bucket_clamps_to_observed_max():
    h = Histogram("t", BOUNDS)
    for value in (50.0, 80.0, 110.0):
        h.observe(value)  # all beyond the last bound
    assert h.quantile(0.99) <= 110.0
    assert h.quantile(1.0) == pytest.approx(110.0)
    # percentile() keeps reporting the observed max for overflow...
    assert h.percentile(0.99) == pytest.approx(110.0)


def test_percentile_semantics_unchanged():
    """Pinned: the exporters' p50/p90/p99 stay bucket-upper-edge."""
    h = Histogram("t", BOUNDS)
    for value in (0.05, 0.5, 5.0):
        h.observe(value)
    assert h.percentile(0.50) == pytest.approx(1.0)  # upper edge, not 0.55
    summary = h.summary()
    assert summary["p50"] == pytest.approx(1.0)


def test_quantile_from_buckets_handles_empty_state():
    assert quantile_from_buckets(BOUNDS, [0, 0, 0, 0], 0, None, None, 0.5) is None


def test_summary_quantile_recovers_from_summary_dict():
    h = Histogram("t", BOUNDS)
    for value in (0.05, 0.5, 5.0):
        h.observe(value)
    summary = h.summary()
    assert summary_quantile(summary, 0.5) == pytest.approx(h.quantile(0.5))
    assert summary_quantile({}, 0.5) is None


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
    assert "q50=0.55" in line
    assert "q99=" in line
    assert "p50=1" in line  # the pinned upper-edge percentile stays too


def test_dashboard_shows_p50_and_p99():
    board = render_dashboard(make_registry().snapshot())
    line = next(l for l in board.splitlines() if "request.latency_s" in l)
    assert "p50=" in line
    assert "p99=" in line
