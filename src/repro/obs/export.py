"""Exporters over registry snapshots: JSON, lines and diffs.

A *snapshot* is the plain-dict form returned by
``MetricsRegistry.snapshot()``::

    {"counters": {name: value},
     "gauges": {name: value},
     "histograms": {name: {count, total, mean, min, max, p50, p90, p99,
                           bounds, bucket_counts}}}

Labelled family children appear under their canonical names
(``db.rows_scanned{table="patients"}``), so every exporter handles
labels uniformly.

Everything here is deterministic: keys are emitted sorted and JSON is
rendered with fixed separators, so identical metric states produce
byte-identical output (the property benchmark diffs rely on).
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.metrics import histogram_summary

Snapshot = dict[str, Any]


def to_json(snapshot: Snapshot) -> str:
    """Canonical JSON rendering of a snapshot (sorted keys, indent 2)."""
    return json.dumps(snapshot, indent=2, sort_keys=True, separators=(",", ": "))


def to_lines(snapshot: Snapshot) -> str:
    """Flat one-instrument-per-line dump (grep-friendly)."""
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        lines.append(f"counter {name} {value}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        lines.append(f"gauge {name} {value}")
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        if not summary or not summary.get("count"):
            lines.append(f"histogram {name} count=0")
            continue
        mean = summary["mean"]
        lines.append(
            f"histogram {name} count={summary['count']} total={summary['total']:.9g} "
            f"mean={mean:.9g} min={summary['min']:.9g} max={summary['max']:.9g} "
            f"p50={summary['p50']:.9g} p90={summary['p90']:.9g} p99={summary['p99']:.9g}"
        )
    for name, value in sorted(snapshot.get("gauges_absent", {}).items()):
        lines.append(f"gauge {name} absent last={value}")
    return "\n".join(lines)


def _diff_histogram(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """Bucket-wise subtraction; percentiles recomputed over the delta."""
    bounds = after.get("bounds", [])
    after_buckets = after.get("bucket_counts", [])
    before_buckets = before.get("bucket_counts", [0] * len(after_buckets))
    delta_buckets = [a - b for a, b in zip(after_buckets, before_buckets)]
    count = after.get("count", 0) - before.get("count", 0)
    total = after.get("total", 0.0) - before.get("total", 0.0)
    populated = [index for index, n in enumerate(delta_buckets) if n > 0]
    if count <= 0 or not populated:
        return histogram_summary(bounds, delta_buckets, count, total, None, None)
    # The interval's exact extremes are unrecoverable from buckets: bound
    # them by its first and last populated buckets' edges, clamped to the
    # cumulative ones.
    first, last = populated[0], populated[-1]
    low = max(after["min"], bounds[first - 1]) if first else after["min"]
    high = min(after["max"], bounds[last]) if last < len(bounds) else after["max"]
    return histogram_summary(bounds, delta_buckets, count, total, low, high)


def diff(before: Snapshot, after: Snapshot) -> Snapshot:
    """What happened between two snapshots of the *same* registry.

    Counters and histograms subtract; gauges report their ``after``
    value (a level, not a rate). Instruments that never moved are
    omitted, so a benchmark's diff contains exactly the activity of the
    benchmarked region.

    A gauge present in *before* but gone from *after* (the registry was
    reset or recreated between snapshots) is not silently dropped: it is
    reported under ``gauges_absent`` as its last-known value going to
    absent. The key is present only when something actually disappeared,
    so quiescent diffs keep the three-section shape.
    """
    counters_before = before.get("counters", {})
    counters: dict[str, Any] = {}
    for name, value in after.get("counters", {}).items():
        delta = value - counters_before.get(name, 0)
        if delta:
            counters[name] = delta
    gauges_after = after.get("gauges", {})
    gauges = {
        name: value
        for name, value in gauges_after.items()
        if value != before.get("gauges", {}).get(name, 0)
    }
    gauges_absent = {
        name: value
        for name, value in before.get("gauges", {}).items()
        if name not in gauges_after
    }
    histograms_before = before.get("histograms", {})
    histograms: dict[str, Any] = {}
    for name, summary in after.get("histograms", {}).items():
        if summary.get("count", 0) != histograms_before.get(name, {}).get("count", 0):
            histograms[name] = _diff_histogram(histograms_before.get(name, {}), summary)
    result: Snapshot = {"counters": counters, "gauges": gauges, "histograms": histograms}
    if gauges_absent:
        result["gauges_absent"] = gauges_absent
    return result
