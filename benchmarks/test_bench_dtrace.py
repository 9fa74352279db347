"""E15 / delivery tracing — wire overhead and cross-hop latency.

Delivery tracing stamps a compact trailer (magic + varint contexts) onto
already-encoded frames, so its cost model is bytes-per-stamped-frame,
never re-encodes. This benchmark measures both halves of that claim on
E13's fan-out path: the production sampling profile (``sample_every=16``)
must stay under 3% wire-byte overhead with encode counts identical to
the untraced run, and the full-sampling cost is reported so the knob's
value is visible. A checked-in snapshot
(``benchmarks/metrics/e15_dtrace_guard.json``) turns the sampled
overhead into a CI regression gate. The second half traces a batched
multi-shard cluster at full sampling and reports per-hop p50/p99 — the
cross-hop latency breakdown the analyzer attributes e2e time against.
"""

import json
import os
from pathlib import Path

from conftest import QUICK
from test_bench_codec_fanout import run_fanout

from repro import obs
from repro.cluster import ClusterConfig
from repro.db import Database, MultimediaObjectStore
from repro.workloads.cluster import run_cluster_conference

SHARD_COUNTS = (1, 2) if QUICK else (1, 2, 4)
NUM_ROOMS = 2 if QUICK else 4
EVENTS_PER_ROOM = 3 if QUICK else 6
GUARD_PATH = Path(__file__).parent / "metrics" / "e15_dtrace_guard.json"
#: Absolute percentage-point headroom over the snapshot's sampled overhead.
GUARD_TOLERANCE_PCT = 0.5
#: Hard acceptance ceiling for the production sampling profile.
OVERHEAD_CEILING_PCT = 3.0
#: Pinned to the E13 wire-guard scenario so the baselines line up.
GUARD_POPULATION = 4
GUARD_EVENTS = 6
GUARD_SAMPLE_EVERY = 16

HOP_ORDER = ("uplink", "gateway_route", "shard_queue", "batch_wait", "downlink")


def run_traced_fanout(tmp_path, tag, sample_every):
    """E13's fan-out workload with every Nth client root traced."""
    tracer = obs.DeliveryTracer(sample_every=sample_every)
    with obs.use_dtrace(tracer):
        return run_fanout(tmp_path, GUARD_POPULATION, tag, events=GUARD_EVENTS)


def run_traced_cluster(tmp_path, num_shards):
    """A fully traced, batched cluster conference; returns the run result
    plus the isolated histogram snapshot the hop quantiles come from."""
    registry = obs.MetricsRegistry()
    db = Database(str(tmp_path / f"db-s{num_shards}"))
    store = MultimediaObjectStore(db)
    try:
        with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
            tracer = obs.DeliveryTracer(sample_every=1)
            with obs.use_dtrace(tracer):
                result = run_cluster_conference(
                    store,
                    ClusterConfig(
                        shards=num_shards, service_rate=200.0, batch_window_s=0.02
                    ),
                    num_rooms=NUM_ROOMS,
                    clients_per_room=3,
                    events_per_room=EVENTS_PER_ROOM,
                )
    finally:
        db.close()
    return result, tracer, registry.snapshot()["histograms"]


def test_dtrace_overhead_guard(report, tmp_path):
    """Acceptance + CI gate: at ``sample_every=16`` the traced run costs
    <3% extra wire bytes and exactly zero extra encodes on E13's fan-out
    path. Full sampling is reported informationally — trailers on every
    frame of every hop are deliberately not the production profile.
    Regenerate the snapshot with ``REPRO_UPDATE_GUARD=1``."""
    base = run_fanout(tmp_path, GUARD_POPULATION, "guard-base", events=GUARD_EVENTS)
    sampled = run_traced_fanout(tmp_path, "guard-s16", GUARD_SAMPLE_EVERY)
    full = run_traced_fanout(tmp_path, "guard-full", 1)
    sampled_pct = 100.0 * (sampled["wire_bytes"] - base["wire_bytes"]) / base["wire_bytes"]
    full_pct = 100.0 * (full["wire_bytes"] - base["wire_bytes"]) / base["wire_bytes"]
    report.table(
        f"E15: tracing overhead on E13's path, room of {GUARD_POPULATION}, "
        f"{GUARD_EVENTS} choices",
        ["profile", "wire bytes", "overhead", "encodes", "delivered"],
        [
            ["untraced", base["wire_bytes"], "—", base["encodes"],
             base["updates_received"]],
            [f"sampled 1/{GUARD_SAMPLE_EVERY}", sampled["wire_bytes"],
             f"{sampled_pct:.2f}%", sampled["encodes"],
             sampled["updates_received"]],
            ["full sampling", full["wire_bytes"], f"{full_pct:.2f}%",
             full["encodes"], full["updates_received"]],
        ],
    )
    # Tracing must be a pure trailer: same deliveries, same encode bill.
    assert sampled["updates_received"] == base["updates_received"]
    assert full["updates_received"] == base["updates_received"]
    assert sampled["encodes"] == base["encodes"]
    assert full["encodes"] == base["encodes"]
    # Full sampling demonstrably stamped more than the sampled profile —
    # the knob is what buys the budget.
    assert base["wire_bytes"] < sampled["wire_bytes"] < full["wire_bytes"]
    assert sampled_pct < OVERHEAD_CEILING_PCT, (
        f"sampled tracing overhead {sampled_pct:.2f}% breaches the "
        f"{OVERHEAD_CEILING_PCT:.0f}% budget"
    )
    current = {
        "population": GUARD_POPULATION,
        "events": GUARD_EVENTS,
        "sample_every": GUARD_SAMPLE_EVERY,
        "untraced_wire_bytes": base["wire_bytes"],
        "sampled_overhead_pct": round(sampled_pct, 2),
        "full_overhead_pct": round(full_pct, 2),
    }
    report.line(
        f"  dtrace guard: {sampled_pct:.2f}% wire overhead sampled "
        f"1/{GUARD_SAMPLE_EVERY} ({full_pct:.2f}% at full sampling)"
    )
    if os.environ.get("REPRO_UPDATE_GUARD"):
        GUARD_PATH.write_text(json.dumps(current, indent=2) + "\n")
        report.line(f"  dtrace guard snapshot updated: {GUARD_PATH}")
        return
    assert GUARD_PATH.exists(), (
        "missing benchmarks/metrics/e15_dtrace_guard.json — run once with "
        "REPRO_UPDATE_GUARD=1 and commit the snapshot"
    )
    snapshot = json.loads(GUARD_PATH.read_text())
    assert snapshot["population"] == GUARD_POPULATION
    assert snapshot["events"] == GUARD_EVENTS
    assert snapshot["sample_every"] == GUARD_SAMPLE_EVERY
    ceiling = snapshot["sampled_overhead_pct"] + GUARD_TOLERANCE_PCT
    assert sampled_pct <= ceiling, (
        f"tracing overhead regression: {sampled_pct:.2f}% exceeds the "
        f"snapshot {snapshot['sampled_overhead_pct']:.2f}% "
        f"(+{GUARD_TOLERANCE_PCT} pp); if intentional, regenerate with "
        "REPRO_UPDATE_GUARD=1"
    )


def test_cross_hop_latency_breakdown(benchmark, report, tmp_path):
    """Per-hop p50/p99 across 1/2/4 shards at full sampling: every hop of
    the delivery chain materializes its latency series, and the e2e
    distribution per room comes with them."""
    runs = [(n, *run_traced_cluster(tmp_path, n)) for n in SHARD_COUNTS]
    benchmark.pedantic(
        run_traced_cluster,
        args=(tmp_path, SHARD_COUNTS[0]),
        rounds=1 if QUICK else 2,
    )
    rows = []
    for num_shards, result, tracer, histograms in runs:
        assert result["errors"] == []
        assert len(tracer.store) > 0
        for hop in HOP_ORDER:
            summary = histograms.get(f'dtrace.hop.latency{{hop="{hop}"}}')
            assert summary is not None and summary["count"] > 0, (
                f"{num_shards} shards: hop '{hop}' recorded no spans"
            )
            rows.append(
                [
                    num_shards,
                    hop,
                    summary["count"],
                    f"{1000 * summary['p50']:.2f}",
                    f"{1000 * summary['p99']:.2f}",
                ]
            )
        e2e = [
            (key, summary)
            for key, summary in sorted(histograms.items())
            if key.startswith("dtrace.e2e.latency")
        ]
        assert len(e2e) == NUM_ROOMS
        for key, summary in e2e:
            assert summary["count"] > 0
            report.line(
                f"  {num_shards} shards {key}: n={summary['count']} "
                f"p50={1000 * summary['p50']:.1f}ms "
                f"p99={1000 * summary['p99']:.1f}ms"
            )
    report.table(
        f"E15: cross-hop latency, {NUM_ROOMS} rooms x {EVENTS_PER_ROOM} "
        "events, 20ms batch window, full sampling",
        ["shards", "hop", "spans", "p50 ms", "p99 ms"],
        rows,
    )
