"""E11 / cluster tier — shard scale-out for concurrent conferences.

The paper's single interaction server caps throughput at one node's
service capacity. The cluster tier shards rooms across servers behind a
gateway; this benchmark drives the same multi-room conference workload
through 1, 2 and 4 shards (identical per-shard service rate) and
measures propagated choices per simulated second. The acceptance claim:
two shards sustain strictly more throughput than one.
"""

import json
import os
from pathlib import Path

import pytest

from conftest import QUICK
from repro import obs
from repro.cluster import ClusterConfig
from repro.db import Database, MultimediaObjectStore
from repro.workloads import run_cluster_conference

SHARD_COUNTS = (1, 2, 4)
NUM_ROOMS = 4 if QUICK else 8
CLIENTS_PER_ROOM = 2
EVENTS_PER_ROOM = 4 if QUICK else 8
SERVICE_RATE = 200.0  # ops/sec of serial service per shard

# --- E16: gateway-tier scale-out -------------------------------------
# The guard scenario is pinned (not QUICK-scaled) so the committed
# snapshot always measures the same workload; each run is sub-second.
GW_GUARD_PATH = Path(__file__).parent / "metrics" / "e11_gateway_guard.json"
GW_ROOMS = 8
GW_EVENTS = 8
GW_ROUTE_RATE = 25.0  # envelopes/sec per gateway: the tier's bottleneck
GW_SWEEP = (1, 2, 4)  # gateways in front of 8 shards
GW_RATIO_FLOOR = 1.7  # tier (8 shards x 4 gw) vs baseline (4 shards x 1 gw)
GW_HIT_RATE_FLOOR = 0.9
GW_RATIO_TOLERANCE = 0.15  # allowed slip below the committed snapshot


def run_scaleout(tmp_path, num_shards, tag):
    db = Database(str(tmp_path / f"db-{tag}"))
    store = MultimediaObjectStore(db)
    result = run_cluster_conference(
        store,
        ClusterConfig(shards=num_shards, service_rate=SERVICE_RATE),
        num_rooms=NUM_ROOMS,
        clients_per_room=CLIENTS_PER_ROOM,
        events_per_room=EVENTS_PER_ROOM,
        seed=17,
    )
    db.close()
    return result


def test_scaleout_throughput(benchmark, report, tmp_path):
    codec_before = obs.snapshot()["counters"]
    results = {n: run_scaleout(tmp_path, n, f"s{n}") for n in SHARD_COUNTS}
    codec_after = obs.snapshot()["counters"]
    benchmark.pedantic(
        run_scaleout, args=(tmp_path, 2, "bench"), rounds=1 if QUICK else 2
    )
    rows = []
    for n in SHARD_COUNTS:
        r = results[n]
        rows.append(
            [
                n,
                f"{r['throughput_eps']:.2f}",
                f"{r['sim_seconds']:.2f}",
                f"{r['throughput_eps'] / results[1]['throughput_eps']:.2f}x",
                r["network_bytes"],
            ]
        )
    report.table(
        f"Cluster scale-out: {NUM_ROOMS} rooms x {CLIENTS_PER_ROOM} viewers, "
        f"{EVENTS_PER_ROOM} choices/room, {SERVICE_RATE:.0f} ops/s per shard",
        ["shards", "events/sim-s", "makespan (s)", "speedup", "net bytes"],
        rows,
    )
    encodes = codec_after.get("codec.encodes", 0) - codec_before.get("codec.encodes", 0)
    saved = codec_after.get("codec.encodes_saved", 0) - codec_before.get(
        "codec.encodes_saved", 0
    )
    report.line(
        f"  codec across the sweep: {encodes} encodes, {saved} frame reuses "
        f"(fan-out + envelope embedding + retransmits)"
    )
    assert saved > 0  # the cluster paths share frames instead of re-encoding
    for n in SHARD_COUNTS:
        assert not results[n]["errors"], results[n]["errors"]
    # The acceptance claim: sharding buys real propagation throughput.
    assert results[2]["throughput_eps"] > results[1]["throughput_eps"]
    assert results[4]["throughput_eps"] > results[2]["throughput_eps"]


def test_scaleout_balances_rooms(report, tmp_path):
    result = run_scaleout(tmp_path, 4, "balance")
    rooms = result["rooms_by_shard"]
    report.line(f"  room placement across 4 shards: {rooms}")
    # The consistent-hash ring spreads rooms across shards without any
    # central allocation table. With only NUM_ROOMS keys the spread is
    # statistical, so assert no shard hoards the whole conference.
    assert len(rooms) >= 2
    assert max(rooms.values()) < NUM_ROOMS
    assert sum(rooms.values()) == NUM_ROOMS


def test_replication_keeps_up(report, tmp_path):
    """Replication drains fully at quiescence: every shipped op acked."""
    result = run_scaleout(tmp_path, 2, "repl")
    harness = result["harness"]
    shipped = acked = 0
    for shard in harness.shards.values():
        for log in shard._ship.values():
            shipped += log.shipped_seq
            acked += log.acked_seq
    report.line(f"  replication at quiescence: shipped={shipped} acked={acked}")
    assert shipped > 0
    assert acked == shipped


@pytest.mark.skipif(QUICK, reason="timing-only variant")
def test_gateway_overhead(benchmark, tmp_path):
    """Wall-clock cost of the 1-shard cluster (gateway routing included)."""
    benchmark.pedantic(run_scaleout, args=(tmp_path, 1, "overhead"), rounds=2)


def run_tiered(tmp_path, shards, gateways, tag):
    """One conference through the gateway tier with finite route capacity."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with obs.use_event_log(obs.EventLog()):
            db = Database(str(tmp_path / f"db-{tag}"))
            store = MultimediaObjectStore(db)
            result = run_cluster_conference(
                store,
                ClusterConfig(
                    shards=shards,
                    gateways=gateways,
                    route_rate=GW_ROUTE_RATE,
                    service_rate=SERVICE_RATE,
                ),
                num_rooms=GW_ROOMS,
                clients_per_room=CLIENTS_PER_ROOM,
                events_per_room=GW_EVENTS,
                seed=17,
            )
            db.close()
    assert not result["errors"], result["errors"]
    return result


def test_gateway_tier_scaleout(benchmark, report, tmp_path):
    """E16: widening the gateway tier buys real throughput.

    Eight shards, finite per-gateway routing capacity, 1/2/4 gateways:
    once shards stop being the bottleneck, the single gateway is — and
    adding gateway nodes must raise propagated choices per simulated
    second while the per-client route caches keep the directory off the
    data plane (hit rate stays above 90%).
    """
    results = {g: run_tiered(tmp_path, 8, g, f"gw{g}") for g in GW_SWEEP}
    benchmark.pedantic(
        run_tiered, args=(tmp_path, 8, 2, "gw-bench"), rounds=1 if QUICK else 2
    )
    rows = []
    for g in GW_SWEEP:
        r = results[g]
        cache = r["route_cache"]
        rows.append(
            [
                g,
                f"{r['throughput_eps']:.2f}",
                f"{r['sim_seconds']:.2f}",
                f"{r['throughput_eps'] / results[1]['throughput_eps']:.2f}x",
                f"{cache['hit_rate']:.3f}",
            ]
        )
    report.table(
        f"E16 gateway tier: 8 shards, {GW_ROOMS} rooms x {CLIENTS_PER_ROOM} "
        f"viewers, {GW_EVENTS} choices/room, {GW_ROUTE_RATE:.0f} env/s per "
        f"gateway",
        ["gateways", "events/sim-s", "makespan (s)", "speedup", "cache hit rate"],
        rows,
    )
    # The tier claim: gateway scale-out is monotone under a routing cap.
    assert results[2]["throughput_eps"] > results[1]["throughput_eps"]
    assert results[4]["throughput_eps"] > results[2]["throughput_eps"]
    for g in GW_SWEEP:
        assert results[g]["route_cache"]["hit_rate"] > GW_HIT_RATE_FLOOR


def test_gateway_ratio_guard(report, tmp_path):
    """Acceptance + CI gate: the full tier (8 shards x 4 gateways) beats
    the 4-shard single-gateway cluster by >= 1.7x on the same workload,
    with route-cache hit rate above 90%. Regenerate the snapshot with
    ``REPRO_UPDATE_GUARD=1``."""
    base = run_tiered(tmp_path, 4, 1, "guard-base")
    tier = run_tiered(tmp_path, 8, 4, "guard-tier")
    ratio = tier["throughput_eps"] / base["throughput_eps"]
    hit_rate = tier["route_cache"]["hit_rate"]
    report.line(
        f"  gateway guard: tier {tier['throughput_eps']:.2f} ev/s vs "
        f"baseline {base['throughput_eps']:.2f} ev/s = {ratio:.2f}x, "
        f"cache hit rate {hit_rate:.3f}"
    )
    assert ratio >= GW_RATIO_FLOOR, (
        f"gateway tier speedup {ratio:.2f}x below the {GW_RATIO_FLOOR}x floor"
    )
    assert hit_rate > GW_HIT_RATE_FLOOR, (
        f"route-cache hit rate {hit_rate:.3f} below {GW_HIT_RATE_FLOOR}"
    )
    current = {
        "rooms": GW_ROOMS,
        "events_per_room": GW_EVENTS,
        "route_rate": GW_ROUTE_RATE,
        "baseline_eps": round(base["throughput_eps"], 2),
        "tier_eps": round(tier["throughput_eps"], 2),
        "ratio": round(ratio, 2),
        "cache_hit_rate": round(hit_rate, 3),
    }
    if os.environ.get("REPRO_UPDATE_GUARD"):
        GW_GUARD_PATH.write_text(json.dumps(current, indent=2) + "\n")
        report.line(f"  gateway guard snapshot updated: {GW_GUARD_PATH}")
        return
    assert GW_GUARD_PATH.exists(), (
        "missing benchmarks/metrics/e11_gateway_guard.json — run once with "
        "REPRO_UPDATE_GUARD=1 and commit the snapshot"
    )
    snapshot = json.loads(GW_GUARD_PATH.read_text())
    assert snapshot["rooms"] == GW_ROOMS
    assert snapshot["events_per_room"] == GW_EVENTS
    assert snapshot["route_rate"] == GW_ROUTE_RATE
    floor = snapshot["ratio"] - GW_RATIO_TOLERANCE
    assert ratio >= floor, (
        f"gateway tier regression: {ratio:.2f}x below the snapshot "
        f"{snapshot['ratio']:.2f}x (-{GW_RATIO_TOLERANCE}); if intentional, "
        "regenerate with REPRO_UPDATE_GUARD=1"
    )
