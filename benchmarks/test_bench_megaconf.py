"""E17 / admission control — the mega-conference keynote flash crowd.

A conference day from a declarative schedule: parallel tracks at a
steady join rate, session-boundary migration, then a keynote that packs
every attendee into one room inside a quarter-second window — a >=10x
join-rate flash crowd aimed at a single shard with finite service
capacity. The claims under guard:

* with admission control the keynote's p99 join latency stays bounded
  (deferral, not unbounded queueing) and **zero** control-plane messages
  are shed;
* the guarded service queue's peak depth stays pinned by the shed
  threshold, strictly below the unguarded run's pile-up on the same
  workload;
* propagation latency (actor send -> every member display, via delivery
  tracing) stays measurable through the crowd, and the backoff a
  ``RETRY_AFTER`` bounce imposes shows up as an explicit ``shed_wait``
  hop on the op's critical path instead of invisible wait.

The committed snapshot (``benchmarks/metrics/e17_admission_guard.json``)
turns the keynote p99 into a CI regression gate; regenerate it with
``REPRO_UPDATE_GUARD=1``.
"""

import json
import os
from contextlib import nullcontext
from pathlib import Path

from conftest import QUICK

from repro import obs
from repro.cluster import AdmissionConfig, ClusterConfig
from repro.db import Database, MultimediaObjectStore
from repro.workloads.megaconf import build_conference_schedule, run_megaconf

GUARD_PATH = Path(__file__).parent / "metrics" / "e17_admission_guard.json"

# The guard scenario is pinned (not QUICK-scaled) so the committed
# snapshot always measures the same conference; one day is sub-second.
MC_TRACKS = 4
MC_WAVES = 2
MC_ATTENDEES_PER_SESSION = 6          # 24 attendees total
MC_SESSION_S = 4.0
MC_JOIN_WINDOW_S = 3.0                # steady state: 8 joins/s
MC_KEYNOTE_WINDOW_S = 0.25            # keynote: 96 joins/s — a 12x crowd
MC_KEYNOTE_S = 8.0
MC_EVENTS = 4
MC_KEYNOTE_EVENTS = 8
MC_SERVICE_RATE = 60.0                # ops/s per shard: the keynote overloads
# depth_shed=16 is deliberately tight so the keynote's fetch storm sheds
# real data ops — the guard covers both lanes firing, not just deferral.
MC_ADMISSION = AdmissionConfig(
    depth_defer=8, depth_shed=16, defer_limit=256, retry_after_s=0.25
)
# Near-zero headroom for the shed_wait attribution run: with the gate at
# depth 2 the keynote sheds traced *choices*, not just untraced reads.
TIGHT_ADMISSION = AdmissionConfig(
    depth_defer=2, depth_shed=2, defer_limit=1024, retry_after_s=0.25
)

#: Hard acceptance ceiling on keynote p99 join latency under admission.
P99_JOIN_CEILING_S = 4.0
#: Allowed slip over the committed snapshot before CI fails.
GUARD_TOLERANCE_S = 0.25
#: Control-plane ops (ACKs, LEAVEs, routing) are never gated, so the
#: guarded queue can exceed ``depth_shed`` by control traffic in flight.
CONTROL_SLACK = 16


def conference_schedule():
    return build_conference_schedule(
        tracks=MC_TRACKS,
        slots_per_track=MC_WAVES,
        attendees_per_session=MC_ATTENDEES_PER_SESSION,
        session_s=MC_SESSION_S,
        join_window_s=MC_JOIN_WINDOW_S,
        keynote_window_s=MC_KEYNOTE_WINDOW_S,
        keynote_s=MC_KEYNOTE_S,
        events_per_session=MC_EVENTS,
        keynote_events=MC_KEYNOTE_EVENTS,
    )


def run_day(tmp_path, tag, admission, tracing=False):
    """One pinned conference day in an isolated registry."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        tracer = (
            obs.use_dtrace(obs.DeliveryTracer(sample_every=1))
            if tracing
            else nullcontext()
        )
        db = Database(str(tmp_path / f"db-{tag}"))
        store = MultimediaObjectStore(db)
        config = ClusterConfig(
            shards=4,
            gateways=2,
            service_rate=MC_SERVICE_RATE,
            admission=admission,
        )
        try:
            with tracer:
                result = run_megaconf(
                    store, conference_schedule(), config=config, seed=17
                )
        finally:
            db.close()
        result["histograms"] = registry.snapshot()["histograms"]
    return result


def _e2e_rooms(histograms):
    """Per-room e2e latency summaries from one traced run's snapshot."""
    return {
        name: summary
        for name, summary in histograms.items()
        if name.startswith("dtrace.e2e.latency{") and summary["count"]
    }


def _merged_quantiles(summaries, qs=(0.5, 0.99)):
    """Quantiles over several same-bounds histogram summaries merged."""
    from repro.obs.metrics import quantile_from_buckets

    merged = None
    bounds = None
    total = 0
    lo = hi = None
    for summary in summaries:
        bounds = summary["bounds"]
        counts = summary["bucket_counts"]
        merged = (
            list(counts)
            if merged is None
            else [a + b for a, b in zip(merged, counts)]
        )
        total += summary["count"]
        if summary["min"] is not None:
            lo = summary["min"] if lo is None else min(lo, summary["min"])
        if summary["max"] is not None:
            hi = summary["max"] if hi is None else max(hi, summary["max"])
    if not total:
        return None, 0
    return (
        {q: quantile_from_buckets(bounds, merged, total, lo, hi, q) for q in qs},
        total,
    )


def test_admission_guard(report, tmp_path):
    """Acceptance + CI gate: bounded keynote joins, zero control sheds.

    The same pinned day runs guarded and unguarded. Guarded: keynote p99
    join under the ceiling, both lanes demonstrably firing (JOIN deferral
    *and* data shedding), zero control-plane sheds, zero residue, every
    join and every shed op eventually lands. Unguarded: the same crowd
    piles the owning shard's queue strictly deeper — the pile-up
    admission exists to prevent. Regenerate the snapshot with
    ``REPRO_UPDATE_GUARD=1``.
    """
    schedule = conference_schedule()
    assert schedule.keynote_join_ratio >= 10.0, (
        f"flash crowd is only {schedule.keynote_join_ratio:.1f}x steady state"
    )
    on = run_day(tmp_path, "guard-on", MC_ADMISSION)
    off = run_day(tmp_path, "guard-off", None)
    rows = []
    for label, result in (("admission", on), ("unguarded", off)):
        for phase in ("track", "keynote"):
            lat = result["join_latency"][phase]
            rows.append(
                [
                    label,
                    phase,
                    lat["n"],
                    f"{lat['p50'] * 1000:.1f}",
                    f"{lat['p99'] * 1000:.1f}",
                    max(result["queue_max_pending"].values()),
                ]
            )
    report.table(
        f"E17 mega-conference: {len(schedule.attendees)} attendees, "
        f"{MC_TRACKS} tracks x {MC_WAVES} waves, keynote "
        f"{schedule.keynote.join_rate:.0f} joins/s "
        f"({schedule.keynote_join_ratio:.0f}x steady), "
        f"{MC_SERVICE_RATE:.0f} ops/s per shard",
        ["run", "phase", "joins", "p50 (ms)", "p99 (ms)", "peak queue"],
        rows,
    )
    adm = on["admission"]
    report.line(
        f"  admission: {adm['accepted']} accepted, {adm['deferred']} deferred, "
        f"{adm['shed']} shed ({adm['shed_by_lane']}), "
        f"{on['retry_afters']} client retries honored"
    )
    # Every attendee of every session eventually joined, cleanly.
    assert on["errors"] == [], on["errors"]
    assert on["late_joins"] == 0
    # The flash crowd demonstrably tripped both pressure valves...
    assert adm["deferred"] > 0
    assert adm["shed_by_lane"].get("data", 0) > 0
    assert on["retry_afters"] > 0
    # ...the control plane never paid for it, and nothing leaked.
    assert adm["control_shed"] == 0
    assert adm["parked_residue"] == 0
    keynote_p99 = on["join_latency"]["keynote"]["p99"]
    assert keynote_p99 <= P99_JOIN_CEILING_S, (
        f"keynote p99 join {keynote_p99:.2f}s breaches the "
        f"{P99_JOIN_CEILING_S:.1f}s ceiling"
    )
    # Bounded queues: the guarded peak is pinned by the shed threshold
    # (plus ungated control traffic); the unguarded run piles the same
    # crowd strictly deeper.
    peak_on = max(on["queue_max_pending"].values())
    peak_off = max(off["queue_max_pending"].values())
    assert peak_on <= MC_ADMISSION.depth_shed + CONTROL_SLACK
    assert peak_off > peak_on, (
        f"unguarded peak {peak_off} should exceed guarded peak {peak_on}"
    )
    current = {
        "attendees": len(schedule.attendees),
        "tracks": MC_TRACKS,
        "waves": MC_WAVES,
        "service_rate": MC_SERVICE_RATE,
        "keynote_join_rate": round(schedule.keynote.join_rate, 1),
        "keynote_ratio": round(schedule.keynote_join_ratio, 1),
        "keynote_p99_join_s": round(keynote_p99, 4),
        "track_p99_join_s": round(on["join_latency"]["track"]["p99"], 4),
        "deferred": adm["deferred"],
        "shed_data": adm["shed_by_lane"].get("data", 0),
        "peak_queue_guarded": peak_on,
        "peak_queue_unguarded": peak_off,
    }
    if os.environ.get("REPRO_UPDATE_GUARD"):
        GUARD_PATH.write_text(json.dumps(current, indent=2) + "\n")
        report.line(f"  admission guard snapshot updated: {GUARD_PATH}")
        return
    assert GUARD_PATH.exists(), (
        "missing benchmarks/metrics/e17_admission_guard.json — run once with "
        "REPRO_UPDATE_GUARD=1 and commit the snapshot"
    )
    snapshot = json.loads(GUARD_PATH.read_text())
    assert snapshot["attendees"] == current["attendees"]
    assert snapshot["service_rate"] == MC_SERVICE_RATE
    assert snapshot["keynote_ratio"] == current["keynote_ratio"]
    limit = snapshot["keynote_p99_join_s"] + GUARD_TOLERANCE_S
    assert keynote_p99 <= limit, (
        f"keynote p99 join regression: {keynote_p99:.3f}s over the snapshot "
        f"{snapshot['keynote_p99_join_s']:.3f}s (+{GUARD_TOLERANCE_S}s); if "
        "intentional, regenerate with REPRO_UPDATE_GUARD=1"
    )


def test_propagation_through_the_crowd(report, tmp_path):
    """Traced day: keynote propagation p50/p99 through the flash crowd.

    Full-sampling delivery tracing across the day. Closed rooms retire
    their e2e histograms with them (PR 7 lifecycle hygiene), so the
    snapshot at end of day holds exactly the rooms still open — only the
    keynote, whose speaker fans every event out to the whole crowd
    through the loaded shard. Hop-level histograms persist for the whole
    conference and attribute where propagation time went.
    """
    result = run_day(tmp_path, "traced", MC_ADMISSION, tracing=True)
    assert result["errors"] == []
    rooms = _e2e_rooms(result["histograms"])
    # Track rooms closed when their attendees migrated out; the keynote
    # never closes, so it is the sole surviving e2e series.
    assert len(rooms) == 1, sorted(rooms)
    merged, deliveries = _merged_quantiles(rooms.values())
    keynote = next(iter(rooms.values()))
    report.table(
        "E17 propagation latency (actor send -> member display)",
        ["scope", "deliveries", "p50 (ms)", "p99 (ms)"],
        [
            [
                "keynote room",
                keynote["count"],
                f"{merged[0.5] * 1000:.1f}",
                f"{merged[0.99] * 1000:.1f}",
            ]
        ],
    )
    hops = {
        name: summary
        for name, summary in result["histograms"].items()
        if name.startswith("dtrace.hop.latency{") and summary["count"]
    }
    report.table(
        "E17 critical-path hops (whole conference)",
        ["hop", "spans", "p99 (ms)"],
        [
            [name.split('"')[1], s["count"], f"{s['p99'] * 1000:.1f}"]
            for name, s in sorted(hops.items())
        ],
    )
    # every keynote event reached (nearly) the whole crowd
    attendees = len(conference_schedule().attendees)
    assert deliveries >= MC_KEYNOTE_EVENTS * (attendees - 2)
    assert merged[0.99] > 0.0


def test_shed_backoff_is_traced_as_shed_wait(report, tmp_path):
    """The wait a bounce imposes is attributable, not invisible.

    With the admission gate tightened to near-zero headroom the keynote
    sheds traced *choices*; the client's honored backoff must then
    surface in the delivery trace as a ``shed_wait`` hop (categorized as
    queueing on the critical path) — so an operator reading E2E latency
    can tell admission-imposed wait from wire time.
    """
    result = run_day(tmp_path, "shedwait", TIGHT_ADMISSION, tracing=True)
    assert result["errors"] == []
    shed_choices = sum(
        client.retry_afters.get("choice", 0)
        for client in result["harness"].clients.values()
    )
    shed_wait = result["histograms"].get('dtrace.hop.latency{hop="shed_wait"}')
    report.line(
        f"  {shed_choices} traced choices shed; shed_wait hops: "
        f"{shed_wait['count']} (p99 {shed_wait['p99'] * 1000:.1f} ms)"
        if shed_wait
        else f"  {shed_choices} traced choices shed; shed_wait hops: 0"
    )
    assert shed_choices > 0, "the tight gate never shed a traced op"
    assert shed_wait is not None and shed_wait["count"] > 0
    # The hop carries the actual honored backoff, which is floored by
    # the controller's retry_after_s hint.
    assert shed_wait["p99"] >= TIGHT_ADMISSION.retry_after_s
    # Overload plus retry must still end the day clean.
    assert result["late_joins"] == 0
    assert result["admission"]["control_shed"] == 0
    assert result["admission"]["parked_residue"] == 0


def test_flash_crowd_throughput(benchmark, tmp_path):
    """Wall-clock cost of one guarded conference day."""
    benchmark.pedantic(
        run_day,
        args=(tmp_path, "bench", MC_ADMISSION),
        rounds=1 if QUICK else 2,
    )
