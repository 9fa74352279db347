"""A tour of ``repro.obs.dtrace``: where did the 100 ms go?

A four-shard cluster runs two concurrent consultations with a 20 ms
propagation batch window, fully traced: every shared choice carries a
compact trace context on the wire, and every hop it crosses — the
uplink, the gateway's routing, the shard's serial queue, the batch
window, the downlink — records a timed span. The tour then reads the
result three ways:

1. the per-subscriber **delivery tree** for one traced choice, every
   hop named, ``← delivered`` marking each viewer's screen;
2. the **critical-path breakdown** for the slowest delivery — e2e time
   attributed to wire vs queueing vs batch window vs retransmit
   backoff;
3. the **latency histograms** tracing feeds: per-hop and per-room e2e
   p50/p99.

A second, chaos-afflicted room (25 % drop rate) shows retransmissions
appearing as attempt-numbered sibling spans under the hop they delayed.

Run:  python examples/dtrace_tour.py
"""

import tempfile

from repro import obs
from repro.chaos.plan import FaultPlan
from repro.cluster import ClusterConfig
from repro.db import Database, MultimediaObjectStore
from repro.obs.dtrace import (
    HOP_RETRANSMIT,
    DeliveryTracer,
    analyze_delivery,
    render_delivery_tree,
    use_dtrace,
)
from repro.obs.export import summary_quantile
from repro.workloads.chaos import run_chaos_conference
from repro.workloads.cluster import run_cluster_conference


def traced_cluster_run(workdir):
    """Four shards, two rooms, three viewers each, every root traced."""
    registry = obs.MetricsRegistry()
    db = Database(f"{workdir}/db")
    store = MultimediaObjectStore(db)
    try:
        with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
            tracer = DeliveryTracer(sample_every=1)
            with use_dtrace(tracer):
                result = run_cluster_conference(
                    store,
                    ClusterConfig(shards=4, service_rate=200.0, batch_window_s=0.02),
                    num_rooms=2,
                    clients_per_room=3,
                    events_per_room=4,
                )
    finally:
        db.close()
    assert result["errors"] == []
    return result, tracer, registry.snapshot()["histograms"]


def chaos_run(workdir):
    """Two shards under a 25% drop plan — retransmits become spans."""
    db = Database(f"{workdir}/db-chaos")
    store = MultimediaObjectStore(db)
    try:
        with obs.use_registry(obs.MetricsRegistry()), \
                obs.use_event_log(obs.EventLog()):
            tracer = DeliveryTracer(sample_every=1)
            with use_dtrace(tracer):
                result = run_chaos_conference(
                    store,
                    plan=FaultPlan(seed=3, drop_rate=0.25),
                    num_shards=2,
                    num_rooms=2,
                    clients_per_room=2,
                    events_per_room=4,
                    failure_timeout=30.0,
                )
    finally:
        db.close()
    assert result["errors"] == []
    return tracer


def main():
    with tempfile.TemporaryDirectory() as workdir:
        result, tracer, histograms = traced_cluster_run(workdir)

        print("== A healthy batched cluster, fully traced ==")
        print(
            f"{result['shards']} shards, {result['rooms']} rooms, "
            f"{len(result['displayed'])} viewers displayed, "
            f"{len(tracer.store)} traces held"
        )

        # 1. One delivery tree: a choice with several subscribers that
        # rode a real batch window.
        record = max(tracer.store, key=lambda r: len(r.deliveries))
        print("\n== Delivery tree for one traced choice ==")
        print(render_delivery_tree(record))

        # 2. Critical path of the slowest delivery in that trace.
        slowest = max(
            record.deliveries, key=lambda d: d["at"] - record.started_at
        )
        analysis = analyze_delivery(record, slowest)
        print(f"== Where {1000 * analysis['e2e']:.1f}ms of e2e went "
              f"(delivery to {slowest['node']}) ==")
        for category, seconds in sorted(
            analysis["categories"].items(), key=lambda kv: -kv[1]
        ):
            share = seconds / analysis["e2e"] if analysis["e2e"] else 0.0
            print(f"  {category:<18} {1000 * seconds:7.1f}ms  {share:5.1%}")
        print(f"  {'other':<18} {1000 * analysis['other']:7.1f}ms")

        # 3. The histograms tracing feeds.
        print("\n== Per-hop latency (all traced deliveries) ==")
        for key in sorted(k for k in histograms
                          if k.startswith("dtrace.hop.latency")):
            summary = histograms[key]
            print(
                f"  {key:<42} n={summary['count']:<4} "
                f"p50={1000 * summary_quantile(summary, 0.5):6.2f}ms "
                f"p99={1000 * summary_quantile(summary, 0.99):6.2f}ms"
            )
        print("== End-to-end latency per room ==")
        for key in sorted(k for k in histograms
                          if k.startswith("dtrace.e2e.latency")):
            summary = histograms[key]
            print(
                f"  {key:<42} n={summary['count']:<4} "
                f"p50={1000 * summary_quantile(summary, 0.5):6.2f}ms "
                f"p99={1000 * summary_quantile(summary, 0.99):6.2f}ms"
            )

        # 4. Chaos: retransmits surface as attempt-numbered siblings.
        chaos_tracer = chaos_run(workdir)
        retransmits = [
            span
            for rec in chaos_tracer.store
            for span in rec.spans
            if span.hop == HOP_RETRANSMIT
        ]
        print(f"\n== Under a 25% drop plan: {len(retransmits)} retransmit "
              "spans attached ==")
        traced = next(
            rec for rec in chaos_tracer.store
            if any(s.hop == HOP_RETRANSMIT for s in rec.spans)
        )
        print(render_delivery_tree(traced))


if __name__ == "__main__":
    main()
