"""The layer table: boundaries, per-layer metrics and what each should move.

Layers are this repo's modules. A layer's *boundary* is the set of public
callables the outside-in tracer wraps (``tracer.py``); its *moves* say
which end-to-end metric on which workload an optimisation of that layer
is expected to move — written down before anything was measured, so a
later claim can be checked against it. Everything here is data: the
numbers are computed in ``ledger.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOAD_NAMES = ("megaconf_day", "cluster_rooms", "edit_storm", "chaos_repair")
ALL = WORKLOAD_NAMES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"


@dataclass(frozen=True)
class Layer:
    name: str
    #: (module, class name or None for module functions, callables).
    boundary: tuple[tuple[str, str | None, tuple[str, ...]], ...]
    #: (end-to-end metric, workloads it should move on).
    moves: tuple[tuple[str, tuple[str, ...]], ...]
    extras: tuple[Metric, ...] = ()
    #: Why ``moves`` is empty, or where the layer must *not* show.
    note: str = ""


def _count(name: str, better: str = "lower") -> Metric:
    return Metric(name, "count", better)


def _ratio(name: str, better: str) -> Metric:
    return Metric(name, "ratio", better)


LAYERS: tuple[Layer, ...] = (
    Layer(
        "client",
        (
            (
                "repro.client.client",
                "ClientModule",
                ("receive", "join", "leave", "choose", "operate", "annotate",
                 "subscribe", "unsubscribe"),
            ),
        ),
        (("ops_per_wall_s", ("megaconf_day",)),),
        (_count("client.deliveries_per_op"),),
    ),
    Layer(
        "net.codec",
        (
            (
                "repro.net.codec",
                None,
                ("encode_message", "decode_message", "decode_message_traced",
                 "encode_envelope", "decode_envelope", "decode_envelope_traced",
                 "encode_batch", "decode_batch", "decode_batch_traced",
                 "stamp_frame", "value_size"),
            ),
            ("repro.server.protocol", None, ("encoded_size",)),
        ),
        (("ops_per_wall_s", ALL),),
        (
            _count("net.codec.encodes_per_op"),
            Metric("net.codec.bytes_encoded_per_op", "bytes", "lower"),
            _ratio("net.codec.reuse_ratio", "higher"),
            # ROADMAP item 2a's shadow encodes, counted from outside:
            # encoded_size/value_size calls, invisible to codec.encodes.
            _count("net.codec.shadow_size_calls_per_op"),
        ),
        note="most on megaconf_day (fan-out 96); wire_bytes_per_op must not move",
    ),
    Layer(
        "net.network",
        (("repro.net.network", "SimulatedNetwork", ("send",)),),
        (("ops_per_wall_s", ("cluster_rooms",)),),
        (_count("net.network.messages_per_op"),),
    ),
    Layer(
        "net.simclock",
        (("repro.net.simclock", "SimClock", ("run", "run_until", "step")),),
        (("ops_per_wall_s", ALL),),
        note="root spans (the workloads drive step() themselves to cut the run "
        "into segments): self time is scheduler overhead",
    ),
    Layer(
        "net.reliable",
        (
            (
                "repro.net.reliable",
                "ReliableTransport",
                ("prepare", "on_ack", "verify", "on_frame"),
            ),
        ),
        (
            ("ops_per_wall_s", ("chaos_repair",)),
            ("wire_bytes_per_op", ("chaos_repair",)),
        ),
        (
            _count("net.reliable.retries_per_op"),
            _count("net.reliable.dup_dropped_per_op"),
            _count("net.reliable.delivery_failed"),
        ),
        note="exactly 0 outside chaos_repair",
    ),
    Layer(
        "net.batch",
        (("repro.net.batch", "Batcher", ("send", "flush")),),
        (("ops_per_wall_s", ("cluster_rooms",)),),
    ),
    Layer(
        "chaos",
        (("repro.chaos.plan", "FaultPlan", ("decide",)),),
        (),
        (_count("chaos.injected_per_op"),),
        note="none: the cost of the fault injector itself",
    ),
    Layer(
        "cluster.gateway",
        (
            ("repro.cluster.gatewaytier", "GatewayNode", ("receive",)),
            ("repro.cluster.gatewaytier", "GatewayDirectory", ("receive",)),
            ("repro.cluster.gateway", "Gateway", ("receive",)),
        ),
        (
            ("ops_per_wall_s", ("cluster_rooms",)),
            ("events_per_sim_s", ("cluster_rooms",)),
        ),
        (
            _ratio("cluster.gateway.route_cache_hit_ratio", "higher"),
            _count("cluster.gateway.routed_messages_per_op"),
        ),
    ),
    Layer(
        "cluster.shard",
        (
            ("repro.cluster.shard", "ShardServer", ("receive", "route_to_client")),
            ("repro.cluster.shard", "ServiceQueue", ("submit",)),
        ),
        (
            ("ops_per_wall_s", ("cluster_rooms",)),
            ("join_sim_ms_p95", ("megaconf_day",)),
        ),
        (
            _count("cluster.shard.queue_peak_depth"),
            _count("cluster.shard.dup_ops_dropped"),
        ),
    ),
    Layer(
        "cluster.admission",
        (("repro.cluster.admission", "AdmissionController", ("admit", "pump")),),
        (("join_sim_ms_p95", ("megaconf_day",)),),
        (
            _ratio("cluster.admission.shed_share", "lower"),
            _count("cluster.admission.deferred"),
        ),
        note="exactly 0 outside megaconf_day",
    ),
    Layer(
        "cluster.replication",
        (
            ("repro.cluster.replication", "ShipLog", ("append", "mark_acked")),
            ("repro.cluster.replication", "ReplicaState", ("offer", "promote")),
        ),
        (
            ("failover_sim_s", ("chaos_repair",)),
            ("peak_rss_mb", ("edit_storm",)),
        ),
        (
            _count("cluster.replication.ops_per_op"),
            Metric("cluster.replication.bytes_per_op", "bytes", "lower"),
        ),
    ),
    Layer(
        "server",
        (
            (
                "repro.server.interaction",
                "InteractionServer",
                ("receive", "join_room", "leave_room", "handle_choice",
                 "handle_operation", "handle_annotation", "handle_subscribe",
                 "handle_unsubscribe", "fetch_component_payload"),
            ),
        ),
        (
            ("ops_per_wall_s", ("cluster_rooms",)),
            ("op_wall_ms_p50", ("edit_storm",)),
        ),
        (
            # Untraced per-kind split of the closed loop's op timings.
            Metric("server.op_ms.choice_p50", "ms", "lower"),
            Metric("server.op_ms.operation_local_p50", "ms", "lower"),
            Metric("server.op_ms.operation_global_p50", "ms", "lower"),
            Metric("server.op_ms.annotate_p50", "ms", "lower"),
            Metric("server.op_ms.subscribe_p50", "ms", "lower"),
            # Median op time of the last quarter over the first quarter:
            # growth with conference length (feeds ROADMAP items 4-5).
            _ratio("server.late_over_early", "lower"),
        ),
        note="the extras exist on the closed loop (edit_storm) only",
    ),
    Layer(
        "presentation",
        (
            (
                "repro.presentation.engine",
                "PresentationEngine",
                ("presentation_for", "presentations", "apply_choice",
                 "apply_operation", "register_viewer", "unregister_viewer"),
            ),
        ),
        (("op_wall_ms_p50", ("edit_storm",)),),
    ),
    Layer(
        "cpnet",
        (
            ("repro.cpnet.compiled", "CompiledCPNet", ("best_completion",)),
            ("repro.cpnet.compiled", "CompiledExtension", ("best_completion",)),
            ("repro.cpnet.compiled", None, ("compile_cpnet", "compile_extension")),
            (
                "repro.cpnet.compiled",
                "CompletionCache",
                ("lookup", "store", "invalidate"),
            ),
        ),
        (("op_wall_ms_p99", ("edit_storm",)),),
        (
            _count("cpnet.sweeps_per_op"),
            _ratio("cpnet.cache_hit_ratio", "higher"),
            _count("cpnet.compiles_per_op"),
            _count("cpnet.invalidations_per_op"),
        ),
        note="no move on chaos_repair",
    ),
    Layer(
        "document",
        (
            (
                "repro.document.document",
                "MultimediaDocument",
                ("components", "component_paths", "visible_components",
                 "presentation_bytes", "default_presentation",
                 "reconfig_presentation"),
            ),
        ),
        (
            ("op_wall_ms_p50", ("edit_storm",)),
            ("ops_per_wall_s", ("edit_storm",)),
        ),
        (_count("document.calls_per_op"),),
        note="ROADMAP item 2b",
    ),
    Layer(
        "interest",
        (
            (
                "repro.interest.registry",
                "InterestRegistry",
                ("covers", "filter_delta", "subscribe", "unsubscribe", "seed"),
            ),
        ),
        (("wire_bytes_per_op", ("edit_storm",)),),
        (_ratio("interest.filtered_share", "higher"),),
        note="filters nothing outside edit_storm (interest_mode off: only the "
        "unfiltered fast path runs)",
    ),
    Layer(
        "db",
        (
            (
                "repro.db.orm",
                "MultimediaObjectStore",
                ("store_document", "fetch_document", "fetch"),
            ),
        ),
        (
            ("setup_s", ALL),
            ("ops_per_wall_s", ("megaconf_day",)),
        ),
        (
            _count("db.queries_per_op"),
            _count("db.commits"),
            Metric("db.blob_bytes_read", "bytes", "lower"),
            # Self time of the db layer inside set-up (store_document),
            # which the run-window table cannot show.
            Metric("db.setup_self_s", "s", "lower"),
        ),
        note="fetch on room open is what reaches ops_per_wall_s",
    ),
    Layer(
        "obs",
        (),
        (("ops_per_wall_s", ALL),),
        (_ratio("obs.overhead_share", "lower"),),
        note="not spanned: one extra untraced rep under obs.NullRegistry; "
        "all workloads equally (ROADMAP item 6's <= 5%)",
    ),
    Layer(
        "trace",
        (),
        (),
        (
            _ratio("trace.overhead_share", "lower"),
            _ratio("trace.attributed_share", "higher"),
        ),
        note="none: the cost of measuring",
    ),
)

#: Layers the tracer spans (the rest are measured some other way).
SPANNED = tuple(layer for layer in LAYERS if layer.boundary)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Allowed worsening between two rows of the same seed, as a share of
    #: the older value (set from how far two rows of the same code moved
    #: on this box: up to 12%); ``None`` marks a sim-clock or count metric
    #: that must repeat exactly (``EXACT_GRACE`` allows for a real change).
    bound: float | None
    #: Workloads whose ledger row reports the metric.
    on: tuple[str, ...]
    definition: str
    #: Bound under which ``BENCHMARK.json`` gates the metric; ``None`` =
    #: not gated there. The pipeline reports a gated metric on every
    #: workload, runs ten seeds and requires their interquartile spread to
    #: stay inside the bound, so only a metric that exists and is never 0
    #: on all four workloads can be gated, and no tighter than three times
    #: its spread across seeds (README, "What BENCHMARK.json gates").
    gate: float | None = None


EXACT_GRACE = 0.01

END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "wall time of setup: db open + record store + harness + client attach",
             gate=0.25),
    # 0.25, not the row's 0.15: a whole pipeline invocation can fall into
    # one of this box's minutes-long slow periods, which a ledger run can
    # simply repeat but the pipeline cannot.
    EndToEnd("ops_per_wall_s", "1/s", "higher", 0.15, ALL,
             "ops completed without failure / wall seconds of run", gate=0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05, ALL,
             "ru_maxrss of the workload's subprocess", gate=0.05),
    # Exact for one seed; between the quartiles of ten seeds it moves
    # 3.2-5.6% (cluster_rooms) and 5.8-7.1% (edit_storm).
    EndToEnd("wire_bytes_per_op", "bytes", "lower", None, ALL,
             "network.stats.bytes_total / ops", gate=0.22),
    EndToEnd("failed_op_share", "ratio", "lower", None, ALL,
             "correctness violations / ops attempted"),
    # Joins come before anything the seed draws: identical on every seed.
    EndToEnd("join_sim_ms_p50", "sim_ms", "lower", None, ("megaconf_day",),
             "client.join_latency over all joins", gate=0.01),
    EndToEnd("join_sim_ms_p95", "sim_ms", "lower", None, ("megaconf_day",),
             "client.join_latency over all joins (14 samples beyond p95)", gate=0.01),
    # 6.6-7.1% (cluster_rooms) and 4.8-6.1% (edit_storm) across ten seeds.
    EndToEnd("events_per_sim_s", "1/sim_s", "higher", None, ("cluster_rooms",),
             "choices / simulated makespan of the choice phase", gate=0.25),
    EndToEnd("op_wall_ms_p50", "ms", "lower", 0.15, ("edit_storm",),
             "wall time from issuing one op to quiescence, median"),
    EndToEnd("op_wall_ms_p99", "ms", "lower", 0.20, ("edit_storm",),
             "wall time from issuing one op to quiescence, p99 (12 beyond)"),
    # 1.0-1.9% (cluster_rooms) and 0.1% (edit_storm) across ten seeds.
    EndToEnd("response_sim_ms_p50", "sim_ms", "lower", None, ("edit_storm",),
             "client.response_times: action -> first update at the actor", gate=0.06),
    # The seeds move it 28-47% on edit_storm: past any bound the pipeline allows.
    EndToEnd("response_sim_ms_p95", "sim_ms", "lower", None, ("edit_storm",),
             "client.response_times: action -> first update at the actor"),
    EndToEnd("failover_sim_s", "sim_s", "lower", None, ("chaos_repair",),
             "worst fail-stop instant -> failover completed over the plans"),
)

END_TO_END_BY_NAME = {metric.name: metric for metric in END_TO_END}
GATED = tuple(metric for metric in END_TO_END if metric.gate is not None)
UNGATED = tuple(metric for metric in END_TO_END if metric.gate is None)


def span_metrics(layer: Layer) -> tuple[Metric, ...]:
    """The three numbers every spanned layer reports."""
    return (
        _count(f"{layer.name}.calls"),
        Metric(f"{layer.name}.self_s", "s", "lower"),
        _ratio(f"{layer.name}.self_share", "lower"),
    )


def per_layer_metrics() -> tuple[Metric, ...]:
    """Every per-layer metric of the ledger, in table order."""
    out: list[Metric] = []
    for layer in LAYERS:
        if layer.boundary:
            out.extend(span_metrics(layer))
        out.extend(layer.extras)
    return tuple(out)


WORKLOAD_WHY = {
    "megaconf_day": "open-loop join/leave churn and a 96-member keynote fan-out: "
    "admission, db fetch on join, room lifecycle and encode-once fan-out carry it",
    "cluster_rooms": "32 rooms of 4 behind 8 shards and 4 gateways: per-message "
    "routing, queueing and replication cost; fan-out 4 bypasses fan-out-only wins",
    "edit_storm": "closed loop of choices beside local/global operations, annotations "
    "and subscribe churn: document, cpnet and presentation are ~40% of the run",
    "chaos_repair": "8 fault-injected conferences with shard and gateway crashes: "
    "the only workload with reliable delivery, repair and failover cost",
}


def benchmark_contract(run_seconds: int) -> dict[str, object]:
    """What ``BENCHMARK.json`` must say, derived from the tables above.

    Only :data:`GATED` can go under ``end_to_end`` (see
    :attr:`EndToEnd.gate`); the rest ride along with the layer table
    (``--trace 1``, no bound).
    """
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": WORKLOAD_WHY[name]} for name in WORKLOAD_NAMES
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.gate}
            for m in GATED
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in (*per_layer_metrics(), *UNGATED)
        ],
    }
