"""From reps to a ledger row: the end-to-end metrics and the layer table.

A *rep* is the JSON one ``rep.py`` process printed. The work is
deterministic, so noise on this shared box is strictly additive — but it
comes in slow phases that last seconds, as long as a whole rep. Every rep
therefore cuts its timed window into the same short segments
(``workloads.py``), and every wall-clock statistic of the window is
**best-of by segment**: each segment's fastest time over the untraced
reps, summed (:func:`best_segments`). Set-up is one short step and takes
the plain best of the reps. The per-rep median and quartiles are stored
beside each value. Sim-clock and count metrics must be identical in every
rep — :func:`check_reps_agree` refuses to build a row otherwise.
"""

from __future__ import annotations

import statistics
from typing import Any

from layers import END_TO_END, LAYERS, SPANNED, per_layer_metrics

#: Op kinds of the closed loop whose median wall time the server layer reports.
OP_KINDS = ("choice", "operation_local", "operation_global", "annotate", "subscribe")


class LedgerError(Exception):
    """The reps cannot be turned into a row (nondeterminism, no reps)."""


def percentile(samples: list[float], q: float) -> float:
    """Exact linear-interpolation percentile over raw samples."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles of per-rep values (quartiles need two reps)."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _fingerprint(rep: dict[str, Any]) -> dict[str, int]:
    """What must not differ between reps of one workload and input."""
    out = rep["outcome"]
    return {
        "attempted": out["attempted"],
        "network_messages": out["network_messages"],
        "wire_bytes": out["wire_bytes"],
        "segments": len(out["segments_s"]),
    }


def check_reps_agree(workload: str, reps: list[dict[str, Any]]) -> None:
    prints = [_fingerprint(rep) for rep in reps]
    for counter in prints[0]:
        seen = {fingerprint[counter] for fingerprint in prints}
        if len(seen) > 1:
            raise LedgerError(
                f"{workload}: {counter} differs between reps of the same inputs "
                f"({sorted(seen)}); a nondeterministic row is never written"
            )


# ----- end to end --------------------------------------------------------------------


def best_segments(reps: list[dict[str, Any]]) -> list[float]:
    """Each segment's fastest wall time over the reps, in segment order."""
    return [min(times) for times in zip(*(rep["outcome"]["segments_s"] for rep in reps))]


def _op_segments(out: dict[str, Any], segments: list[float]) -> list[tuple[str, float]]:
    """(kind, seconds) of the closed loop's steps; joins and wrap-up left out."""
    return [
        (kind, seconds)
        for kind, seconds in zip(out["segment_kinds"], segments)
        if kind not in ("join", "collect")
    ]


def _wall_metric(name: str, out: dict[str, Any], segments: list[float]) -> float:
    """A metric of the timed window, from one rep's or the best segments."""
    if name == "ops_per_wall_s":
        return (out["attempted"] - len(out["violations"])) / sum(segments)
    steps = [seconds for _, seconds in _op_segments(out, segments)]
    return percentile(steps, 0.50 if name == "op_wall_ms_p50" else 0.99) * 1e3


def exact_metric(name: str, out: dict[str, Any]) -> float:
    """A sim-clock or count metric: the same in every rep of one input."""
    ops = out["attempted"]
    if name == "wire_bytes_per_op":
        return out["wire_bytes"] / ops
    if name == "failed_op_share":
        return len(out["violations"]) / ops
    if name == "events_per_sim_s":
        return out["events"] / out["event_phase_sim_s"]
    if name == "failover_sim_s":
        return max(out["failover_sim_s"], default=0.0)
    family, _, tail = name.rpartition("_p")
    samples = out["join_latency_s" if family == "join_sim_ms" else "response_s"]
    return percentile(samples, int(tail) / 100) * 1e3


def _bounded_metric(name: str, reps: list[dict[str, Any]]) -> float:
    """The reported value of a wall-clock or memory metric over *reps*."""
    if name == "setup_s":
        return min(rep["setup_s"] for rep in reps)  # one short step: plain best
    if name == "peak_rss_mb":
        # A level, not a timing: its noise is not additive.
        return statistics.median(rep["peak_rss_mb"] for rep in reps)
    return _wall_metric(name, reps[0]["outcome"], best_segments(reps))


def _per_rep(name: str, rep: dict[str, Any]) -> float:
    if name in ("setup_s", "peak_rss_mb"):
        return rep[name]
    return _wall_metric(name, rep["outcome"], rep["outcome"]["segments_s"])


def end_to_end(workload: str, reps: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """The end-to-end metrics reported on *workload*, from untraced reps.

    Beside each bounded value: the whole-rep median and quartiles (how
    noisy the box was), and ``split`` — the same statistic over the even
    and the odd reps alone, whose disagreement is how well the value
    itself is resolved (``compare.py``'s ``unresolved``).
    """
    metrics: dict[str, dict[str, Any]] = {}
    for metric in END_TO_END:
        if workload not in metric.on:
            continue  # absent, never 0
        entry: dict[str, Any] = {"unit": metric.unit, "better": metric.better}
        if metric.bound is None:
            entry["value"] = exact_metric(metric.name, reps[0]["outcome"])
        else:
            entry["value"] = _bounded_metric(metric.name, reps)
            entry.update(spread([_per_rep(metric.name, rep) for rep in reps]))
            pairs = len(reps) // 2  # equal halves: a best-of falls as n rises
            if pairs:
                entry["split"] = [
                    _bounded_metric(metric.name, reps[first : 2 * pairs : 2])
                    for first in (0, 1)
                ]
        metrics[metric.name] = entry
    return metrics


# ----- per layer ---------------------------------------------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    traced_reps: list[dict[str, Any]],
    default_reps: list[dict[str, Any]],
    null_reps: list[dict[str, Any]],
) -> dict[str, dict[str, Any]]:
    """The layer table of one workload.

    Span aggregates and counter ratios come from one traced rep: counts
    are the same in all of them, and the least disturbed one has the
    cleanest self times. The overheads compare best-of-by-segment walls
    across modes, over the same number of reps of each; the server
    layer's op split comes from the untraced reps, which never pay for
    tracing. *default_reps* are in round order, the traced rounds first.
    """
    traced = min(traced_reps, key=lambda rep: rep["wall_s"])
    out = traced["outcome"]
    ops = out["attempted"]
    counters = traced["counters"]
    calls = {layer: sum(by.values()) for layer, by in traced["trace"]["calls"].items()}
    self_s = {layer: sum(by.values()) for layer, by in traced["trace"]["self_s"].items()}
    attributed = sum(self_s.values())

    def count(name: str) -> float:
        return counters.get(name, 0)

    values: dict[str, float] = {}
    for layer in SPANNED:
        values[f"{layer.name}.calls"] = calls.get(layer.name, 0)
        values[f"{layer.name}.self_s"] = self_s.get(layer.name, 0.0)
        values[f"{layer.name}.self_share"] = _ratio(
            self_s.get(layer.name, 0.0), attributed
        )
    codec_calls = traced["trace"]["calls"].get("net.codec", {})
    encodes, reused = count("codec.encodes"), count("codec.encodes_saved")
    cache_hits, cache_misses = (
        count("cpnet.completion_cache.hits"), count("cpnet.completion_cache.misses")
    )
    route_hits, route_misses = (
        count("gateway.route_cache.hits"), count("gateway.route_cache.misses")
    )
    admitted = count("admission.accepted") + count("admission.deferred")
    filtered = count("interest.updates_filtered")
    values.update(
        {
            "client.deliveries_per_op": traced["trace"]["calls"]
            .get("client", {}).get("ClientModule.receive", 0) / ops,
            "net.codec.encodes_per_op": encodes / ops,
            "net.codec.bytes_encoded_per_op": count("codec.bytes_encoded") / ops,
            "net.codec.reuse_ratio": _ratio(reused, encodes + reused),
            "net.codec.shadow_size_calls_per_op": (
                codec_calls.get("encoded_size", 0) + codec_calls.get("value_size", 0)
            ) / ops,
            "net.network.messages_per_op": count("net.messages") / ops,
            "net.reliable.retries_per_op": count("net.retries") / ops,
            "net.reliable.dup_dropped_per_op": count("net.dup_dropped") / ops,
            "net.reliable.delivery_failed": count("net.delivery_failed"),
            "chaos.injected_per_op": count("chaos.injected") / ops,
            "cluster.gateway.route_cache_hit_ratio": _ratio(
                route_hits, route_hits + route_misses
            ),
            "cluster.gateway.routed_messages_per_op": count("gateway.routed_messages") / ops,
            "cluster.shard.queue_peak_depth": out["queue_peak_depth"],
            "cluster.shard.dup_ops_dropped": count("cluster.shard.dup_ops_dropped"),
            "cluster.admission.shed_share": _ratio(
                count("admission.shed"), admitted + count("admission.shed")
            ),
            "cluster.admission.deferred": count("admission.deferred"),
            "cluster.replication.ops_per_op": count("cluster.replication.ops") / ops,
            "cluster.replication.bytes_per_op": count("cluster.replication.bytes") / ops,
            "cpnet.sweeps_per_op": count("cpnet.compiled.completions") / ops,
            "cpnet.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
            "cpnet.compiles_per_op": count("cpnet.compile") / ops,
            "cpnet.invalidations_per_op": count("cpnet.completion_cache.invalidations") / ops,
            "document.calls_per_op": calls.get("document", 0) / ops,
            "interest.filtered_share": _ratio(
                filtered, filtered + count("server.propagation.updates")
            ),
            "db.queries_per_op": count("db.queries") / ops,
            "db.commits": count("db.transactions.committed"),
            "db.blob_bytes_read": count("db.blob.bytes_read"),
            "db.setup_self_s": sum(
                traced["trace"]["setup_self_s"].get("db", {}).values()
            ),
            "trace.attributed_share": attributed / traced["wall_s"],
        }
    )
    # Equal n on both sides (a best-of falls as n rises): the untraced
    # reps of the rounds in which all three modes ran back to back.
    rounds = len(traced_reps)
    best_default = sum(best_segments(default_reps[:rounds]))
    values["trace.overhead_share"] = sum(best_segments(traced_reps)) / best_default - 1
    if null_reps:
        values["obs.overhead_share"] = (
            1 - sum(best_segments(null_reps[:rounds])) / best_default
        )
    by_kind: dict[str, list[float]] = {}
    steps = _op_segments(default_reps[0]["outcome"], best_segments(default_reps))
    for kind, seconds in steps:
        by_kind.setdefault(kind, []).append(seconds)
    for kind in OP_KINDS:
        if kind in by_kind:
            values[f"server.op_ms.{kind}_p50"] = statistics.median(by_kind[kind]) * 1e3
    if steps:
        quarter = len(steps) // 4
        values["server.late_over_early"] = statistics.median(
            seconds for _, seconds in steps[-quarter:]
        ) / statistics.median(seconds for _, seconds in steps[:quarter])
    units = {metric.name: metric.unit for metric in per_layer_metrics()}
    return {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }


# ----- rows --------------------------------------------------------------------------


def workload_row(
    workload: str, reps: dict[str, list[dict[str, Any]]]
) -> dict[str, Any]:
    """One workload's part of a ledger row from its reps, keyed by mode."""
    default_reps = reps.get("default", [])
    if not default_reps:
        raise LedgerError(f"{workload}: no untraced rep to take end-to-end numbers from")
    all_reps = [rep for mode in reps.values() for rep in mode]
    check_reps_agree(workload, all_reps)
    out = default_reps[0]["outcome"]
    # A traced or NullRegistry rep that breaks a check fails the row too.
    violations = sorted({v for rep in all_reps for v in rep["outcome"]["violations"]})
    row: dict[str, Any] = {
        "ops": out["attempted"] - len(out["violations"]),
        "attempted": out["attempted"],
        "failed": max(len(rep["outcome"]["violations"]) for rep in all_reps),
        "violations": violations[:20],
        "network_messages": out["network_messages"],
        "wire_bytes": out["wire_bytes"],
        "wall_s": {
            "best": sum(best_segments(default_reps)),
            **spread([rep["wall_s"] for rep in default_reps]),
        },
        "end_to_end": end_to_end(workload, default_reps),
    }
    if reps.get("traced"):
        row["per_layer"] = per_layer(
            reps["traced"], default_reps, reps.get("null", [])
        )
    return row


def layer_table(row: dict[str, Any]) -> list[str]:
    """The per-layer table of one workload row as printable lines."""
    extras = {metric.name for layer in LAYERS for metric in layer.extras}
    lines = [f"    {'layer':<20} {'calls':>9} {'self_s':>9} {'share':>7}"]
    per = row["per_layer"]
    for layer in sorted(
        SPANNED, key=lambda l: -per[f"{l.name}.self_s"]["value"]
    ):
        lines.append(
            f"    {layer.name:<20} {per[f'{layer.name}.calls']['value']:>9.0f} "
            f"{per[f'{layer.name}.self_s']['value']:>9.4f} "
            f"{per[f'{layer.name}.self_share']['value']:>7.1%}"
        )
    for name, entry in per.items():
        if name in extras:
            lines.append(f"    {name:<44} {entry['value']:>14.4f} {entry['unit']}")
    return lines


def metric_lines(row: dict[str, Any]) -> list[str]:
    """The end-to-end metrics of one workload row as printable lines."""
    lines = []
    for name, entry in row["end_to_end"].items():
        line = f"    {name:<24} {entry['value']:>16.4f} {entry['unit']:<8}"
        if "median" in entry:
            line += (
                f" median {entry['median']:.4f}  q1..q3 {entry['q1']:.4f}.."
                f"{entry['q3']:.4f}  n={entry['n']}"
            )
        lines.append(line)
    return lines
