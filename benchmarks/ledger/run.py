"""The conference ledger: whole-run wall-clock numbers with a per-layer trace.

Two ways in, one measurement underneath (``rep.py``: one rep of one
workload per process, single-threaded, network on the simulated clock):

* **Ledger** — ``PYTHONPATH=src python benchmarks/ledger/run.py --seed 17``
  runs all four workloads for ``--reps`` untraced rounds (interleaved
  round-robin, so a noisy period on this shared box hits all four alike),
  the first ``TRACE_ROUNDS`` of them with a traced and a ``NullRegistry``
  rep as well; prints every metric by name with its unit and writes the
  row to ``rows/BENCH_<pr>.json``.
* **Pipeline** — ``run.py --workload W --seed N --seconds S --trace 0|1``
  (the ``BENCHMARK.json`` contract): the reps of one workload that S
  seconds pay for; the last line of stdout is one JSON object with the
  gated end-to-end metrics (``--trace 0``) or the layer table (``--trace 1``).

Both exit non-zero when a correctness check fails, after printing.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
from layers import (  # noqa: E402
    GATED, UNGATED, WORKLOAD_NAMES, EndToEnd, per_layer_metrics,
)
from rep import SRC  # noqa: E402

PR = 11
ROWS = HERE / "rows"
#: Rounds of a ledger run that also run a traced and a ``NullRegistry`` rep.
TRACE_ROUNDS = 3
#: What one untraced rep costs at PR 11 on a quiet box, process start
#: included. The pipeline turns ``--seconds`` into a rep count with this
#: table and not with a clock: a best-of falls as the rep count rises, so
#: a faster commit must not earn itself more reps than its parent ran.
NOMINAL_REP_S = {
    "megaconf_day": 2.2, "cluster_rooms": 2.1, "edit_storm": 3.4, "chaos_repair": 1.6,
}
#: One rep is a few seconds; this only bounds a hang.
REP_TIMEOUT_S = 150


def run_rep(
    workload: str, seed: int, mode: str, dump_spans: str | None = None
) -> dict[str, Any]:
    """One rep in a child process; its scratch databases are removed after.

    They live beside this file, not in the system's temp dir: the
    pipeline lets a benchmark write only inside its checkout.
    """
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as root:
        command = [
            sys.executable, str(HERE / "rep.py"), "--workload", workload,
            "--seed", str(seed), "--root", root, "--mode", mode,
        ]
        if dump_spans:
            command += ["--dump-spans", dump_spans]
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    if done.returncode != 0:
        raise ledger.LedgerError(
            f"{workload} ({mode}) rep exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


# ----- pipeline mode -----------------------------------------------------------------


def _on_any_workload(
    metric: EndToEnd, row: dict[str, Any], outcome: dict[str, Any]
) -> float:
    """An end-to-end metric wherever it can be computed (a ledger row keeps
    it to the workloads it is *on*); 0 for a per-op wall time off the
    closed loop, where no op has a window of its own."""
    if metric.bound is None:
        return ledger.exact_metric(metric.name, outcome)
    return row["end_to_end"].get(metric.name, {}).get("value", 0.0)


def gated_metrics(
    row: dict[str, Any], outcome: dict[str, Any]
) -> dict[str, dict[str, Any]]:
    """The ``end_to_end`` metrics of ``BENCHMARK.json``."""
    return {
        metric.name: {
            "value": _on_any_workload(metric, row, outcome), "unit": metric.unit
        }
        for metric in GATED
    }


def layer_metrics(
    row: dict[str, Any], outcome: dict[str, Any]
) -> dict[str, dict[str, Any]]:
    """Every ``per_layer`` entry of ``BENCHMARK.json``; 0 where not applicable.

    The end-to-end metrics the pipeline cannot gate ride along here.
    """
    metrics = {}
    for metric in per_layer_metrics():
        value = row["per_layer"].get(metric.name, {}).get("value", 0.0)
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    for metric in UNGATED:
        value = _on_any_workload(metric, row, outcome)
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return metrics


def pipeline(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """The rounds *seconds* pay for, of one workload; print the contract's JSON."""
    modes = ("default", "traced", "null") if trace else ("default",)
    rounds = max(2, math.ceil(seconds / (NOMINAL_REP_S[workload] * len(modes))))
    reps: dict[str, list[dict[str, Any]]] = {mode: [] for mode in modes}
    for _ in range(rounds):
        for mode in modes:
            reps[mode].append(run_rep(workload, seed, mode))
    row = ledger.workload_row(workload, reps)
    all_reps = [rep for mode in reps.values() for rep in mode]
    outcome = all_reps[0]["outcome"]
    violations = [v for rep in all_reps for v in rep["outcome"]["violations"]]
    result = {
        "correct": not violations,
        "attempted": sum(rep["outcome"]["attempted"] for rep in all_reps),
        "failed": len(violations),
        "metrics": (
            layer_metrics(row, outcome) if trace else gated_metrics(row, outcome)
        ),
    }
    for violation in sorted(set(violations)):
        print(f"violation: {violation}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----- ledger mode -------------------------------------------------------------------


def ledger_row(seed: int, rounds: int, dump_spans: str | None) -> dict[str, Any]:
    """Rounds of one rep per workload; the first ones also traced and null."""
    reps: dict[str, dict[str, list[dict[str, Any]]]] = {
        name: {"default": [], "traced": [], "null": []} for name in WORKLOAD_NAMES
    }
    for round_index in range(rounds):
        for name in WORKLOAD_NAMES:
            reps[name]["default"].append(run_rep(name, seed, "default"))
            if round_index < TRACE_ROUNDS:
                spans = (
                    f"{dump_spans}.{name}.json"
                    if dump_spans and round_index == 0
                    else None
                )
                reps[name]["traced"].append(run_rep(name, seed, "traced", spans))
                reps[name]["null"].append(run_rep(name, seed, "null"))
        print(f"round {round_index + 1}/{rounds} done", file=sys.stderr)
    return {
        "pr": PR,
        "seed": seed,
        "reps": rounds,
        "trace_reps": min(rounds, TRACE_ROUNDS),
        "python": platform.python_version(),
        "workloads": {
            name: ledger.workload_row(name, reps[name]) for name in WORKLOAD_NAMES
        },
    }


def print_row(row: dict[str, Any]) -> None:
    for name, part in row["workloads"].items():
        wall = part["wall_s"]
        print(
            f"\n== {name}: {part['ops']} ops ({part['failed']} failed of "
            f"{part['attempted']}), {part['network_messages']} messages, wall "
            f"best {wall['best']:.3f} s, median {wall['median']:.3f} s, n={wall['n']}"
        )
        print("  end to end")
        print("\n".join(ledger.metric_lines(part)))
        print("  per layer (traced rep)")
        print("\n".join(ledger.layer_table(part)))
        for violation in part["violations"]:
            print(f"  VIOLATION {violation}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="with --workload: pipeline mode (one workload, JSON last line)",
    )
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--reps", type=int, default=7, help="untraced rounds (ledger)")
    parser.add_argument("--out", default=str(ROWS / f"BENCH_{PR}.json"))
    parser.add_argument(
        "--dump-spans", default=None, metavar="PATH",
        help="also write PATH.<workload>.json: full spans of every 16th op",
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="pipeline mode")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"ledger: no program to measure at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            return pipeline(args.workload, args.seed, args.seconds, bool(args.trace))
        row = ledger_row(args.seed, args.reps, args.dump_spans)
    except ledger.LedgerError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 2
    print_row(row)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(row, indent=1, sort_keys=True) + "\n")
    print(f"\nrow written to {out}")
    return 1 if any(part["failed"] for part in row["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
