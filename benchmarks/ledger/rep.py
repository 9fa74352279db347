"""One rep of one workload in a process of its own.

``run.py`` starts this once per rep, so every rep has a clean
``ru_maxrss`` and no state left over from the rep before. It prints one
JSON object: the timings, the raw :class:`workloads.Outcome`, and in
traced mode the tracer's aggregates and the metrics-registry deltas of
the timed window.

Modes: ``default`` (a fresh ``obs.MetricsRegistry``, nothing wrapped —
what every end-to-end number comes from), ``null`` (``obs.NullRegistry``:
the cost of observability by difference) and ``traced`` (timing wrappers
installed around each layer's public callables).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
MODES = ("default", "null", "traced")


def counter_totals(counters: dict[str, float]) -> dict[str, float]:
    """Registry counters summed over their label sets."""
    totals: dict[str, float] = {}
    for name, value in counters.items():
        base = name.split("{", 1)[0]
        if base.startswith(("net.link.", "net.peer.")):
            continue  # one series per node: the totals are net.bytes_total
        totals[base] = totals.get(base, 0) + value
    return totals


def _by_layer(table: dict[tuple[str, str], Any]) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {}
    for (layer, name), value in table.items():
        out.setdefault(layer, {})[name] = value
    return out


def _delta(after: dict[Any, float], before: dict[Any, float]) -> dict[Any, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def run_rep(
    workload: str, seed: int, root: str, mode: str = "default",
    scale: float = 1.0, dump_spans: str | None = None,
) -> dict[str, Any]:
    """One rep. *scale* shrinks the workload for the smoke test only: the
    command line never sets it, so every written row has the pinned shape."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from repro import obs

    import workloads

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    registry = obs.NullRegistry() if mode == "null" else obs.MetricsRegistry()
    try:
        with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
            started = perf_counter()
            world = workloads.WORKLOADS[workload](root, seed, scale)
            setup_s = perf_counter() - started
            try:
                setup_calls, setup_self = tracer.totals() if tracer else ({}, {})
                before = registry.snapshot()
                gc.collect()
                started = perf_counter()
                world.run(world)
                wall_s = perf_counter() - started
                counters = obs.diff(before, registry.snapshot())["counters"]
            finally:
                world.close()
    finally:
        if tracer is not None:
            tracer.uninstall()
    rep: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcome": dataclasses.asdict(world.outcome),
    }
    if tracer is not None:
        calls, self_s = tracer.totals()
        rep["trace"] = {
            "calls": _by_layer(_delta(calls, setup_calls)),
            "self_s": _by_layer(_delta(self_s, setup_self)),
            "setup_self_s": _by_layer(setup_self),
        }
        rep["counters"] = counter_totals(counters)
        if dump_spans:
            Path(dump_spans).write_text(json.dumps(tracer.span_records()) + "\n")
    return rep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True, help="scratch dir for databases")
    parser.add_argument("--mode", choices=MODES, default="default")
    parser.add_argument("--dump-spans", default=None)
    args = parser.parse_args(argv)
    rep = run_rep(
        args.workload, args.seed, args.root, args.mode, dump_spans=args.dump_spans
    )
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
