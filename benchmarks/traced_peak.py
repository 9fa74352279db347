"""Traced heap of one ledger workload's timed window, as a report.

``peak_rss_mb`` moves with the interpreter's ``.pyc`` state and with the
allocator's layout; the bytes tracemalloc traces do not. This runs one
workload of ``benchmarks/ledger/workloads.py`` (imported read-only, as
``rep.py`` runs it): setup, ``gc.collect()``, then tracemalloc over
``world.run(world)`` only. It prints ``traced_peak_kib`` (the highest
traced total inside the window), ``retained_kib`` (what the window
left traced at its end) and ``unreachable`` (the objects one
``gc.collect()`` then finds: cyclic garbage the window left for the
cycle collector, which reference counting would have freed at once had
the graphs held no cycle). No threshold: it is a report. Run it under a
fixed hash seed, one workload per process::

    PYTHONHASHSEED=0 python3 benchmarks/traced_peak.py --workload megaconf_day --seed 5
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE / "ledger"):
    sys.path.insert(0, str(path))

from repro import obs  # noqa: E402

import workloads  # noqa: E402


def traced_window(workload: str, seed: int, root: str) -> tuple[int, int, int]:
    """(peak, retained) traced bytes of *workload*'s timed window, and
    the unreachable objects it left."""
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        world = workloads.WORKLOADS[workload](root, seed, 1.0)
        try:
            gc.collect()
            tracemalloc.start()
            try:
                world.run(world)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            unreachable = gc.collect()
        finally:
            world.close()
    return peak, retained, unreachable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as root:
        peak, retained, unreachable = traced_window(args.workload, args.seed, root)
    print(
        f"traced_peak_kib {peak // 1024} retained_kib {retained // 1024} "
        f"unreachable {unreachable}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
