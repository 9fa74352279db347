"""Python calls in one ledger workload's timed window, as a report.

Wall-clock timings move with the machine; the number of Python calls a
rep makes does not. This runs one workload of
``benchmarks/ledger/workloads.py`` (imported read-only, as ``rep.py``
runs it): setup, then cProfile over ``world.run(world)`` only. It
prints ``calls_per_rep``, every call cProfile saw in the window, C
builtins included. No threshold: it is a report. Run it under a fixed
hash seed, one workload per process::

    PYTHONHASHSEED=0 python3 benchmarks/call_census.py --workload megaconf_day --seed 5
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE / "ledger"):
    sys.path.insert(0, str(path))

from repro import obs  # noqa: E402

import workloads  # noqa: E402


def calls_per_rep(workload: str, seed: int, root: str) -> int:
    """Python calls cProfile counts over *workload*'s timed window."""
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        world = workloads.WORKLOADS[workload](root, seed, 1.0)
        try:
            profiler = cProfile.Profile()
            profiler.runcall(world.run, world)
        finally:
            world.close()
    return pstats.Stats(profiler).total_calls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as root:
        calls = calls_per_rep(args.workload, args.seed, root)
    print(f"calls_per_rep {calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
