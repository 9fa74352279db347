"""Compare two ledger rows: ``compare.py A.json B.json`` (A older, B newer).

Per workload and end-to-end metric: both values, the change of B against
A, the bound, and a verdict —

* ``regressed``  B is worse than A by more than the bound (exact metrics:
  by more than 1%);
* ``unresolved`` within the bound, but either row resolves the metric no
  better than the bound (its even and its odd reps alone disagree by more),
  so "unchanged" cannot be claimed;
* ``ok``         within the bound and resolved;
* ``identical`` / ``changed`` for exact (sim-clock and count) metrics,
  which two rows of the same code and seed must repeat bit for bit.

A workload or metric of A that B no longer reports counts as regressed.
Best-of values fall as the rep count rises, so rows made with different
``--reps`` are refused. Exits non-zero when anything regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import END_TO_END_BY_NAME, EXACT_GRACE  # noqa: E402


def worsening(old: float, new: float, better: str) -> float:
    """How much worse *new* is than *old*, as a share of *old* (< 0: better)."""
    if old == 0:  # no share of zero: any move is unbounded
        if new == 0:
            return 0.0
        return float("inf") if (new > 0) == (better == "lower") else float("-inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def resolution(entry: dict[str, Any]) -> float:
    """How far the value moves between the two halves of a row's reps."""
    if "split" not in entry or not entry["value"]:
        return 0.0
    even, odd = entry["split"]
    return abs(even - odd) / abs(entry["value"])


def verdict(
    bound: float | None, old: dict[str, Any], new: dict[str, Any]
) -> tuple[str, float]:
    worse = worsening(old["value"], new["value"], old["better"])
    if bound is None:  # exact
        if new["value"] == old["value"]:
            return "identical", worse
        return ("regressed" if worse > EXACT_GRACE else "changed"), worse
    if worse > bound:
        return "regressed", worse
    if max(resolution(old), resolution(new)) > bound:
        return "unresolved", worse
    return "ok", worse


def compare(row_a: dict[str, Any], row_b: dict[str, Any]) -> tuple[list[str], int]:
    """Printable lines and the number of regressed metrics."""
    lines, regressed = [], 0
    if row_a.get("seed") != row_b.get("seed"):
        lines.append(
            f"note: seeds differ ({row_a.get('seed')} vs {row_b.get('seed')}); "
            "exact metrics are comparable for one seed only"
        )
    for name, part_a in row_a["workloads"].items():
        part_b = row_b["workloads"].get(name)
        if part_b is None:
            lines.append(f"{name}: missing from the second row  regressed")
            regressed += 1
            continue
        lines.append(f"{name}")
        for metric, old in part_a["end_to_end"].items():
            new = part_b["end_to_end"].get(metric)
            if new is None:
                lines.append(f"  {metric:<22} missing from the second row  regressed")
                regressed += 1
                continue
            bound = END_TO_END_BY_NAME[metric].bound
            word, worse = verdict(bound, old, new)
            regressed += word == "regressed"
            bound = "exact" if bound is None else f"{bound:.0%}"
            lines.append(
                f"  {metric:<22} {old['value']:>16.4f} -> {new['value']:>16.4f} "
                f"{old['unit']:<8} worse by {worse:>+8.2%}  bound {bound:<6} {word}"
            )
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    row_a, row_b = (json.loads(Path(path).read_text()) for path in args)
    if row_a.get("reps") != row_b.get("reps"):
        print(
            f"compare: the rows were made with different --reps "
            f"({row_a.get('reps')} vs {row_b.get('reps')}); make both with the same",
            file=sys.stderr,
        )
        return 2
    lines, regressed = compare(row_a, row_b)
    print("\n".join(lines))
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
