"""The design budget: numbers ROADMAP says are tracked, tracked.

* Line count per package (``wc -l`` over ``src/repro/<package>/**/*.py``)
  is pinned. A change that moves a package's size — either way — edits
  its number here, in the same diff, where a reviewer sees it.
* No ``if``/``elif`` chain in the server, cluster or client packages
  tests a message kind with ``==`` in more than three arms: a longer one
  is a dispatch table written as control flow (ROADMAP item 7).
* The Python function calls one small clustered conference costs are
  capped: the cost of a message cannot creep back up unnoticed.
"""

import ast
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.db import Database, MultimediaObjectStore
from tests.net.test_wire_identity import build_rooms_conference, drive_rooms_conference

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``wc -l`` per package, as of the last change that touched it.
LINE_BUDGET = {
    "chaos": 660,
    "client": 1155,
    "cluster": 2854,
    "cpnet": 2057,
    "db": 3138,
    "document": 1129,
    "interest": 306,
    "media": 3112,
    "net": 2110,
    "obs": 1785,
    "prefetch": 472,
    "presentation": 761,
    "retrieval": 827,
    "server": 1835,
    "util": 288,
    "workloads": 1109,
}

MAX_KIND_ARMS = 3
DISPATCHING_PACKAGES = ("server", "cluster", "client")


def _packages() -> list[str]:
    return sorted(
        path.name for path in SRC.iterdir() if path.is_dir() and path.name != "__pycache__"
    )


def _wc_l(package: str) -> int:
    return sum(path.read_bytes().count(b"\n") for path in (SRC / package).rglob("*.py"))


def test_every_package_has_a_budget():
    assert _packages() == sorted(LINE_BUDGET)


@pytest.mark.parametrize("package", sorted(LINE_BUDGET))
def test_package_line_count(package):
    lines, ceiling = _wc_l(package), LINE_BUDGET[package]
    assert lines == ceiling, (
        f"src/repro/{package} is {lines} lines against a ceiling of {ceiling}: "
        "lower the ceiling or justify raising it in CHANGES.md"
    )


def _compares_a_kind(test: ast.expr) -> bool:
    """``... == MessageKind.X`` (either side) anywhere in an arm's test."""
    for node in ast.walk(test):
        if isinstance(node, ast.Compare) and any(isinstance(op, ast.Eq) for op in node.ops):
            for side in (node.left, *node.comparators):
                if (
                    isinstance(side, ast.Attribute)
                    and isinstance(side.value, ast.Name)
                    and side.value.id == "MessageKind"
                ):
                    return True
    return False


def _arms(statement: ast.If) -> list[ast.expr]:
    """The tests of one ``if`` and every ``elif`` hanging off it."""
    tests = [statement.test]
    while len(statement.orelse) == 1 and isinstance(statement.orelse[0], ast.If):
        statement = statement.orelse[0]
        tests.append(statement.test)
    return tests


def kind_chains(tree: ast.AST) -> list[tuple[int, int]]:
    """``(line, kind-testing arms)`` per chain: an ``if``/``elif`` ladder,
    or a run of sibling ``if`` statements (the early-return spelling)."""
    chains = []
    for node in ast.walk(tree):
        for block in ("body", "orelse", "finalbody"):
            statements = getattr(node, block, None)
            if not isinstance(statements, list):
                continue
            if block == "orelse" and isinstance(node, ast.If) and _arms(node)[1:]:
                continue  # an elif: already an arm of the ladder above it
            run: list[ast.If] = []
            for statement in [*statements, None]:
                if isinstance(statement, ast.If):
                    run.append(statement)
                    continue
                if run:
                    arms = sum(_compares_a_kind(t) for s in run for t in _arms(s))
                    chains.append((run[0].lineno, arms))
                    run = []
    return chains


def test_no_long_kind_chain():
    offenders = []
    for package in DISPATCHING_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            for line, arms in kind_chains(ast.parse(path.read_text())):
                if arms > MAX_KIND_ARMS:
                    offenders.append(f"{path.relative_to(SRC)}:{line} ({arms} arms)")
    assert not offenders, (
        f"kind == chains longer than {MAX_KIND_ARMS} arms (use a kind→handler table): "
        + ", ".join(offenders)
    )


def test_the_chain_check_sees_both_spellings():
    def arms(source: str) -> list[int]:
        return [count for _, count in kind_chains(ast.parse(source))]

    ladder = (
        "if k == MessageKind.A: a()\nelif k == MessageKind.B: b()\n"
        "elif MessageKind.C == k: c()\nelif k == MessageKind.D: d()"
    )
    returns = "\n".join(f"if k == MessageKind.K{i}:\n    return {i}" for i in range(5))
    unrelated = "if x == 1: a()\nelif x == 2: b()\nelif x == 3: c()\nelif x == 4: d()"
    assert arms(ladder) == [4]
    assert arms(returns) == [5]
    assert arms(unrelated) == [0]


#: Python-level calls (``sys.setprofile`` "call" events) of the 3x3 rooms
#: conference, joins to quiescence. A change that lowers the count lowers
#: the ceiling with it; one that needs more says why in CHANGES.md.
ROOMS_CALL_CEILING = 51_600


def test_the_rooms_conference_stays_inside_its_call_budget(tmp_path):
    """717 transmissions of ``tests/net/test_wire_identity.py``'s 3x3
    rooms script, counted from the first join to quiescence. The count
    repeats exactly from run to run. One link call, one tally and one
    scheduled call per transmission brought it from 61,659 to 49,595;
    taking the span tracer off the server's join and propagation paths
    brought it to 49,190. The ceiling sits under 5% above that."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        db = Database(str(tmp_path / "rooms"))
        try:
            harness, rooms = build_rooms_conference(MultimediaObjectStore(db))
            sys.setprofile(count)
            try:
                drive_rooms_conference(harness, rooms)
            finally:
                sys.setprofile(None)
        finally:
            db.close()
    assert harness.network.stats.messages == 717
    assert calls <= ROOMS_CALL_CEILING, (
        f"{calls} Python calls against a ceiling of {ROOMS_CALL_CEILING}"
    )
