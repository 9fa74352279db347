"""The run census (``benchmarks/function_census.py``) on planted modules,
and the allowlist it shares with the name audit.

The census itself runs the ledger workloads, the examples, the chaos
matrix and the benchmarks under ``sys.setprofile`` (CI's ``audit
(function census)`` step, about a minute); these tests check its parts
and its allowlist without running a conference.
"""

from __future__ import annotations

import importlib
import re
import sys

from tests.source_index import function_census

census = function_census()
ROOT = census.ROOT

PLANTED = '''\
def called():
    return 1


def never():
    return 2


def at_import():
    return 3


class Shape:
    def __init__(self):
        self.sides = 0

    def area(self):
        return 0

    @property
    def edges(self):
        return self.sides


VALUE = at_import()
'''


def _planted(tmp_path, name):
    package = tmp_path / name
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(PLANTED)
    sys.path.insert(0, str(tmp_path))
    return package


def _run_planted(tmp_path, name, run):
    package = _planted(tmp_path, name)
    try:
        with census.recording() as seen:
            module = importlib.import_module(f"{name}.mod")
            run(module)
    finally:
        sys.path.remove(str(tmp_path))
        for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
            del sys.modules[loaded]
    return census.unrun(census.definitions(package), seen)


def test_the_census_reports_exactly_the_function_no_run_called(tmp_path):
    def run(module):
        module.called()
        module.Shape().edges

    missing = _run_planted(tmp_path, "planted_a", run)
    assert missing == {"planted_a.mod.never", "planted_a.mod.Shape.area"}


def test_a_call_made_at_import_time_counts(tmp_path):
    missing = _run_planted(tmp_path, "planted_b", lambda module: None)
    assert "planted_b.mod.at_import" not in missing
    assert "planted_b.mod.called" in missing
    # Dunder methods are the interpreter's to call: never a finding.
    assert not any(name.endswith("__init__") for name in missing)


def test_an_allowlisted_function_that_runs_fails_the_census():
    missing = {"pkg.mod.never", "pkg.mod.listed"}
    allowlist = {"pkg.mod.listed": "oracle", "pkg.mod.ran": "failure path"}
    assert census.verdict(missing, allowlist) == (["pkg.mod.never"], ["pkg.mod.ran"])
    assert census.verdict(missing, {name: "why" for name in missing}) == ([], [])


def test_every_allowlist_key_is_a_def_in_src():
    defined = set(census.definitions(census.SRC).values())
    assert sorted(set(census.ALLOWLIST) - defined) == []


PATH = re.compile(r"\b(?:tests|benchmarks|examples)/[\w/]+\.py\b")


def test_every_reason_names_what_runs_it_or_the_section_it_serves():
    unexplained = {
        name: reason for name, reason in census.ALLOWLIST.items()
        if not PATH.search(reason) and "§" not in reason and "ROADMAP item" not in reason
    }
    assert unexplained == {}
    named = {path for reason in census.ALLOWLIST.values() for path in PATH.findall(reason)}
    assert sorted(path for path in named if not (ROOT / path).is_file()) == []
