"""Every public name defined in ``src/repro`` has a caller outside tests.

A public name is a module-level function or class, or a method or
property of a module-level class, whose name does not start with ``_``.
It is *read* where the same bare name appears as

- an identifier (``name``) or an attribute (``obj.name``) that is read,
- an imported name (``from m import name as alias``), outside a
  package ``__init__`` (those imports are re-exports),
- a string constant equal to it (``PROTOCOL`` rows name handlers so),
  except a call's direct argument: a run label such as
  ``run("filter")`` names no code. :data:`NAMING_CALLS` (``getattr``
  and its kin, ``KindSpec``) are the calls whose string arguments do,

in ``src/repro``, an example or a benchmark. Tests do not count, and
neither do docstrings, comments, ``__all__`` entries, nor reads inside
the name's own definition (a recursive call, a property's setter).

A name that only tests reach is code kept alive for its tests: delete it
with them, or put it on :data:`ALLOWLIST` with the section of the paper
or DESIGN, the ROADMAP item, or the test it serves. That allowlist is the
run census's (``benchmarks/function_census.py``): such a name never runs
in a conference either. The census fails on an entry that runs, and its
``ALLOWLIST_SIZE`` pins the length the way ``tests/test_design_budget.py``
pins line counts.
"""

from __future__ import annotations

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Mapping

from tests.source_index import function_census, parse

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: One allowlist for this audit and the run census: a name with no reader
#: outside tests never runs, so each is justified once, there.
ALLOWLIST = function_census().ALLOWLIST

#: Calls whose direct string arguments name an attribute or a handler.
NAMING_CALLS = frozenset({"getattr", "hasattr", "setattr", "delattr", "KindSpec"})

#: ``module.Qualname`` -> (``("Class", "method")`` path in the module, lines)
Definitions = dict[str, tuple[tuple[str, ...], int]]


def _lines(node: ast.AST) -> int:
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    return node.end_lineno - first + 1


def definitions(module: str, tree: ast.Module) -> Definitions:
    """The public names *tree* defines, as ``module.Qualname``."""
    found: Definitions = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        found[f"{module}.{node.name}"] = ((node.name,), _lines(node))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not member.name.startswith("_"):
                        # A property's getter and setter are one name.
                        qualified = f"{module}.{node.name}.{member.name}"
                        lines = found.get(qualified, ((), 0))[1] + _lines(member)
                        found[qualified] = ((node.name, member.name), lines)
    return found


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of string constants that stand alone as statements."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def _all_entries(tree: ast.Module) -> set[int]:
    """ids of the string constants listed in ``__all__``."""
    entries: set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                entries.update(id(n) for n in ast.walk(node) if isinstance(n, ast.Constant))
    return entries


def _call_arguments(tree: ast.AST) -> set[int]:
    """ids of the string constants passed straight to a call that is not
    one of :data:`NAMING_CALLS`."""
    found: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name not in NAMING_CALLS:
            found.update(id(a) for a in [*node.args, *(k.value for k in node.keywords)])
    return found


def reads(tree: ast.Module, *, reexports: bool) -> Iterator[tuple[str, tuple[str, ...]]]:
    """``(bare name, enclosing definitions)`` for every read in *tree*.

    The enclosing definitions are the names of the functions and classes
    (decorators included) the read sits in, outermost first.
    """
    skip = _docstrings(tree) | _all_entries(tree) | _call_arguments(tree)

    def walk(node: ast.AST, inside: tuple[str, ...]) -> Iterator[tuple[str, tuple[str, ...]]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = (*inside, node.name)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, inside
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, inside
        elif isinstance(node, ast.alias) and not reexports:
            yield node.name.rpartition(".")[2], inside
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
            and node.value.isidentifier()
        ):
            yield node.value, inside
        for child in ast.iter_child_nodes(node):
            yield from walk(child, inside)

    yield from walk(tree, ())


def uncalled(sources: Mapping[str, str], callers: Mapping[str, str]) -> dict[str, int]:
    """``{module.Qualname: lines}`` of the public names defined in *sources*
    that nothing outside tests reads.

    *sources* maps ``module`` (dotted) to the text of a ``src`` module;
    *callers* maps a path to the text of an example or benchmark.
    """
    trees = {module: parse(text) for module, text in sources.items()}
    read_anywhere: Counter[str] = Counter()
    local: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for module, tree in trees.items():
        package_init = module.endswith("__init__") or module == "repro"
        local[module] = list(reads(tree, reexports=package_init))
        read_anywhere.update(name for name, _ in local[module])
    for text in callers.values():
        read_anywhere.update(name for name, _ in reads(parse(text), reexports=False))
    missing: dict[str, int] = {}
    for module, tree in trees.items():
        for qualified, (owner, lines) in definitions(module, tree).items():
            # Reads inside the definition itself are not callers.
            own = sum(
                1 for name, inside in local[module]
                if name == owner[-1] and inside[: len(owner)] == owner
            )
            if read_anywhere[owner[-1]] == own:
                missing[qualified] = lines
    return missing


def src_sources() -> dict[str, str]:
    sources = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        sources[module] = path.read_text()
    return sources


def caller_sources() -> dict[str, str]:
    return {
        str(path): path.read_text()
        for folder in ("examples", "benchmarks")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


@lru_cache(maxsize=None)
def repo_uncalled() -> dict[str, int]:
    """:func:`uncalled` over this repository, once per session (read-only)."""
    return uncalled(src_sources(), caller_sources())


def test_every_public_name_has_a_caller():
    missing = repo_uncalled()
    unlisted = {name: lines for name, lines in missing.items() if name not in ALLOWLIST}
    assert unlisted == {}, (
        f"public names only tests reach ({sum(unlisted.values())} lines): {sorted(unlisted)}; "
        "delete them with their tests, or allowlist them with the § or item they serve"
    )


def test_the_allowlist_only_shrinks():
    assert len(ALLOWLIST) == function_census().ALLOWLIST_SIZE


def test_the_audit_reports_an_uncalled_name():
    source = (
        '"""Mentions orphan in a docstring."""\n'
        '__all__ = ["orphan", "used"]\n'
        "def orphan():\n"
        "    return orphan()  # recursion is not a caller\n"
        "def used():\n"
        "    return 1\n"
        "class Shape:\n"
        "    @property\n"
        "    def area(self):\n"
        "        return 0\n"
        "    @area.setter\n"
        "    def area(self, value):\n"
        "        pass\n"
        "    def scale(self):\n"
        "        return self.area\n"
        "    def handle(self):\n"
        "        pass\n"
        'HANDLERS = {"kind": "handle"}\n'
    )
    missing = uncalled({"pkg.mod": source}, {"example.py": "from pkg.mod import used\n"})
    assert sorted(missing) == ["pkg.mod.Shape", "pkg.mod.Shape.scale", "pkg.mod.orphan"]
    assert missing["pkg.mod.orphan"] == 2


def test_a_string_argument_is_not_a_caller():
    source = (
        "class Log:\n"
        "    def filter(self):\n"
        "        pass\n"
        "    def handle(self):\n"
        "        pass\n"
    )
    # A run label passed to a call names no code ...
    assert sorted(uncalled({"pkg.mod": source}, {"tour.py": 'run("filter")\n'})) == [
        "pkg.mod.Log", "pkg.mod.Log.filter", "pkg.mod.Log.handle",
    ]
    # ... but getattr's and a PROTOCOL row's names do.
    callers = {"tour.py": 'Log()\ngetattr(log, "filter")\nKindSpec("k", "handle")\n'}
    assert uncalled({"pkg.mod": source}, callers) == {}


def test_a_reexport_is_not_a_caller():
    sources = {
        "pkg.__init__": "from pkg.mod import helper\n",
        "pkg.mod": "def helper():\n    return 1\n",
    }
    assert sorted(uncalled(sources, {})) == ["pkg.mod.helper"]
    assert uncalled(sources, {"bench.py": "import pkg\npkg.helper()\n"}) == {}
