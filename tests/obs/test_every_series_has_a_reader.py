"""Every metric series and event kind written in ``src/repro`` has a reader.

A name is *written* where a string literal is the first argument of
``counter`` / ``gauge`` / ``histogram`` (or their ``_family`` forms), or of
``emit`` / ``_emit`` — or where that argument is the variable of a ``for``
loop or comprehension over a literal tuple or list of strings, which
writes each of them. It is *read* where the same name appears, by itself or
followed by a label set (``name{label=value}``), in a string the program
uses rather than documents:

- any test (except this one), benchmark, ledger module or example;
- a guard file, ``benchmarks/metrics/e*_guard.json``;
- ``src/repro`` code other than a write site (docstrings and comments do
  not count; ``obs.dashboard`` is read the same way).

A series or event that no one reads is work on the hot path that nothing
observes: delete it, or add the test that needs it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Mapping

from tests.source_index import parse

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

WRITE_CALLS = frozenset(
    {"counter", "gauge", "histogram", "counter_family", "gauge_family", "histogram_family"}
)
EMIT_CALLS = frozenset({"emit", "_emit"})


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of string constants that stand alone as statements."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def _loop_bound(tree: ast.AST) -> dict[int, list[ast.Constant]]:
    """id of each call whose first argument is the variable of a ``for``
    loop or comprehension over literal strings -> those strings."""
    bound: dict[int, list[ast.Constant]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            loops, scope = [(node.target, node.iter)], node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            loops, scope = [(g.target, g.iter) for g in node.generators], [node]
        else:
            continue
        for target, iterable in loops:
            if not (
                isinstance(target, ast.Name)
                and isinstance(iterable, (ast.Tuple, ast.List))
                and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in iterable.elts
                )
            ):
                continue
            for inner in (n for part in scope for n in ast.walk(part)):
                if (
                    isinstance(inner, ast.Call)
                    and inner.args
                    and isinstance(inner.args[0], ast.Name)
                    and inner.args[0].id == target.id
                ):
                    bound[id(inner)] = list(iterable.elts)
    return bound


def scan(source: str, *, src: bool = True) -> tuple[dict[str, str], list[str]]:
    """Return ``({name: "series" | "event"}, reader strings)`` for *source*.

    Reader strings are every string literal (f-string pieces included)
    except docstrings and, in ``src`` code, the names at write sites. A
    test that calls ``registry.counter(name)`` reads that counter.
    """
    tree = parse(source)
    bound = _loop_bound(tree)
    written: dict[str, str] = {}
    sites: set[int] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        call = _call_name(node)
        if call in WRITE_CALLS:
            kind = "series"
        elif call in EMIT_CALLS:
            kind = "event"
        else:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            names = [first]
        else:
            names = bound.get(id(node), [])
        for name in names:
            written[name.value] = kind
            sites.add(id(name))
    skip = _docstrings(tree) | (sites if src else set())
    strings = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in skip
    ]
    return written, strings


def unread(sources: Mapping[str, str], readers: Iterable[str]) -> dict[str, str]:
    """Names written in *sources* that neither *readers* nor other src code read."""
    written: dict[str, str] = {}
    corpus = list(readers)
    for source in sources.values():
        names, strings = scan(source)
        written.update(names)
        corpus.extend(strings)
    text = "\n".join(corpus)
    return {
        name: kind
        for name, kind in sorted(written.items())
        if not re.search(rf"(?<![\w.]){re.escape(name)}(?![\w.])", text)
    }


def _python_strings(path: Path) -> list[str]:
    return scan(path.read_text(), src=False)[1]


def reader_corpus() -> list[str]:
    corpus: list[str] = []
    here = Path(__file__).resolve()
    for folder in ("tests", "benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.resolve() != here:
                corpus.extend(_python_strings(path))
    for path in sorted((ROOT / "benchmarks" / "metrics").glob("e*_guard.json")):
        corpus.append(path.read_text())
    return corpus


def src_sources() -> dict[str, str]:
    return {str(path): path.read_text() for path in sorted(SRC.rglob("*.py"))}


def test_every_written_name_has_a_reader():
    missing = unread(src_sources(), reader_corpus())
    assert missing == {}, f"written but never read: {missing}"


def test_the_audit_reports_an_unread_name():
    source = (
        "def setup(registry, log):\n"
        '    """Registers synthetic.read and synthetic.unread."""\n'
        '    registry.counter("synthetic.unread").inc()\n'
        '    registry.gauge_family("synthetic.read", ("node",))\n'
        '    log.emit("synthetic.event_unread", severity="WARN")\n'
        '    log.emit("synthetic.event_read")\n'
        "    # synthetic.unread is not read by a comment either\n"
    )
    readers = ['assert snap["gauges"]["synthetic.read{node=a}"] == 1', "synthetic.event_read"]
    assert unread({"fake.py": source}, readers) == {
        "synthetic.event_unread": "event",
        "synthetic.unread": "series",
    }


def test_a_src_reader_other_than_the_write_site_counts():
    sources = {
        "a.py": 'registry.counter("synthetic.total").inc()\n',
        "b.py": 'TOTAL = snapshot["counters"]["synthetic.total"]\n',
    }
    assert unread(sources, []) == {}


def test_a_longer_name_does_not_read_its_prefix():
    source = 'registry.counter("synthetic.compile").inc()\n'
    assert unread({"a.py": source}, ["synthetic.compiled.total", "synthetic.compile_s"]) == {
        "synthetic.compile": "series"
    }


def test_a_loop_over_literal_names_writes_each_of_them():
    source = (
        "gauges = [\n"
        "    registry.gauge_family(name, ('node',))\n"
        "    for name in ('synthetic.looped', 'synthetic.looped_read')\n"
        "]\n"
        "for name in ['synthetic.event_looped']:\n"
        "    log.emit(name)\n"
        "for name in names:  # not literal: nothing to resolve\n"
        "    registry.counter(name)\n"
    )
    assert unread({"a.py": source}, ["synthetic.looped_read{node=a}"]) == {
        "synthetic.event_looped": "event",
        "synthetic.looped": "series",
    }
