"""Every option in the runtime packages has a setter outside tests.

An *option* is, in ``src/repro/{net,server,client,cluster,chaos,workloads}``,

- a parameter with a default on a public function, method or
  constructor (``__init__`` of a public class), or
- a defaulted ``__init__`` field of a public dataclass.

It is *set* where a call in ``src/repro`` or ``benchmarks/`` passes it:
the call's bare callee name matches (the class name for a constructor,
reached as ``Class(...)``, ``cls(...)`` or a subclass's
``super().__init__(...)``) and the value comes by
keyword or by position. ``**NAME``, where ``NAME`` is a module-level
dict literal or ``dict(...)`` call, passes that dict's keys; any other
``*`` or ``**`` passes everything, so the audit is a floor. A handler
keyword named in a ``PROTOCOL`` row (a ``KindSpec(...)`` call) is set
by the wire. Tests and examples are not setters.

An option nobody sets is a constant wearing a parameter: make it a
module constant, or put it on :data:`ALLOWLIST` as a deployment
setting, a safety bound, a test seam or oracle (naming the test), or
the paper section or experiment it serves (naming the test that sets
it). The allowlist only shrinks: :data:`ALLOWLIST_SIZE` pins its length.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Mapping

from tests.source_index import parse

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PACKAGES = ("net", "server", "client", "cluster", "chaos", "workloads")

#: ``module.Qualname(option)`` -> why it stays with no setter outside tests.
ALLOWLIST: dict[str, str] = {
    # Deployment settings: node ids.
    "repro.cluster.harness.ClusterHarness.add_monitor(viewer_id)": "deployment setting: "
    "the monitor's node id (examples/cluster_tour.py, tests/cluster/test_gateway_routing.py)",
    # Safety bounds.
    "repro.net.codec.StringInterner(max_entries)": "safety bound on a connection's "
    "dynamic string table, held at its edge by tests/net/test_codec.py",
    # Test seams and oracles.
    "repro.chaos.plan.FaultPlan(kinds)": "test seam: faults aimed at one message kind in "
    "tests/chaos/test_plan.py, tests/client/test_degradation.py, "
    "tests/prefetch/test_lossy.py, tests/integration/test_fault_events.py, "
    "tests/cluster/test_gateway_robustness.py",
    "repro.client.buffer.ClientBuffer.admit(pinned)": "test seam: pinned admission "
    "and its overflow error in tests/client/test_buffer.py (the client pins after "
    "admitting)",
    "repro.cluster.harness.ClusterHarness.add_client(auto_fetch)": "test seam: viewers "
    "that fetch no payloads in tests/cluster/test_replication.py, "
    "test_standby_equivalence.py, test_gatewaytier.py, "
    "tests/integration/test_telemetry_channel.py",
    "repro.net.codec.decode_envelope(inner_interner)": "codec oracle: an interned inner "
    "frame decodes with its own table in tests/net/test_codec.py",
    # The paper's sections and experiments.
    "repro.server.interaction.InteractionServer(use_profiles)": "§4: long-term learning "
    "of viewer preferences, set by tests/presentation/test_profile.py",
    "repro.server.interaction.InteractionServer.broadcast(room_id)": "the paper's future work: "
    "broadcasting to one room, set by tests/server/test_triggers.py",
    "repro.server.triggers.TriggerManager.register(once)": "the paper's future work: a dynamic "
    "event trigger that fires once, set by tests/server/test_triggers.py",
    "repro.workloads.prefetch.run_prefetch_session(plan)": "E7: §4.4 prefetching over a "
    "lossy link, set by tests/prefetch/test_lossy.py",
}

ALLOWLIST_SIZE = 10

#: Everything a ``*`` or ``**`` we cannot see into might pass.
EVERYTHING = "*"


@dataclass(frozen=True)
class Option:
    """One settable value: the bare callee name that reaches it, its
    keyword, and its position among a call's arguments (``None``:
    keyword-only)."""

    callee: str
    keyword: str
    position: int | None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_init_field(statement: ast.AnnAssign) -> bool:
    """Whether an annotated class attribute is a dataclass ``__init__`` field."""
    if "ClassVar" in ast.unparse(statement.annotation):
        return False
    value = statement.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        for keyword in value.keywords:
            if keyword.arg == "init" and isinstance(keyword.value, ast.Constant):
                return bool(keyword.value.value)
    return True


def _has_default(statement: ast.AnnAssign) -> bool:
    value = statement.value
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def _parameters(
    function: ast.FunctionDef, callee: str, qualified: str, bound: bool
) -> Iterator[tuple[str, Option]]:
    """The defaulted parameters of *function*, as options."""
    arguments = function.args
    positional = [*arguments.posonlyargs, *arguments.args]
    skip = 1 if bound else 0
    for index, argument in enumerate(positional):
        if index < len(positional) - len(arguments.defaults):
            continue
        yield f"{qualified}({argument.arg})", Option(callee, argument.arg, index - skip)
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield f"{qualified}({argument.arg})", Option(callee, argument.arg, None)


def _bound(function: ast.FunctionDef) -> bool:
    """Whether calls through an instance or class skip the first parameter."""
    names = {getattr(d, "id", "") for d in function.decorator_list}
    return "staticmethod" not in names


def options(module: str, tree: ast.Module) -> dict[str, Option]:
    """The options *tree* defines, as ``module.Qualname(option)``."""
    found: dict[str, Option] = {}
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(_parameters(node, node.name, f"{module}.{node.name}", False))
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields = [
                    s for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                    and _is_init_field(s)
                ]
                for index, statement in enumerate(fields):
                    if _has_default(statement):
                        name = statement.target.id
                        found[f"{module}.{node.name}({name})"] = Option(node.name, name, index)
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name == "__init__":
                    callee, qualified = node.name, f"{module}.{node.name}"
                elif member.name.startswith("_"):
                    continue
                else:
                    callee, qualified = member.name, f"{module}.{node.name}.{member.name}"
                found.update(_parameters(member, callee, qualified, _bound(member)))
    return found


def _callee(call: ast.Call, owner: ast.ClassDef | None) -> str:
    """The bare name a call reaches: ``super().__init__(...)`` and
    ``cls(...)`` reach the base's and the enclosing class's constructor."""
    func = call.func
    if isinstance(func, ast.Attribute):
        inner = func.value
        if (
            func.attr == "__init__" and owner is not None and owner.bases
            and isinstance(inner, ast.Call) and getattr(inner.func, "id", "") == "super"
        ):
            base = owner.bases[0]
            return base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        return func.attr
    name = getattr(func, "id", "")
    return owner.name if name == "cls" and owner is not None else name


def _calls(node: ast.AST, owner: ast.ClassDef | None = None) -> Iterator[tuple[ast.Call, str]]:
    """Every call under *node*, with the bare name it reaches."""
    if isinstance(node, ast.ClassDef):
        owner = node
    if isinstance(node, ast.Call):
        yield node, _callee(node, owner)
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, owner)


def module_dicts(tree: ast.Module) -> dict[str, set[str]]:
    """The keys of the module-level dict literals and ``dict(...)`` calls."""
    found: dict[str, set[str]] = {}
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        if isinstance(value, ast.Dict) and None not in value.keys:
            keys = {k.value for k in value.keys if isinstance(k, ast.Constant)}
        elif isinstance(value, ast.Call) and getattr(value.func, "id", "") == "dict":
            if value.args or any(k.arg is None for k in value.keywords):
                continue
            keys = {k.arg for k in value.keywords}
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                found[target.id] = keys
    return found


def passes(tree: ast.Module, dicts: Mapping[str, set[str]]) -> Iterator[tuple[str, object]]:
    """``(callee, keyword or position)`` for every value a call in *tree*
    passes; :data:`EVERYTHING` where a ``*`` or ``**`` hides which."""
    for node, callee in _calls(tree):
        if callee == "KindSpec" and len(node.args) > 1:
            # A PROTOCOL row: the payload fields it names reach its handler.
            handler = node.args[1]
            if isinstance(handler, ast.Constant):
                for part in [*node.args[2:], *(k.value for k in node.keywords)]:
                    for constant in ast.walk(part):
                        if isinstance(constant, ast.Constant):
                            yield handler.value, constant.value
        for index, argument in enumerate(node.args):
            if isinstance(argument, ast.Starred):
                yield callee, EVERYTHING
                break
            yield callee, index
        for keyword in node.keywords:
            if keyword.arg is not None:
                yield callee, keyword.arg
            elif isinstance(keyword.value, ast.Name) and keyword.value.id in dicts:
                for key in dicts[keyword.value.id]:
                    yield callee, key
            else:
                yield callee, EVERYTHING


def unset(sources: Mapping[str, str], setters: Mapping[str, str]) -> list[str]:
    """The options defined in *sources* that no call in *setters* passes.

    *sources* maps ``module`` (dotted) to the text of an audited module;
    *setters* maps a name to the text of every module whose calls count.
    """
    trees = [parse(text) for text in setters.values()]
    dicts: dict[str, set[str]] = {}
    for tree in trees:
        dicts.update(module_dicts(tree))
    passed: dict[str, set[object]] = defaultdict(set)
    for tree in trees:
        for callee, what in passes(tree, dicts):
            passed[callee].add(what)
    return sorted(
        qualified
        for module, text in sources.items()
        for qualified, option in options(module, parse(text)).items()
        if not {EVERYTHING, option.keyword, option.position} & passed[option.callee]
    )


def audited_sources() -> dict[str, str]:
    sources = {}
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
            sources[module] = path.read_text()
    return sources


def setter_sources(root: Path = ROOT) -> dict[str, str]:
    """Every module whose calls count as setters: ``src/repro`` and
    ``benchmarks`` under *root*."""
    paths = [
        *sorted((root / "src" / "repro").rglob("*.py")),
        *sorted((root / "benchmarks").rglob("*.py")),
    ]
    return {str(path): path.read_text() for path in paths}


@lru_cache(maxsize=None)
def repo_unset() -> tuple[str, ...]:
    """:func:`unset` over this repository, once per session."""
    return tuple(unset(audited_sources(), setter_sources()))


def test_every_option_is_set():
    missing = [name for name in repo_unset() if name not in ALLOWLIST]
    assert missing == [], (
        f"{len(missing)} options only tests set: {missing}; make each a module "
        "constant, or allowlist it with the reason it stays"
    )


def test_the_allowlist_only_names_unset_options():
    missing = repo_unset()
    assert sorted(set(ALLOWLIST) - set(missing)) == []
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_the_allowlist_only_shrinks():
    assert len(ALLOWLIST) == ALLOWLIST_SIZE


AUDITED = (
    "from dataclasses import dataclass, field\n"
    "@dataclass\n"
    "class Config:\n"
    "    size: int\n"
    "    rate: float = 1.0\n"
    "    tally: int = field(default=0, init=False)\n"
    "class Base:\n"
    "    def __init__(self, name, width=1):\n"
    "        pass\n"
    "class Link(Base):\n"
    "    def __init__(self, name):\n"
    "        super().__init__(name, 3)\n"
    "    def send(self, frame, *, urgent=False, retries=0):\n"
    "        pass\n"
    "    def _private(self, knob=1):\n"
    "        pass\n"
    "def run(store, seed=0, quick=False, trace=None):\n"
    "    pass\n"
)


def test_the_audit_reports_an_unset_default():
    assert unset({"pkg.mod": AUDITED}, {}) == [
        "pkg.mod.Base(width)",
        "pkg.mod.Config(rate)",
        "pkg.mod.Link.send(retries)",
        "pkg.mod.Link.send(urgent)",
        "pkg.mod.run(quick)",
        "pkg.mod.run(seed)",
        "pkg.mod.run(trace)",
    ]


def test_each_way_of_passing_counts_as_set():
    setter = (
        "RATES = {'seed': 1}\n"
        "FLAGS = dict(retries=2)\n"
        "Config(4, 2.0)\n"                           # positional
        "link.send(frame, urgent=True, **FLAGS)\n"  # keyword; a dict() call's keys
        "run(store, **RATES)\n"                      # a dict literal's keys
    )
    # Link's own super().__init__(name, 3) passes Base's width.
    assert unset({"pkg.mod": AUDITED}, {"pkg/mod.py": AUDITED, "bench.py": setter}) == [
        "pkg.mod.run(quick)",
        "pkg.mod.run(trace)",
    ]


def test_a_hidden_star_passes_everything():
    assert unset({"pkg.mod": AUDITED}, {"bench.py": "run(store, **kwargs)\n"}) == [
        "pkg.mod.Base(width)",
        "pkg.mod.Config(rate)",
        "pkg.mod.Link.send(retries)",
        "pkg.mod.Link.send(urgent)",
    ]


def test_a_protocol_row_sets_its_handler_keywords():
    source = "def handle_choice(session_id, value, scope='local'):\n    pass\n"
    row = "KindSpec('choice', 'handle_choice', ('session_id', 'value'), {'scope': 'scope'})\n"
    assert unset({"pkg.mod": source}, {}) == ["pkg.mod.handle_choice(scope)"]
    assert unset({"pkg.mod": source}, {"pkg/protocol.py": row}) == []


def test_a_caller_that_is_only_a_test_does_not_set(tmp_path):
    call = "run(store, seed=3, quick=True, trace=1)\n"
    for path in ("tests/test_mod.py", "examples/tour.py", "src/repro/mod.py"):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(AUDITED if path.startswith("src") else call)
    assert "pkg.mod.run(seed)" in unset({"pkg.mod": AUDITED}, setter_sources(tmp_path))
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench.py").write_text(call)
    assert "pkg.mod.run(seed)" not in unset({"pkg.mod": AUDITED}, setter_sources(tmp_path))
