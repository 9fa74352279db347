"""Every option in ``src/repro`` has a setter outside tests.

An *option* is, in every package under ``src/repro`` (a new package
is audited as soon as it exists),

- a parameter with a default on a public function, method or
  constructor (``__init__`` of a public class), or
- a defaulted ``__init__`` field of a public dataclass.

It is *set* where a call in ``src/repro`` or ``benchmarks/`` passes it,
by keyword or by position, and the call reaches it by name in its
namespace:

- a bare call ``f(...)`` reaches module functions and classes: the
  class name for a constructor, reached as ``Class(...)``,
  ``cls(...)``, a subclass's ``super().__init__(...)``, or a subclass
  that inherits the constructor (a dataclass's, or one that defines no
  ``__init__``);
- an attribute call ``x.f(...)`` reaches methods, and module functions
  and classes too where ``x`` is an imported name (``codec.encode(...)``).

So a call to a function never sets a same-named method's option, nor
the reverse. ``**NAME``, where ``NAME`` is a module-level
dict literal or ``dict(...)`` call, passes that dict's keys; any other
``*`` or ``**`` passes everything, so the audit is a floor. A handler
keyword named in a ``PROTOCOL`` row (a ``KindSpec(...)`` call) is set
by the wire; the handler is a method. A pytest-benchmark fixture call,
``benchmark(f, *args, **kwargs)`` or ``benchmark.pedantic(f, args=(...),
kwargs={...})``, is also the call of ``f`` it makes. Tests and examples
are not setters.

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

#: ``module.Qualname(option)`` -> why it stays with no setter outside tests.
ALLOWLIST: dict[str, str] = {
    # Deployment settings: node ids.
    "repro.cluster.harness.ClusterHarness.add_monitor(viewer_id)": "deployment setting: "
    "the monitor's node id (examples/cluster_tour.py, tests/cluster/test_gateway_routing.py)",
    "repro.document.medical.build_sample_medical_record(doc_id)": "deployment setting: the "
    "record's id, so one store holds several (examples/medical_consultation.py, "
    "tests/client/test_display_pins.py, tests/integration/test_end_to_end.py)",
    "repro.document.medical.build_sample_medical_record(patient)": "deployment setting: whose "
    "record it is (examples/medical_consultation.py, tests/document/test_medical_record.py)",
    # Deployment settings: the operator's panel, as the tours print it.
    "repro.obs.dashboard.render_dashboard(events)": "deployment setting: the flight-recorder "
    "events on the panel (examples/observability_tour.py's golden, tests/obs/test_dashboard.py)",
    "repro.obs.dashboard.render_dashboard(title)": "deployment setting: the panel's title "
    "(examples/observability_tour.py's golden, examples/cpnet_compile_tour.py, "
    "tests/obs/test_dashboard.py)",
    "repro.obs.dashboard.render_dashboard(include)": "deployment setting: the series a panel "
    "shows (examples/interest_tour.py's golden, examples/cpnet_compile_tour.py, "
    "tests/obs/test_dashboard.py)",
    "repro.obs.dashboard.render_dashboard(exclude)": "deployment setting: wall-clock series kept "
    "off a deterministic panel (examples/observability_tour.py's golden, "
    "tests/server/test_monitor.py)",
    "repro.obs.dashboard.render_dashboard(max_events)": "deployment setting: how many events "
    "a panel shows (examples/observability_tour.py's golden, examples/cpnet_compile_tour.py, "
    "tests/obs/test_dashboard.py)",
    # Safety bounds.
    "repro.net.codec.StringInterner(max_entries)": "safety bound on a connection's "
    "dynamic string table, held at its edge by tests/net/test_codec.py",
    "repro.db.engine.Database(checkpoint_journal_bytes)": "safety bound on crash-replay time: "
    "the journal size past which a commit checkpoints, small in tests/db/test_maintenance.py "
    "and off in tests/db/test_journal.py",
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
    "repro.obs.events.EventLog(clock)": "test seam: events stamped on a simulated clock, so a "
    "recording repeats to the byte (examples/observability_tour.py's golden, "
    "tests/obs/test_events.py, tests/server/test_monitor.py)",
    "repro.util.failpoints.Failpoints.arm(after)": "test seam: DESIGN §8 crash injection on a "
    "later hit, in tests/chaos/test_failpoints.py",
    "repro.util.failpoints.Failpoints.arm(count)": "test seam: DESIGN §8 crash injection on "
    "several hits, in tests/chaos/test_failpoints.py",
    "repro.util.failpoints.Failpoints.arm(match)": "test seam: DESIGN §8 crash injection at one "
    "shard or journal op, in tests/cluster/test_chaos_crashpoints.py, tests/db/test_journal.py",
    "repro.cpnet.elicitation.CPNetBuilder.build(validate)": "test seam: a net whose CPTs are "
    "not yet complete, in tests/cpnet/test_elicitation.py",
    "repro.prefetch.predictor.CPNetPredictor.candidates(max_candidates)": "test seam: the top "
    "of the ranking that tests/prefetch/test_predictor.py inspects",
    # The paper's sections and experiments.
    "repro.server.interaction.InteractionServer.broadcast(room_id)": "the paper's future work: "
    "broadcasting to one room, set by tests/server/test_triggers.py",
    "repro.server.triggers.TriggerManager.register(once)": "the paper's future work: a dynamic "
    "event trigger that fires once, set by tests/server/test_triggers.py",
    "repro.workloads.prefetch.run_prefetch_session(plan)": "E7: §4.4 prefetching over a "
    "lossy link, set by tests/prefetch/test_lossy.py",
    "repro.prefetch.predictor.CPNetPredictor(rank_decay)": "§4.4 / reference [12]: weight "
    "between consecutive ranks of an author order, bounded by tests/prefetch/test_predictor.py",
    "repro.prefetch.predictor.CPNetPredictor(consequence_discount)": "§4.4 / reference [12]: "
    "weight of a payload a hypothetical choice drags in, bounded by "
    "tests/prefetch/test_predictor.py",
    "repro.document.document.MultimediaDocument.add_component(network_parents)": "§4.2 update "
    "kind 1: a component added under CP-net parents, set by tests/document/test_document.py",
    "repro.document.document.MultimediaDocument.add_component(preferred_order)": "§4.2 update "
    "kind 1: the author's order for an added component, set by tests/document/test_document.py",
    "repro.document.presentation.MMPresentation(media_ref)": "Fig. 6: the database reference of "
    "a presentation's payload, set by tests/document/test_serialize.py",
    "repro.document.presentation.MMPresentation(metadata)": "Fig. 6: a presentation's renderer "
    "hints, set by tests/document/test_presentation.py, tests/document/test_serialize.py",
    "repro.db.orm.MultimediaObjectStore.store_image(texts)": "Fig. 7: an image's text elements "
    "(FLD_TEXTS), set by tests/db/test_orm.py, tests/integration/test_media_pipeline.py",
    "repro.db.orm.MultimediaObjectStore.store_image(compression_matrix)": "Fig. 7: an image's "
    "compression matrix (FLD_CM), set by tests/db/test_orm.py",
    "repro.db.orm.MultimediaObjectStore.store_audio(filename)": "Fig. 7: an audio object's file "
    "name (FLD_FILENAME), set by examples/audio_browsing.py, tests/db/test_orm.py",
    "repro.db.orm.MultimediaObjectStore.store_audio(sectors)": "§3 / Fig. 7: an audio object's "
    "browsable sectors (FLD_SECTORS), set by examples/audio_browsing.py, tests/db/test_orm.py, "
    "tests/integration/test_media_pipeline.py",
    "repro.db.orm.MultimediaObjectStore.store_compressed(filename)": "Fig. 7: a codec stream's "
    "file name (FLD_FILENAME), set by examples/multiresolution_imaging.py, tests/db/test_orm.py",
    "repro.db.orm.MultimediaObjectStore.store_image(quality)": "Fig. 7: an image's quality "
    "(FLD_QUALITY), set by examples/medical_consultation.py, tests/db/test_orm.py, "
    "tests/server/test_zoom_region.py, tests/integration/test_media_pipeline.py, "
    "test_end_to_end.py",
    "repro.media.audio.synth.ConversationBuilder.say(language)": "§3: 'In what language are "
    "they talking?', a conversation that switches language, set by tests/media/test_language.py",
    "repro.media.image.segmentation.fill_segment(value)": "§3: 'fill different segments of the "
    "segmentation with different colors', set by tests/media/test_image_core.py",
    "repro.media.image.segmentation.fill_segment(pattern)": "§3: 'fill different segments of "
    "the segmentation with different ... patterns', set by tests/media/test_image_core.py",
    "repro.media.image.wavelet.haar_inverse(levels)": "codec reconstruction oracle: inverts "
    "haar_forward at the depth each test picks, in tests/media/test_image_codec.py, "
    "test_media_properties.py",
}

ALLOWLIST_SIZE = 39

#: Everything a ``*`` or ``**`` we cannot see into might pass.
EVERYTHING = "*"


@dataclass(frozen=True)
class Option:
    """One settable value: the bare callee name that reaches it, whether
    that is a method's name (else a module function's or a class's), its
    keyword, and its position among a call's arguments (``None``:
    keyword-only)."""

    callee: str
    method: bool
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
    function: ast.FunctionDef, callee: str, method: bool, qualified: str, bound: bool
) -> Iterator[tuple[str, Option]]:
    """The defaulted parameters of *function*, as options."""
    arguments = function.args
    positional = [*arguments.posonlyargs, *arguments.args]
    skip = 1 if bound else 0
    for index, argument in enumerate(positional):
        if index < len(positional) - len(arguments.defaults):
            continue
        yield f"{qualified}({argument.arg})", Option(callee, method, argument.arg, index - skip)
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield f"{qualified}({argument.arg})", Option(callee, method, argument.arg, None)


def _bound(function: ast.FunctionDef) -> bool:
    """Whether calls through an instance or class skip the first parameter."""
    names = {getattr(d, "id", "") for d in function.decorator_list}
    return "staticmethod" not in names


def options(module: str, tree: ast.Module) -> dict[str, Option]:
    """The options *tree* defines, as ``module.Qualname(option)``."""
    found: dict[str, Option] = {}
    #: A dataclass's ``__init__`` fields in order, base classes' first;
    #: ``None`` where a base is not a dataclass of this module.
    layouts: dict[str, list[str] | None] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            layout: list[str] | None = []
            for base in node.bases:
                inherited = layouts.get(getattr(base, "id", ""))
                layout = None if inherited is None or layout is None else layout + inherited
            fields = [
                s for s in node.body
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                and _is_init_field(s)
            ]
            own = [s.target.id for s in fields]
            if layout is not None:
                layout += [name for name in own if name not in layout]
            layouts[node.name] = layout
            if node.name.startswith("_"):
                continue
            for statement in fields:
                if _has_default(statement):
                    name = statement.target.id
                    index = None if layout is None else layout.index(name)
                    found[f"{module}.{node.name}({name})"] = Option(node.name, False, name, index)
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(_parameters(node, node.name, False, f"{module}.{node.name}", False))
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name == "__init__":
                    callee, method = node.name, False
                    qualified = f"{module}.{node.name}"
                elif member.name.startswith("_"):
                    continue
                else:
                    callee, method = member.name, True
                    qualified = f"{module}.{node.name}.{member.name}"
                found.update(_parameters(member, callee, method, qualified, _bound(member)))
    return found


def _reach(
    call: ast.Call, owner: ast.ClassDef | None, modules: set[str]
) -> tuple[str, tuple[bool, ...]]:
    """The bare name a call reaches, and which options of that name it
    can set, as :attr:`Option.method` values: a bare call reaches module
    functions and classes (``cls(...)`` the enclosing class, and
    ``super().__init__(...)`` the base's constructor); ``x.f(...)``
    reaches methods, and module functions and classes too where ``x`` is
    an imported name."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        name = getattr(func, "id", "")
        return (owner.name if name == "cls" and owner is not None else name), (False,)
    root = func.value
    if (
        func.attr == "__init__" and owner is not None and owner.bases
        and isinstance(root, ast.Call) and getattr(root.func, "id", "") == "super"
    ):
        base = owner.bases[0]
        return (base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")), (False,)
    while isinstance(root, ast.Attribute):
        root = root.value
    return func.attr, ((True, False) if getattr(root, "id", None) in modules else (True,))


def _imported(tree: ast.Module) -> set[str]:
    """The names an import statement in *tree* binds."""
    return {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def _benchmarked(call: ast.Call) -> ast.Call | None:
    """The call pytest-benchmark's fixture makes of its first argument:
    ``benchmark(f, *args, **kwargs)`` and ``benchmark.pedantic(f,
    args=(...), kwargs={...})`` both call ``f(*args, **kwargs)``."""
    func = call.func
    if not call.args:
        return None
    if getattr(func, "id", None) == "benchmark":
        return ast.Call(call.args[0], call.args[1:], call.keywords)
    if getattr(func, "attr", None) != "pedantic" or getattr(func.value, "id", None) != "benchmark":
        return None
    given = {keyword.arg: keyword.value for keyword in call.keywords}
    args, kwargs = given.get("args"), given.get("kwargs")
    positional = args.elts if isinstance(args, (ast.Tuple, ast.List)) else (
        [] if args is None else [ast.Starred(args)]
    )
    if isinstance(kwargs, ast.Dict) and all(isinstance(k, ast.Constant) for k in kwargs.keys):
        keywords = [ast.keyword(k.value, v) for k, v in zip(kwargs.keys, kwargs.values)]
    else:
        keywords = [] if kwargs is None else [ast.keyword(None, kwargs)]
    return ast.Call(call.args[0], positional, keywords)


def _calls(
    node: ast.AST, modules: set[str], owner: ast.ClassDef | None = None
) -> Iterator[tuple[ast.Call, str, tuple[bool, ...]]]:
    """Every call under *node*, with what :func:`_reach` says it reaches;
    a benchmark fixture's call adds the call it makes."""
    if isinstance(node, ast.ClassDef):
        owner = node
    if isinstance(node, ast.Call):
        yield node, *_reach(node, owner, modules)
        made = _benchmarked(node)
        if made is not None:
            yield made, *_reach(made, owner, modules)
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, modules, owner)


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


def passes(
    tree: ast.Module, dicts: Mapping[str, set[str]]
) -> Iterator[tuple[bool, str, object]]:
    """``(method, callee, keyword or position)`` for every value a call in
    *tree* passes; :data:`EVERYTHING` where a ``*`` or ``**`` hides which.
    A call reaching both methods and module names yields each."""
    for node, callee, namespaces in _calls(tree, _imported(tree)):
        if callee == "KindSpec" and len(node.args) > 1:
            # A PROTOCOL row: the payload fields it names reach its handler,
            # a server method the dispatcher looks up with getattr.
            handler = node.args[1]
            if isinstance(handler, ast.Constant):
                for part in [*node.args[2:], *(k.value for k in node.keywords)]:
                    for constant in ast.walk(part):
                        if isinstance(constant, ast.Constant):
                            yield True, handler.value, constant.value
        for method in namespaces:
            for what in _arguments(node, dicts):
                yield method, callee, what


def _arguments(call: ast.Call, dicts: Mapping[str, set[str]]) -> Iterator[object]:
    """The keywords and positions *call* passes."""
    for index, argument in enumerate(call.args):
        if isinstance(argument, ast.Starred):
            yield EVERYTHING
            break
        yield index
    for keyword in call.keywords:
        if keyword.arg is not None:
            yield keyword.arg
        elif isinstance(keyword.value, ast.Name) and keyword.value.id in dicts:
            yield from dicts[keyword.value.id]
        else:
            yield EVERYTHING


def heirs(trees: list[ast.Module]) -> dict[str, set[str]]:
    """Class name -> every subclass whose call reaches its constructor:
    a dataclass, or a class defining no ``__init__``, and their heirs."""
    direct: dict[str, set[str]] = defaultdict(set)
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            defines = any(
                isinstance(m, ast.FunctionDef) and m.name == "__init__" for m in node.body
            )
            if defines and not _is_dataclass(node):
                continue
            for base in node.bases:
                name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
                direct[name].add(node.name)
    found: dict[str, set[str]] = {}
    for name in direct:
        seen, stack = set(), [name]
        while stack:
            for heir in direct.get(stack.pop(), ()):
                if heir not in seen:
                    seen.add(heir)
                    stack.append(heir)
        found[name] = seen
    return found


def unset(sources: Mapping[str, str], setters: Mapping[str, str]) -> list[str]:
    """The options defined in *sources* that no call in *setters* passes.

    *sources* maps ``module`` (dotted) to the text of an audited module;
    *setters* maps a name to the text of every module whose calls count.
    """
    trees = [parse(text) for text in setters.values()]
    dicts: dict[str, set[str]] = {}
    for tree in trees:
        dicts.update(module_dicts(tree))
    passed: dict[tuple[bool, str], set[object]] = defaultdict(set)
    for tree in trees:
        for method, callee, what in passes(tree, dicts):
            passed[method, callee].add(what)
    audited = {module: parse(text) for module, text in sources.items()}
    subclasses = heirs([*audited.values(), *trees])
    return sorted(
        qualified
        for module, tree in audited.items()
        for qualified, option in options(module, tree).items()
        if not any(
            {EVERYTHING, option.keyword, option.position} & passed[option.method, callee]
            for callee in (
                option.callee, *(() if option.method else subclasses.get(option.callee, ()))
            )
        )
    )


def audited_packages(src: Path = SRC) -> list[str]:
    """Every package under *src*."""
    return sorted(path.name for path in src.iterdir() if (path / "__init__.py").is_file())


def audited_sources(src: Path = SRC) -> dict[str, str]:
    sources = {}
    for package in audited_packages(src):
        for path in sorted((src / package).rglob("*.py")):
            module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
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
    source = (
        "class Server:\n"
        "    def handle_choice(self, session_id, value, scope='local'):\n"
        "        pass\n"
    )
    row = "KindSpec('choice', 'handle_choice', ('session_id', 'value'), {'scope': 'scope'})\n"
    assert unset({"pkg.mod": source}, {}) == ["pkg.mod.Server.handle_choice(scope)"]
    assert unset({"pkg.mod": source}, {"pkg/protocol.py": row}) == []


def test_a_call_sets_only_options_in_its_namespace():
    source = (
        "def apply(net, value, prefer=True):\n"
        "    pass\n"
        "class Extension:\n"
        "    def apply(self, value, prefer=True):\n"
        "        pass\n"
    )
    both = ["pkg.mod.Extension.apply(prefer)", "pkg.mod.apply(prefer)"]
    assert unset({"pkg.mod": source}, {"a.py": "apply(net, 1)\n"}) == both
    # A function's call is not its same-named method's, nor the reverse.
    assert unset({"pkg.mod": source}, {"a.py": "apply(net, 1, False)\n"}) == both[:1]
    assert unset({"pkg.mod": source}, {"a.py": "ext.apply(1, False)\n"}) == both[1:]
    # Through an imported module, an attribute call reaches the function.
    assert unset({"pkg.mod": source}, {"a.py": "import pkg.mod as m\nm.apply(n, 1, False)\n"}) == []


def test_a_benchmark_fixture_call_sets_its_target():
    source = "class Index:\n    def query(self, probe, k=10, exact=False):\n        pass\n"
    timed = "benchmark(index.query, probe, 5)\n"
    assert unset({"pkg.mod": source}, {"b.py": timed}) == ["pkg.mod.Index.query(exact)"]
    pedantic = "benchmark.pedantic(index.query, args=(probe,), kwargs={'exact': True}, rounds=2)\n"
    assert unset({"pkg.mod": source}, {"b.py": pedantic}) == ["pkg.mod.Index.query(k)"]


def test_a_caller_that_is_only_a_test_does_not_set(tmp_path):
    call = "run(store, seed=3, quick=True, trace=1)\n"
    for path in ("tests/test_mod.py", "examples/tour.py", "src/repro/mod.py"):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(AUDITED if path.startswith("src") else call)
    assert "pkg.mod.run(seed)" in unset({"pkg.mod": AUDITED}, setter_sources(tmp_path))
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench.py").write_text(call)
    assert "pkg.mod.run(seed)" not in unset({"pkg.mod": AUDITED}, setter_sources(tmp_path))


def test_every_package_is_audited(tmp_path):
    src = tmp_path / "repro"
    for package in ("net", "media", "newcomer"):
        (src / package).mkdir(parents=True)
        (src / package / "__init__.py").write_text("")
        (src / package / "mod.py").write_text(AUDITED)
    (src / "notes").mkdir()  # not a package
    assert audited_packages(src) == ["media", "net", "newcomer"]
    missing = unset(audited_sources(src), {})
    assert {"repro.media.mod.run(seed)", "repro.newcomer.mod.run(seed)"} <= set(missing)
    assert len(audited_packages()) == 16


def test_a_subclass_that_inherits_the_constructor_sets_its_base():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Shape:\n"
        "    label: str\n"
        "    size: int = 0\n"
        "@dataclass\n"
        "class Square(Shape):\n"
        "    side: int = 1\n"
        "class Own(Shape):\n"
        "    def __init__(self, label):\n"
        "        pass\n"
    )
    assert unset({"pkg.mod": source}, {"a.py": "Own('x', 3)\n"}) == [
        "pkg.mod.Shape(size)", "pkg.mod.Square(side)",
    ]
    assert unset({"pkg.mod": source}, {"a.py": "Square('x', size=3)\n"}) == [
        "pkg.mod.Square(side)",
    ]
