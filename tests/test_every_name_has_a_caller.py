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
or DESIGN, the ROADMAP item, or the test it serves. The allowlist only
shrinks: :data:`ALLOWLIST_SIZE` pins its length the way
``tests/test_design_budget.py`` pins line counts.
"""

from __future__ import annotations

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Mapping

from tests.source_index import parse

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``module.Qualname`` -> why it stays with no caller outside tests.
ALLOWLIST: dict[str, str] = {
    # The paper's claims and DESIGN §3's inventory.
    "repro.cpnet.updates.ViewerExtension.promote_to_base": "§4.2: a viewer's operation "
    "made important to all viewers",
    "repro.document.document.MultimediaDocument.add_component": "§4.2 / E8: online "
    "document edits add components",
    "repro.document.document.MultimediaDocument.remove_component": "§4.2 / E8: online "
    "document edits remove components",
    "repro.db.orm.MultimediaObjectStore.register_type": "Fig. 7: addition of new data types",
    "repro.media.audio.topics.subject_of": "§3: 'What is the subject of the talk?'",
    "repro.media.audio.wordspot.WordSpotter.spot_stream": "§3 / DESIGN §3: word spotting "
    "raises flags in continuous speech",
    "repro.media.audio.hmm.CDHMM.viterbi": "DESIGN §3: CD-HMM Viterbi decoding",
    "repro.media.image.segmentation.fill_segment": "DESIGN §3: segmentation grid region fill",
    "repro.media.image.ops.AnnotatedImage.delete_element": "§3: deleting of text elements "
    "and line elements",
    "repro.server.permissions.PermissionPolicy.grant": "DESIGN §3: per-viewer permissions",
    "repro.net.network.SimulatedNetwork.set_peer_link": "DESIGN §7: a peer link installed "
    "mid-run carries the next send",
    "repro.cluster.shard.ShardServer.replication_lag": "ROADMAP item 6a: replication lag "
    "on the ledger",
    "repro.util.failpoints.use_failpoints": "DESIGN §8: crash injection at named failpoints",
    "repro.util.failpoints.Failpoints.armed": "DESIGN §8: crash injection at named failpoints",
    # Oracles: an independent answer a test checks the program against.
    "repro.cpnet.dominance.worsening_flips": "dominance oracle, flipping semantics of "
    "Boutilier et al.: tests/cpnet/test_dominance.py",
    "repro.cpnet.reasoning.iter_outcomes": "brute-force oracle: tests/cpnet/test_reasoning.py, "
    "test_dominance.py",
    "repro.cpnet.reasoning.is_optimal": "optimality oracle: tests/cpnet/test_reasoning.py, "
    "test_properties.py",
    "repro.cpnet.cpt.CPT.prefers": "ceteris-paribus comparison a CPT encodes: "
    "tests/cpnet/test_cpt.py, test_network.py",
    "repro.media.image.wavelet.haar_inverse": "codec reconstruction oracle: "
    "tests/media/test_image_codec.py, test_media_properties.py",
    "repro.media.audio.hmm.CDHMM.log_backward": "forward-backward oracle: "
    "tests/media/test_audio_models.py",
    "repro.presentation.spec.build_spec": "from-scratch spec oracle: "
    "tests/presentation/test_engine.py, test_spec.py",
    "repro.presentation.engine.PresentationEngine.clear_choice": "inverse of apply_choice in "
    "the by-definition replay of tests/presentation/test_engine.py",
    "repro.cpnet.updates.ViewerExtension.extension_names": "viewer-local variables: "
    "tests/cpnet/test_compiled.py",
    "repro.cluster.shard.ShardServer.standby_for": "ROADMAP item 1(ii): "
    "tests/cluster/test_standby_equivalence.py, tests/integration/test_zero_residue.py",
    "repro.cluster.gateway.Gateway.shard_of_session": "session route: "
    "tests/cluster/test_gateway_routing.py, test_failover.py",
    "repro.cluster.gatewaytier.GatewayDirectory.shard_of_session": "session route: "
    "tests/cluster/test_gateway_routing.py, test_failover.py",
    "repro.cluster.admission.AdmissionController.shed_floor": "shed floor per session: "
    "tests/cluster/test_admission.py",
    "repro.obs.metrics.MetricsRegistry.families": "ROADMAP item 1(iii) label residue: "
    "tests/server/test_interaction.py",
    "repro.client.buffer.ClientBuffer.used_bytes": "§4.4 bounded buffer occupancy: "
    "tests/client/test_buffer.py",
    "repro.client.client.ClientModule.tuning_level": "§4.4 self-degradation level: "
    "tests/client/test_degradation.py",
    "repro.presentation.profile.ViewerProfile.observations": "profile persistence: "
    "tests/presentation/test_profile.py",
    "repro.net.batch.Batcher.pending_count": "frames awaiting flush: tests/net/test_batch.py",
    "repro.net.codec.StringInterner.id_of": "interning lockstep: tests/net/test_codec.py",
    "repro.net.reliable.ReliableTransport.in_flight": "unacked frames: "
    "tests/net/test_reliable.py",
    "repro.obs.events.EventLog.filter": "test seam: the recorded events under one name "
    "prefix, read by tests/integration/test_fault_events.py, test_unknown_kind.py, "
    "tests/obs/test_events.py, tests/client/test_instrumentation.py, tests/db/test_engine.py, "
    "tests/cluster/test_gateway_robustness.py, test_gatewaytier.py, test_admission.py, "
    "test_failover.py",
}

ALLOWLIST_SIZE = 35

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


def test_the_allowlist_only_names_uncalled_names():
    missing = repo_uncalled()
    assert sorted(set(ALLOWLIST) - set(missing)) == []
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_the_allowlist_only_shrinks():
    assert len(ALLOWLIST) == ALLOWLIST_SIZE


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
