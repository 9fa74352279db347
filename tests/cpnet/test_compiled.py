"""Compiled CP-net evaluation: exactness, invalidation, and the owned memo.

The headline property (ISSUE satellite): the compiled engine is
**byte-identical** to the interpreted reference — same values, same dict
insertion order, same errors — including after §4.2 update sequences and
through per-viewer extensions. Byte-identity is asserted via
``json.dumps`` (which preserves dict order), not set equality.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CyclicNetworkError, IncompleteTableError
from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.cpnet import (
    CPNet,
    CompletionCache,
    apply_operation,
    best_completion,
    compile_cpnet,
    compile_extension,
    compiled_enabled,
    completion_key,
    figure2_network,
    interpreted_mode,
    optimal_outcome,
)
from repro.cpnet.compiled import MAX_COMPLETIONS
from repro.cpnet.examples import FIGURE2_OPTIMAL, random_dag_network
from repro.cpnet.updates import ViewerExtension, add_component_variable


def dumps(outcome):
    return json.dumps(outcome)  # insertion order preserved = sweep order


# ----- exactness on the paper's network ------------------------------------------


class TestCompiledExactness:
    def test_figure2_optimal(self):
        net = figure2_network()
        assert compile_cpnet(net).optimal_outcome() == FIGURE2_OPTIMAL

    def test_matches_interpreted_byte_for_byte(self):
        net = figure2_network()
        compiled = compile_cpnet(net)
        for evidence in ({}, {"c2": "c2_1"}, {"c1": "c1_2", "c5": "c5_1"}):
            with interpreted_mode():
                reference = best_completion(net, evidence)
            assert dumps(compiled.best_completion(evidence)) == dumps(reference)

    def test_order_for_matches_cpt(self):
        net = figure2_network()
        compiled = compile_cpnet(net)
        outcome = optimal_outcome(net)
        for name in net.variable_names:
            assert compiled.order_for(name, outcome) == net.cpt(name).order_for(outcome)

    def test_bad_evidence_raises_like_interpreter(self):
        net = figure2_network()
        compiled = compile_cpnet(net)
        with pytest.raises(Exception) as compiled_err:
            compiled.best_completion({"c1": "nonsense"})
        with pytest.raises(Exception) as interpreted_err:
            best_completion(net, {"c1": "nonsense"})
        assert type(compiled_err.value) is type(interpreted_err.value)

    def test_incomplete_table_raises_lazily(self):
        """Missing CPT cells must raise on *query*, not at compile time."""
        net = CPNet("incomplete")
        net.add_variable("a", ("a1", "a2"))
        net.add_rule("a", {}, ("a1", "a2"))
        net.add_variable("b", ("b1", "b2"), parents=("a",))
        net.add_rule("b", {"a": "a1"}, ("b1", "b2"))  # no rule for a=a2
        compiled = compile_cpnet(net)  # must not raise
        assert compiled.best_completion({})["b"] == "b1"
        with pytest.raises(IncompleteTableError):
            compiled.best_completion({"a": "a2"})

    def test_oversized_cpt_flattens_lazily(self):
        """A parent space over FLAT_SPACE_LIMIT is resolved per query."""
        from repro.cpnet import compiled as compiled_mod

        net = figure2_network()
        old_limit = compiled_mod.FLAT_SPACE_LIMIT
        compiled_mod.FLAT_SPACE_LIMIT = 0
        try:
            lazy = compile_cpnet(net.copy())
        finally:
            compiled_mod.FLAT_SPACE_LIMIT = old_limit
        assert all(not t.orders for t in lazy._sweep)  # nothing eager
        assert lazy.optimal_outcome() == FIGURE2_OPTIMAL
        # The first query memoized the visited cells.
        assert any(t.orders for t in lazy._sweep)


# ----- compilation memo + invalidation --------------------------------------------


class TestCompilationInvalidation:
    def test_compile_is_memoized(self):
        net = figure2_network()
        assert compile_cpnet(net) is compile_cpnet(net)

    def test_structural_mutations_bump_version_and_recompile(self):
        net = figure2_network()
        first = compile_cpnet(net)
        v0 = net.structure_version
        apply_operation(net, "c2", "segment", "c2_2")
        assert net.structure_version > v0
        assert first.stale
        second = compile_cpnet(net)
        assert second is not first
        assert "c2.segment" in second.order

    def test_remove_variable_invalidates(self):
        net = figure2_network()
        apply_operation(net, "c2", "segment", "c2_2")
        first = compile_cpnet(net)
        net.remove_variable("c2.segment")
        assert first.stale
        assert "c2.segment" not in compile_cpnet(net).order

    def test_compile_counter_counts_real_compiles_only(self):
        with use_registry(MetricsRegistry()):
            net = figure2_network()
            compile_cpnet(net)
            compile_cpnet(net)
            compile_cpnet(net)
            assert get_registry().counter("cpnet.compile").value == 1
            add_component_variable(net, "extra", ("on", "off"))
            compile_cpnet(net)
            assert get_registry().counter("cpnet.compile").value == 2

    def test_extension_overlay_shares_base_compilation(self):
        net = figure2_network()
        base = compile_cpnet(net)
        ext = ViewerExtension(net, "ines")
        ext.apply_operation("c2", "segment", "c2_2")
        overlay = compile_extension(ext)
        assert overlay.base is base  # §4.2: the base is never duplicated
        # A viewer-local mutation recompiles only the overlay.
        ext.add_variable("note", ("shown", "hidden"))
        ext.add_rule("note", {}, ("shown", "hidden"))
        overlay2 = compile_extension(ext)
        assert overlay2 is not overlay
        assert overlay2.base is base

    def test_extension_overlay_matches_interpreted(self):
        net = figure2_network()
        ext = ViewerExtension(net, "ines")
        ext.apply_operation("c2", "segment", "c2_2")
        for evidence in ({}, {"c2": "c2_2"}, {"c2.segment": "applied"}):
            assert dumps(compile_extension(ext).best_completion(evidence)) == dumps(
                ext.interpreted_best_completion(evidence)
            )


# ----- a flat table belongs to its CPT (§4.2: "no CPT revisit") ---------------------


class TestTablesLiveWithTheirCPT:
    def test_operations_flatten_exactly_the_new_table(self):
        net = figure2_network()
        ext = ViewerExtension(net, "ines")
        ext.apply_operation("c2", "crop", "c2_1")
        base, overlay = compile_cpnet(net), compile_extension(ext)
        kept = {name: base.table(name) for name in base.order}
        crop = overlay._sweep[0]

        apply_operation(net, "c2", "segment", "c2_2")  # global
        rebased = compile_cpnet(net)
        assert rebased is not base  # a new compilation, re-strung...
        for name, table in kept.items():
            assert rebased.table(name) is table  # ...from the same tables
        assert all(rebased.table("c2.segment") is not t for t in kept.values())

        ext.apply_operation("c3", "zoom", "c3_2")  # viewer-local
        regrown = compile_extension(ext)
        assert regrown is not overlay and regrown.base is rebased
        assert [t.name for t in regrown._sweep] == ["c2.crop", "c3.zoom"]
        assert regrown._sweep[0] is crop
        assert compile_cpnet(net) is rebased  # the base was not recompiled

    def test_a_touched_cpt_is_flattened_again(self):
        net = figure2_network()
        add_component_variable(net, "note", ("shown", "hidden"), parents=("c1",))
        first = compile_cpnet(net)
        assert first.best_completion({"c1": "c1_2"})["note"] == "shown"
        # Re-ruled: a more specific row changes a cell the table resolved.
        net.add_rule("note", {"c1": "c1_2"}, ("hidden", "shown"))
        second = compile_cpnet(net)
        assert second.table("note") is not first.table("note")
        assert second.table("c3") is first.table("c3")
        assert second.best_completion({"c1": "c1_2"})["note"] == "hidden"
        # Re-parented: set_parents mints a new CPT, so a new table.
        net.set_parents("note", ("c2",))
        net.add_rule("note", {}, ("shown", "hidden"))
        third = compile_cpnet(net)
        assert third.table("note") is not second.table("note")
        assert third.table("note").parent_names == ("c2",)
        # Projected: removing c3 rewrites the CPTs of c4 and c5 only.
        net.remove_variable("c3", reparent_children=True)
        fourth = compile_cpnet(net)
        for name in ("c4", "c5"):
            assert fourth.table(name) is not third.table(name)
            assert fourth.table(name).parent_names == ()
        for name in ("c1", "c2", "note"):
            assert fourth.table(name) is third.table(name)

    def test_lazily_memoized_cells_do_not_outlive_a_new_rule(self, monkeypatch):
        """Over FLAT_SPACE_LIMIT nothing is flattened eagerly: the table
        and its sweep entry memoize the cells queries visit. A rule that
        changes such a cell must retire both memos."""
        from repro.cpnet import compiled as compiled_mod

        monkeypatch.setattr(compiled_mod, "FLAT_SPACE_LIMIT", 0)
        net = figure2_network().copy()
        add_component_variable(net, "note", ("shown", "hidden"), parents=("c1",))
        table = compile_cpnet(net).table("note")
        assert not table.orders
        assert compile_cpnet(net).best_completion({})["note"] == "shown"
        assert table.orders and table.entry[5]  # both memoized c1=c1_1
        net.add_rule("note", {"c1": "c1_1"}, ("hidden", "shown"))
        assert compile_cpnet(net).best_completion({})["note"] == "hidden"

    def test_install_tuning_reflattens_the_tuned_components_only(self):
        from repro.document import build_sample_medical_record
        from repro.presentation.tuning import TUNING_VARIABLE, install_bandwidth_tuning

        document = build_sample_medical_record()
        net = document.network
        before = compile_cpnet(net)
        kept = {name: before.table(name) for name in before.order}
        tuned = install_bandwidth_tuning(document)
        after = compile_cpnet(net)
        assert tuned
        for name, table in kept.items():
            assert (after.table(name) is table) == (name not in tuned)
        for evidence in ({}, {TUNING_VARIABLE: "low"}, {TUNING_VARIABLE: "medium"}):
            with interpreted_mode():
                reference = best_completion(net, evidence)
            assert dumps(after.best_completion(evidence)) == dumps(reference)

    def test_promoted_variables_get_tables_of_their_own(self):
        net = figure2_network()
        ext = ViewerExtension(net, "ines")
        ext.apply_operation("c2", "crop", "c2_1")
        local = compile_extension(ext)._sweep[0]
        ext.promote_to_base()
        assert compile_extension(ext)._sweep == ()
        promoted = compile_cpnet(net).table("c2.crop")
        assert promoted is not local and net.cpt("c2.crop")._flat is promoted

    def test_the_table_is_not_part_of_the_cpts_value(self):
        from repro.cpnet.serialize import network_to_dict

        net, twin = figure2_network(), figure2_network()
        compile_cpnet(net).optimal_outcome()
        for name in net.variable_names:
            assert net.cpt(name)._flat is not None and twin.cpt(name)._flat is None
            assert net.cpt(name) == twin.cpt(name)
            assert repr(net.cpt(name)) == repr(twin.cpt(name))
        assert network_to_dict(net) == network_to_dict(twin)

    def test_two_instances_of_a_document_keep_separate_tables(self):
        """A primary and its standby hold separate network instances."""
        primary = figure2_network()
        standby = primary.copy()
        ours, theirs = compile_cpnet(primary), compile_cpnet(standby)
        for name in ours.order:
            assert ours.table(name) is not theirs.table(name)


# ----- global switch ----------------------------------------------------------------


class TestEngineSwitch:
    def test_interpreted_mode_restores(self):
        assert compiled_enabled()
        with interpreted_mode():
            assert not compiled_enabled()
            with interpreted_mode():
                assert not compiled_enabled()
            assert not compiled_enabled()
        assert compiled_enabled()

    def test_extension_best_completion_routes_by_switch(self):
        net = figure2_network()
        ext = ViewerExtension(net, "ines")
        with interpreted_mode():
            reference = ext.best_completion({})
        assert not hasattr(ext, "_compiled") or ext._compiled is None
        compiled = ext.best_completion({})
        assert dumps(compiled) == dumps(reference)


# ----- completions live with their compilation ---------------------------------------


def memo_counters():
    registry = get_registry()
    return {
        name: int(registry.counter(f"cpnet.completion_cache.{name}").value)
        for name in ("hits", "misses", "evictions", "invalidations")
    }


class TestCompletionCache:
    def test_hit_miss_accounting(self):
        with use_registry(MetricsRegistry()):
            cache = compile_cpnet(figure2_network()).completions
            key = completion_key({"c1": "c1_1"})
            assert cache.lookup(key) is None
            cache.store(key, {"c1": "c1_1", "c2": "c2_2"})
            assert cache.lookup(key) == {"c1": "c1_1", "c2": "c2_2"}
            assert len(cache) == 1
            assert memo_counters() == {
                "hits": 1, "misses": 1, "evictions": 0, "invalidations": 0,
            }

    def test_the_key_is_the_frozen_evidence_alone(self):
        assert completion_key({}) == ()
        assert completion_key({"b": "2", "a": "1"}) == (("a", "1"), ("b", "2"))
        assert completion_key({"a": "1", "b": "2"}) == completion_key({"b": "2", "a": "1"})

    def test_lookup_returns_copies(self):
        cache = CompletionCache()
        key = completion_key({})
        cache.store(key, {"a": "1"})
        first = cache.lookup(key)
        first["a"] = "mutated"  # subtree hiding mutates outcomes in place
        assert cache.lookup(key) == {"a": "1"}

    def test_lru_eviction(self):
        with use_registry(MetricsRegistry()):
            cache = CompletionCache()
            keys = [completion_key({"x": str(i)}) for i in range(MAX_COMPLETIONS + 1)]
            for key in keys[:-1]:
                cache.store(key, {"a": "1"})
            assert len(cache) == MAX_COMPLETIONS
            cache.lookup(keys[0])  # keys[0] is now most-recent
            cache.store(keys[-1], {"a": "3"})
            assert len(cache) == MAX_COMPLETIONS
            assert cache.lookup(keys[1]) is None  # the LRU entry went
            assert cache.lookup(keys[0]) is not None
            assert memo_counters()["evictions"] == 1

    def test_a_memo_is_made_when_first_asked_for(self):
        net = figure2_network()
        extension = ViewerExtension(net, "ines")
        extension.best_completion({"c1": "c1_1"})
        # Sweeping memoizes nothing by itself, and an overlay has no memo
        # at all: its viewer's base completion is the base net's to keep.
        assert compile_cpnet(net)._completions is None
        assert not hasattr(compile_extension(extension), "completions")
        memo = compile_cpnet(net).completions
        assert memo is compile_cpnet(net).completions and len(memo) == 0

    def test_a_structural_edit_leaves_the_memo_behind(self):
        with use_registry(MetricsRegistry()):
            net = figure2_network()
            old = compile_cpnet(net)
            old.completions.store(completion_key({}), old.best_completion({}))
            old.completions.store(completion_key({"c1": "c1_1"}), {"c1": "c1_1"})
            apply_operation(net, "c2", "segment", "c2_2")
            fresh = compile_cpnet(net)
            assert fresh is not old and net._compiled is fresh
            assert fresh._completions is None  # nothing carried over
            assert fresh.completions.lookup(completion_key({})) is None
            # The replaced compilation's entries were let go, and counted.
            assert len(old.completions) == 0
            assert memo_counters()["invalidations"] == 2

    def test_a_moved_extension_version_leaves_the_overlay_memo_behind(self):
        """An overlay keeps no completions, so a viewer-local operation
        has nothing to let go of: it recompiles the overlay alone, and the
        base completion every viewer shares stays answerable."""
        with use_registry(MetricsRegistry()):
            net = figure2_network()
            extension = ViewerExtension(net, "ines")
            extension.apply_operation("c2", "segment", "c2_2")
            old = compile_extension(extension)
            base_memo = compile_cpnet(net).completions
            base_memo.store(completion_key({}), compile_cpnet(net).best_completion({}))
            extension.apply_operation("c1", "zoom", "c1_1")
            fresh = compile_extension(extension)
            assert fresh is not old and fresh.base is old.base
            assert memo_counters()["invalidations"] == 0
            assert compile_cpnet(net).completions is base_memo and len(base_memo) == 1

    def test_two_instances_of_a_net_never_meet(self):
        """Regression (PR 10 review): a persisted document re-fetched
        into a fresh CPNet restarts structure_version at 0 and can reach
        the same count with different content. Each instance owns its
        compilation, so the old instance's completions are not a lookup
        away from the new one's — no salt needed."""
        first, second = figure2_network(), figure2_network()
        assert first.structure_version == second.structure_version
        compile_cpnet(first).completions.store(completion_key({}), {"c1": "stale"})
        assert compile_cpnet(second).completions.lookup(completion_key({})) is None


# ----- the headline property: compiled == interpreted, byte for byte ---------------

nets = st.builds(
    random_dag_network,
    num_variables=st.integers(min_value=1, max_value=12),
    domain_size=st.integers(min_value=2, max_value=4),
    max_parents=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)


@st.composite
def net_and_evidence(draw):
    net = draw(nets)
    names = list(net.variable_names)
    chosen = draw(
        st.lists(st.sampled_from(names), unique=True, max_size=len(names))
        if names
        else st.just([])
    )
    evidence = {
        name: draw(st.sampled_from(net.variable(name).domain)) for name in chosen
    }
    return net, evidence


@given(net_and_evidence())
@settings(max_examples=60, deadline=None)
def test_compiled_byte_identical_to_interpreted(net_evidence):
    net, evidence = net_evidence
    with interpreted_mode():
        reference = best_completion(net, evidence)
    assert dumps(compile_cpnet(net).best_completion(evidence)) == dumps(reference)


@given(net_and_evidence(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_compiled_byte_identical_after_update_sequences(net_evidence, seed):
    """§4.2 update policies between queries: recompilations stay exact."""
    import random

    net, evidence = net_evidence
    rng = random.Random(seed)
    compiled = compile_cpnet(net)  # compile *before* mutating
    # A short §4.2 sequence: an operation, a component add, a removal.
    target = rng.choice(net.variable_names)
    apply_operation(net, target, "zoom", rng.choice(net.variable(target).domain))
    add_component_variable(net, "added.one", ("on", "off"))
    net.remove_variable(f"{target}.zoom")
    assert compiled.stale
    with interpreted_mode():
        reference = best_completion(net, evidence)
    assert dumps(compile_cpnet(net).best_completion(evidence)) == dumps(reference)


@given(net_and_evidence(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_compiled_byte_identical_through_extensions(net_evidence, seed):
    """Viewer overlays: compiled overlay == interpreted extension sweep."""
    import random

    net, evidence = net_evidence
    rng = random.Random(seed)
    ext = ViewerExtension(net, "viewer")
    target = rng.choice(net.variable_names)
    ext.apply_operation(target, "crop", rng.choice(net.variable(target).domain))
    ext.add_variable("local.note", ("shown", "hidden"), parents=(target,))
    ext.add_rule("local.note", {}, ("hidden", "shown"))
    reference = ext.interpreted_best_completion(evidence)
    assert dumps(compile_extension(ext).best_completion(evidence)) == dumps(reference)
    # ...and with evidence on an extension variable too.
    evidence2 = {**evidence, f"{target}.crop": "applied"}
    assert dumps(compile_extension(ext).best_completion(evidence2)) == dumps(
        ext.interpreted_best_completion(evidence2)
    )


# ----- tables live with their CPT: long §4.2 sequences, queried at every step ------

TUNING = "tuning.bandwidth"
STEPS = (
    "global_operation", "local_operation", "add_component", "add_partial",
    "append_rule", "set_parents", "install_tuning", "project", "promote",
)


def _answer(query, evidence):
    """The outcome as bytes, or the error class when the tables cannot
    answer (incomplete or ambiguous cells raise on both engines)."""
    try:
        return dumps(query(evidence))
    except IncompleteTableError as exc:
        return type(exc).__name__


class _EditScript:
    """One random §4.2 history over a net and one viewer's extension."""

    def __init__(self, net, rng):
        self.net, self.rng = net, rng
        self.ext = ViewerExtension(net, "viewer")
        self.serial = 0

    def fresh(self, stem):
        self.serial += 1
        return f"{stem}{self.serial}"

    def shuffled(self, domain):
        order = list(domain)
        self.rng.shuffle(order)
        return order

    def pick(self, names):
        name = self.rng.choice(sorted(names))
        return name, self.rng.choice(self.ext.variable(name).domain)

    def evidence(self, names, share):
        """Pin each variable with probability *share* (sparse evidence
        consults most tables; dense evidence still gets an outcome out of
        a net whose edits left some cells ambiguous)."""
        chosen = [n for n in sorted(names) if self.rng.random() < share]
        return {n: self.rng.choice(self.ext.variable(n).domain) for n in chosen}

    def some_rule(self, cpt):
        """A rule on a random non-empty subset of *cpt*'s parents: more
        specific than a catch-all (the cell's answer changes), a tie with
        a fully enumerated row (the cell turns ambiguous)."""
        parents = self.rng.sample(cpt.parents, self.rng.randint(1, len(cpt.parents)))
        condition = {p.name: self.rng.choice(p.domain) for p in parents}
        return condition, self.shuffled(cpt.variable.domain)

    # -- the steps -----------------------------------------------------------

    def global_operation(self):
        target, value = self.pick(self.net.variable_names)
        apply_operation(self.net, target, self.fresh("op"), value)

    def local_operation(self):
        names = self.net.variable_names + self.ext.extension_names
        target, value = self.pick(names)
        self.ext.apply_operation(target, self.fresh("lop"), value)

    def add_component(self):
        names = sorted(self.net.variable_names)
        parents = self.rng.sample(names, self.rng.randint(0, min(2, len(names))))
        domain = ("on", "off", "dim")
        add_component_variable(
            self.net, self.fresh("added"), domain, parents, self.shuffled(domain)
        )

    def add_partial(self):
        """A child whose table covers one parent value only: every other
        cell raises on query until append_rule completes it."""
        parent, value = self.pick(self.net.variable_names)
        name = self.fresh("partial")
        self.net.add_variable(name, ("a", "b"), parents=(parent,))
        self.net.add_rule(name, {parent: value}, self.shuffled(("a", "b")))

    def append_rule(self):
        """A rule appended to a CPT that was already flattened (and whose
        cells, under a tiny FLAT_SPACE_LIMIT, were memoized by queries)."""
        partial = [n for n in self.net.variable_names
                   if [rule.specificity for rule in self.net.cpt(n).rules] == [1]]
        if partial:
            domain = self.net.variable(partial[0]).domain
            self.net.add_rule(partial[0], {}, self.shuffled(domain))
            return
        base = [n for n in self.net.variable_names if self.net.cpt(n).parents]
        local = [n for n in self.ext.extension_names if self.ext._cpts[n].parents]
        if local and (not base or self.rng.random() < 0.4):
            name = self.rng.choice(local)
            self.ext.add_rule(name, *self.some_rule(self.ext._cpts[name]))
        elif base:
            name = self.rng.choice(base)
            self.net.add_rule(name, *self.some_rule(self.net.cpt(name)))

    def set_parents(self):
        names = sorted(self.net.variable_names)
        name = self.rng.choice(names)
        if name == TUNING:
            return  # the tuning variable stays a root, as the policy makes it
        others = [n for n in names if n != name]
        parents = self.rng.sample(others, self.rng.randint(0, min(2, len(others))))
        try:
            self.net.set_parents(name, parents)
        except CyclicNetworkError:
            return
        domain = self.net.variable(name).domain
        self.net.add_rule(name, {}, self.shuffled(domain))
        if parents:
            self.net.add_rule(name, *self.some_rule(self.net.cpt(name)))

    def install_tuning(self):
        """`install_bandwidth_tuning`'s network edit, on one more variable:
        re-parent under the tuning root, keep each old row, add two
        more-specific rows beside it."""
        net = self.net
        if TUNING not in net:
            add_component_variable(net, TUNING, ("high", "medium", "low"))
        untuned = [n for n in net.variable_names
                   if n != TUNING and TUNING not in net.parents(n)]
        if not untuned:
            return
        name = self.rng.choice(sorted(untuned))
        cpt = net.cpt(name)
        old_rules = list(cpt.rules)
        net.set_parents(name, cpt.parent_names + (TUNING,))
        for rule in old_rules:
            condition = dict(rule.condition)
            net.add_rule(name, condition, rule.order)
            for level in ("medium", "low"):
                net.add_rule(name, {**condition, TUNING: level}, self.shuffled(rule.order))

    def project(self):
        """Remove a variable, projecting its children's tables. (One the
        viewer's extension hangs off stays: §4.2 removes components, and
        an overlay on a removed component is out of this property.)"""
        held = {p.name for cpt in self.ext._cpts.values() for p in cpt.parents}
        free = [n for n in self.net.variable_names if n not in held]
        if len(self.net) > 1 and free:
            self.net.remove_variable(self.rng.choice(sorted(free)), reparent_children=True)

    def promote(self):
        self.ext.promote_to_base()

    # -- the check -----------------------------------------------------------

    def check(self):
        net, ext = self.net, self.ext
        for share in (0.15, 0.7):
            evidence = self.evidence(net.variable_names, share)
            with interpreted_mode():
                reference = _answer(lambda e: best_completion(net, e), evidence)
            assert _answer(compile_cpnet(net).best_completion, evidence) == reference
            evidence.update(self.evidence(ext.extension_names, share))
            assert _answer(compile_extension(ext).best_completion, evidence) == _answer(
                ext.interpreted_best_completion, evidence
            )


@given(
    nets,
    st.lists(st.sampled_from(STEPS), min_size=12, max_size=40),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from((0, 2, 4096)),
)
@settings(max_examples=60, deadline=None)
def test_compiled_byte_identical_at_every_step_of_long_edit_sequences(
    net, steps, seed, flat_limit
):
    """Compile and query after *every* §4.2 step: a table kept from an
    earlier compilation must answer exactly as a fresh one would."""
    import random

    from repro.cpnet import compiled as compiled_mod

    script = _EditScript(net, random.Random(seed))
    old_limit = compiled_mod.FLAT_SPACE_LIMIT
    compiled_mod.FLAT_SPACE_LIMIT = flat_limit  # 0/2: cells memoize on query
    try:
        script.check()
        for step in steps:
            getattr(script, step)()
            script.check()
    finally:
        compiled_mod.FLAT_SPACE_LIMIT = old_limit


# ----- a §4.2 overlay over the room's shared base completion ---------------------

OVERLAY_VIEWERS = ("ines", "omar")


@st.composite
def overlaid_engines(draw):
    """The sample record served to two viewers with random extensions:
    operations on its components, and local variables whose parents are
    base variables or the viewer's earlier local variables."""
    from repro.cpnet.updates import operation_variable_name
    from repro.document import build_sample_medical_record
    from repro.presentation import PresentationEngine

    document = build_sample_medical_record()
    engine = PresentationEngine(document)
    for viewer in OVERLAY_VIEWERS:
        engine.register_viewer(viewer)
        extension = engine.extension(viewer)
        for index in range(draw(st.integers(min_value=0, max_value=4))):
            if draw(st.booleans()):
                component = draw(st.sampled_from(document.component_paths()))
                domain = document.network.variable(component).domain
                extension.apply_operation(component, f"op{index}", draw(st.sampled_from(domain)))
                assert operation_variable_name(component, f"op{index}") in extension
                continue
            name = f"{viewer}.local{index}"
            pool = list(document.network.variable_names) + list(extension.extension_names)
            parents = draw(st.lists(st.sampled_from(pool), unique=True, max_size=2))
            domain = ("a", "b", "c")[: draw(st.integers(min_value=2, max_value=3))]
            extension.add_variable(name, domain, parents=parents)
            extension.add_rule(name, {}, draw(st.permutations(domain)))
            cells = st.tuples(*(st.sampled_from(extension.variable(p).domain) for p in parents))
            for combo in draw(st.lists(cells, unique=True, max_size=3)) if parents else ():
                extension.add_rule(name, dict(zip(parents, combo)), draw(st.permutations(domain)))
    return engine


def _outcome_or_error(query):
    try:
        return dumps(query())
    except Exception as exc:  # the error class is the answer
        return type(exc).__name__


@given(overlaid_engines(), st.data())
@settings(max_examples=50, deadline=None)
def test_an_overlay_over_the_shared_base_is_one_whole_sweep(engine, data):
    """A viewer's presentation is the room's base completion plus their
    overlay, swept over the base values *before* subtree hiding. It must
    equal one interpreted sweep over base and extension variables with
    hiding after it — same values, same key order, compiled or
    interpreted — and invalid evidence must raise what that sweep raises.
    Shared choices may name the other viewer's extension variables: they
    constrain only that viewer."""
    from contextlib import nullcontext

    from repro.presentation.engine import PERSONAL, SHARED, ViewerChoice

    document = engine.document
    network = document.network
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        viewer = data.draw(st.sampled_from(OVERLAY_VIEWERS))
        extension = engine.extension(viewer)
        names = list(network.variable_names) + list(extension.extension_names)
        name = data.draw(st.sampled_from(names))
        value = data.draw(st.sampled_from(extension.variable(name).domain))
        scope = data.draw(st.sampled_from((SHARED, PERSONAL)))
        engine.apply_choice(ViewerChoice(viewer, name, value, scope))
    everything = list(network.variable_names) + ["no.such.variable"] + [
        name for viewer in OVERLAY_VIEWERS for name in engine.extension(viewer).extension_names
    ]
    names = data.draw(st.lists(st.sampled_from(everything), unique=True, max_size=6))
    evidence = {}
    for name in names:
        owner = next(
            (engine.extension(v) for v in OVERLAY_VIEWERS if name in engine.extension(v)), None
        )
        domain = owner.variable(name).domain if owner is not None else ()
        evidence[name] = data.draw(st.sampled_from(domain + ("bogus",)))
    for mode in (interpreted_mode, nullcontext):
        with mode():
            engine.invalidate()
            for viewer in OVERLAY_VIEWERS:
                extension = engine.extension(viewer)
                chosen = {c: v for c, v in engine.shared_choices.items() if c in extension}
                chosen.update(engine.personal_choices(viewer))
                expected = document._enforce_subtree_hiding(
                    extension.interpreted_best_completion(chosen)
                )
                assert dumps(engine.presentation_for(viewer).outcome) == dumps(expected)
                # Arbitrary evidence, past a base memo hit and a miss alike.
                valid = {
                    n: v for n, v in evidence.items()
                    if n in network and v in network.variable(n).domain
                }
                engine._spec(viewer, extension, valid, completion_key(valid), 0.0)
                on_base = all(name in network for name in evidence)
                key = completion_key(evidence) if on_base else None
                assert _outcome_or_error(
                    lambda: engine._spec(viewer, extension, dict(evidence), key, 0.0).outcome
                ) == _outcome_or_error(
                    lambda: document._enforce_subtree_hiding(
                        extension.interpreted_best_completion(evidence)
                    )
                )
