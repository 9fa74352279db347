"""Compiled CP-net evaluation: flat tables, one frozen sweep, owned memo.

The interpreted queries in :mod:`repro.cpnet.reasoning` re-derive the
topological order (Kahn) and re-scan every CPT's rule list (with
most-specific-wins arbitration) on *every* call — per viewer, per choice.
Following Boutilier/Brafman/Domshlak (a single forward sweep through a
fixed topological order is optimal for acyclic nets), this module
compiles a network **once per structural version** into:

* a frozen topological order, and
* per variable, an exact ``parent-value-tuple -> total order`` lookup
  table, resolved at compile time so ``rule_for``'s linear scan and
  specificity tie-breaking never run per query.

Exactness is preserved bit for bit: assignments whose rules are missing
or ambiguous are *not* flattened — they fall back to the interpreted
``rule_for`` at query time, raising the very same
:class:`~repro.errors.IncompleteTableError` the interpreter would, and
CPTs whose parent space exceeds :data:`FLAT_SPACE_LIMIT` flatten lazily
(first query resolves, later queries hit the memo).

Invalidation is driven by the §4.2 update policies: every structural
mutation of :class:`~repro.cpnet.network.CPNet` (and of a
:class:`~repro.cpnet.updates.ViewerExtension`) bumps a version counter;
:func:`compile_cpnet` / :func:`compile_extension` recompile exactly when
the version moved. A recompile re-derives the order and re-strings the
sweep; the flat tables themselves live on their CPTs
(:func:`_flat_table`) and only a CPT that gained a rule is flattened
again — performing an operation adds one variable, so it builds one
table and, as §4.2 asks, revisits no other. Viewer extensions compile as
*overlays* swept over the base net's completion (base variables never
depend on extension variables): the base is never copied nor re-swept
per viewer (§4.2: the shared network "should not be duplicated").

The base compilation owns a :class:`CompletionCache`, a small LRU memo of
its completed outcomes keyed by the frozen evidence alone; overlays keep
none. Ownership is the invalidation: whatever lets go of a compilation
(a structural edit, a closed room, a re-fetched document) lets go of its
completions, and nothing else can reach them.
Metrics: ``cpnet.compile``, ``cpnet.compiled.completions`` and
``cpnet.completion_cache.{hits,misses,evictions,invalidations}`` in
:mod:`repro.obs`.

``set_compiled_enabled(False)`` / :func:`interpreted_mode` force every
call site back onto the interpreted engine — the chaos convergence gate
uses it to prove compiled and interpreted runs end byte-identical.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.errors import IncompleteTableError
from repro.cpnet.cpt import CPT
from repro.cpnet.network import CPNet
from repro.obs import get_registry

Assignment = Mapping[str, str]

#: Per-CPT eager flattening budget: parent spaces larger than this are
#: resolved lazily (first query interprets, later queries hit the memo)
#: so compiling a net with one huge table stays cheap and bounded.
FLAT_SPACE_LIMIT = 4096

_enabled = True


def compiled_enabled() -> bool:
    """True while call sites should use the compiled evaluator."""
    return _enabled


def set_compiled_enabled(on: bool) -> bool:
    """Flip the global compiled/interpreted switch; returns the old value."""
    global _enabled
    previous = _enabled
    _enabled = bool(on)
    return previous


@contextmanager
def interpreted_mode() -> Iterator[None]:
    """Force the interpreted engine within the block (convergence control)."""
    previous = set_compiled_enabled(False)
    try:
        yield
    finally:
        set_compiled_enabled(previous)


#: Sweep-entry kinds (see :attr:`_FlatTable.entry`).
_CONST, _ONE_PARENT, _GENERAL = 0, 1, 2


class _FlatTable:
    """One variable's compiled CPT: parent-value tuple -> total order.

    A table belongs to the CPT it flattens (:func:`_flat_table`), not to
    a compilation, and is valid for as long as that CPT holds
    ``rule_count`` rules — so ``orders`` and the sweep entry's ``firsts``
    may memoize lazily resolved cells across net versions.

    ``entry`` is the table's branch-specialized step of the forward sweep,
    ``(name, kind, const, parent, parents, firsts, table)``:

    * ``_CONST`` — no parents and a resolved row: the best value is a
      compile-time constant;
    * ``_ONE_PARENT`` — ``firsts`` maps the parent's bare value straight
      to the best value (no tuple build per query);
    * ``_GENERAL`` — ``firsts`` maps the parent-value tuple to the best
      value; misses fall back to the interpreted ``rule_for`` (lazy
      tables, incomplete cells) and are memoized.
    """

    __slots__ = (
        "name", "variable", "parent_names", "orders", "cpt", "rule_count", "entry",
    )

    def __init__(self, cpt: CPT) -> None:
        self.name = cpt.variable.name
        self.variable = cpt.variable
        names = self.parent_names = cpt.parent_names
        self.cpt = cpt
        self.rule_count = len(cpt.rules)
        orders: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.orders = orders
        if cpt.parent_space_size() <= FLAT_SPACE_LIMIT:
            domains = [p.domain for p in cpt.parents]
            for combo in itertools.product(*domains):
                try:
                    rule = cpt.rule_for(dict(zip(names, combo)))
                except IncompleteTableError:
                    # Missing/ambiguous cells keep the interpreter's lazy
                    # error semantics: they raise on first *query*, not
                    # at compile time.
                    continue
                orders[combo] = rule.order
        if not names and () in orders:
            self.entry = (self.name, _CONST, orders[()][0], None, (), None, self)
        elif len(names) == 1 and orders:
            firsts = {key[0]: order[0] for key, order in orders.items()}
            self.entry = (self.name, _ONE_PARENT, None, names[0], names, firsts, self)
        else:
            firsts = {key: order[0] for key, order in orders.items()}
            self.entry = (self.name, _GENERAL, None, None, names, firsts, self)

    def order_for_key(self, key: tuple[str, ...]) -> tuple[str, ...]:
        """Total order for a full parent-value tuple (memoizing misses)."""
        order = self.orders.get(key)
        if order is None:
            order = self.cpt.rule_for(dict(zip(self.parent_names, key))).order
            self.orders[key] = order
        return order

    def order_for(self, assignment: Assignment) -> tuple[str, ...]:
        """Total order given any assignment covering the parents.

        Partial assignments (a parent unset) bypass the flat table and
        take the interpreted most-specific-rule path, uncached — exactly
        what :meth:`CPT.order_for` would do.
        """
        key = tuple(assignment.get(p) for p in self.parent_names)
        if None in key:
            return self.cpt.rule_for(assignment).order
        order = self.orders.get(key)  # type: ignore[arg-type]
        if order is None:
            order = self.cpt.rule_for(assignment).order
            self.orders[key] = order  # type: ignore[index]
        return order


def _flat_table(cpt: CPT) -> _FlatTable:
    """The flat table of *cpt* — the one way to obtain one.

    Kept on the CPT and rebuilt only when *that* CPT gained a rule:
    staleness is the CPT's own rule count, never a net version, so a
    §4.2 operation (one new leaf) flattens exactly one table and
    "should not revisit the CP-tables" of anything else. Re-parenting
    and projection mint new ``CPT`` objects, which start without one.
    """
    table = cpt._flat
    if table is None or table.rule_count != len(cpt.rules):
        table = cpt._flat = _FlatTable(cpt)
    return table


def _run_plan(
    plan: tuple[tuple, ...], fixed: Mapping[str, str], outcome: dict[str, str]
) -> dict[str, str]:
    """Execute sweep entries in order, writing into *outcome*."""
    for name, kind, const, parent, parents, firsts, table in plan:
        if name in fixed:
            outcome[name] = fixed[name]
        elif kind == _CONST:
            outcome[name] = const
        elif kind == _ONE_PARENT:
            value = outcome[parent]
            try:  # subscript-on-hit beats .get(): the hot path is a hit
                outcome[name] = firsts[value]
            except KeyError:
                best = table.order_for_key((value,))[0]
                firsts[value] = best
                outcome[name] = best
        else:
            key = tuple(map(outcome.__getitem__, parents))
            try:
                outcome[name] = firsts[key]
            except KeyError:
                best = table.order_for_key(key)[0]
                firsts[key] = best
                outcome[name] = best
    return outcome


class CompiledCPNet:
    """A CP-net frozen into a topologically ordered sequence of flat tables.

    Built by :func:`compile_cpnet`; valid for exactly one
    ``net.structure_version``. ``best_completion`` performs the forward
    sweep through a branch-specialized plan — at most one dict lookup per
    free variable; no graph traversal, no rule scan, no specificity
    arbitration, no per-variable function call.
    """

    __slots__ = (
        "net", "version", "order", "_tables", "_sweep", "_plan",
        "_optimal", "_completions", "_m_completions",
    )

    def __init__(self, net: CPNet) -> None:
        self.net = net
        self.version = net.structure_version
        self.order: tuple[str, ...] = tuple(net.topological_order())
        cpts = net._cpts
        self._tables: dict[str, _FlatTable] = {
            name: _flat_table(cpts[name]) for name in self.order
        }
        self._sweep: tuple[_FlatTable, ...] = tuple(self._tables.values())
        self._plan = tuple(table.entry for table in self._sweep)
        # The no-evidence completion is a constant of the compilation;
        # memoized lazily (an incomplete table must still raise on the
        # first actual query, not at compile time).
        self._optimal: dict[str, str] | None = None
        self._completions: CompletionCache | None = None
        self._m_completions = get_registry().counter("cpnet.compiled.completions")

    @property
    def stale(self) -> bool:
        """True once the net mutated past this compilation."""
        return self.version != self.net.structure_version

    @property
    def completions(self) -> "CompletionCache":
        """This compilation's memo, made when first asked for."""
        memo = self._completions
        if memo is None:
            memo = self._completions = CompletionCache()
        return memo

    def table(self, name: str) -> _FlatTable:
        return self._tables[name]

    def order_for(self, name: str, assignment: Assignment) -> tuple[str, ...]:
        """Flat replacement for ``net.cpt(name).order_for(assignment)``."""
        return self._tables[name].order_for(assignment)

    def best_value(self, name: str, assignment: Assignment) -> str:
        return self._tables[name].order_for(assignment)[0]

    def best_completion(self, evidence: Assignment) -> dict[str, str]:
        """Best outcome consistent with *evidence* — the compiled sweep.

        Byte-identical to :func:`repro.cpnet.reasoning.best_completion`
        on the same net (same values, same key order, same errors for
        bad evidence or incomplete tables).
        """
        if not evidence:
            memo = self._optimal
            if memo is None:
                memo = self._optimal = _run_plan(self._plan, {}, {})
            self._m_completions.inc()
            return dict(memo)  # callers mutate outcomes (subtree hiding)
        fixed = self.net.check_partial(evidence)
        outcome = _run_plan(self._plan, fixed, {})
        self._m_completions.inc()
        return outcome

    def optimal_outcome(self) -> dict[str, str]:
        return self.best_completion({})

    def __repr__(self) -> str:
        flat = sum(len(t.orders) for t in self._sweep)
        return (
            f"CompiledCPNet({self.net.name!r}, v{self.version}, "
            f"{len(self.order)} vars, {flat} flat rows)"
        )


class CompiledExtension:
    """A viewer extension compiled as an overlay on a shared base compilation.

    Only the viewer-local variables get their own flat tables, swept over
    a completion of the (shared, never copied) base :class:`CompiledCPNet`.
    Valid for one (base version, extension version) pair.
    """

    __slots__ = ("extension", "base", "version", "_sweep", "_plan")

    def __init__(self, extension: Any, base: CompiledCPNet) -> None:
        self.extension = extension
        self.base = base
        self.version = extension.extension_version
        # Insertion order respects parent creation (see ViewerExtension).
        self._sweep: tuple[_FlatTable, ...] = tuple(
            map(_flat_table, extension._cpts.values())
        )
        self._plan = tuple(table.entry for table in self._sweep)

    def overlay(self, evidence: Assignment, values: Assignment) -> dict[str, str]:
        """The viewer-local variables alone, swept over *values*: the base
        net's completion as its sweep left it (read through a working
        copy: plain dict probes beat a chained lookup)."""
        swept = _run_plan(self._plan, evidence, dict(values))
        return {table.name: swept[table.name] for table in self._sweep}

    def best_completion(self, evidence: Assignment) -> dict[str, str]:
        """Best outcome over base + extension variables, compiled: the
        base compilation's sweep, then this overlay over it."""
        for name, value in evidence.items():
            self.extension.variable(name).check_value(value)
        net = self.base.net
        outcome = self.base.best_completion({n: v for n, v in evidence.items() if n in net})
        outcome.update(self.overlay(evidence, outcome))
        return outcome


def compile_cpnet(net: CPNet) -> CompiledCPNet:
    """The (memoized) compilation of *net* at its current version.

    The compiled object is cached on the network itself; a structural
    mutation (version bump) triggers exactly one recompile on the next
    call, and the replaced compilation's completions go with it. Each
    actual compile increments the ``cpnet.compile`` counter.
    """
    cached: CompiledCPNet | None = getattr(net, "_compiled", None)
    if cached is not None and not cached.stale:
        return cached
    if cached is not None and cached._completions is not None:
        cached._completions.invalidate()
    compiled = CompiledCPNet(net)
    net._compiled = compiled  # type: ignore[attr-defined]
    get_registry().counter("cpnet.compile").inc()
    return compiled


def compile_extension(extension: Any) -> CompiledExtension:
    """The (memoized) overlay compilation of a :class:`ViewerExtension`."""
    base = compile_cpnet(extension.base)
    cached: CompiledExtension | None = getattr(extension, "_compiled", None)
    version = extension.extension_version
    if cached is not None and cached.base is base and cached.version == version:
        return cached
    compiled = CompiledExtension(extension, base)
    extension._compiled = compiled
    get_registry().counter("cpnet.compile").inc()
    return compiled


#: Completions one base compilation remembers before the least recently
#: used goes; the ledger workloads hold at most 29 per compilation.
MAX_COMPLETIONS = 256


def completion_key(evidence: Assignment) -> tuple[tuple[str, str], ...]:
    """Canonical memo key: the frozen evidence, nothing else — which net,
    version and overlay is a matter of whose memo is asked."""
    return tuple(sorted(evidence.items()))


class CachedCompletion:
    """One memo entry: a completed outcome plus what was derived from it.

    ``outcome`` belongs to the memo: hand out copies, and rewrite it
    only in ways every reader of the entry would repeat anyway (the
    presentation engine finishes subtree hiding in place, which is
    idempotent). ``view`` is a slot for whatever is derived from the
    outcome alone — the engine keeps its viewer-independent view here;
    it must be safe to share, and goes wherever the entry goes.
    """

    __slots__ = ("outcome", "view")

    def __init__(self, outcome: dict[str, str]) -> None:
        self.outcome = outcome
        self.view: Any = None


class CompletionCache:
    """LRU memo of one base compilation's completions (``.completions``
    of :func:`compile_cpnet`), keyed by :func:`completion_key`: everyone
    asking the same question of the base net — room members with equal
    constraints on it, whatever their overlays, and the document's own
    §5.1 queries — shares one sweep.

    :meth:`lookup` and :meth:`store` deal in *copies*: callers are free
    to mutate the outcome they get back (subtree hiding does), and memo
    state can never leak into anything a caller ships — replication
    replay on another replica recomputes the same bytes.
    :meth:`entry` hands out the live :class:`CachedCompletion` for
    callers that share a derived view instead of re-deriving it.
    """

    __slots__ = ("_entries", "_m_hits", "_m_misses")

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple[Any, ...], CachedCompletion] = OrderedDict()
        registry = get_registry()
        self._m_hits = registry.counter("cpnet.completion_cache.hits")
        self._m_misses = registry.counter("cpnet.completion_cache.misses")

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, key: tuple[Any, ...]) -> CachedCompletion | None:
        """The live entry for *key*, or ``None`` — one counted lookup."""
        entry = self._entries.get(key)
        if entry is None:
            self._m_misses.inc()
            return None
        self._entries.move_to_end(key)
        self._m_hits.inc()
        return entry

    def lookup(self, key: tuple[Any, ...]) -> dict[str, str] | None:
        """The cached outcome for *key* (a fresh copy), or ``None``."""
        entry = self.entry(key)
        return None if entry is None else dict(entry.outcome)

    def store(self, key: tuple[Any, ...], outcome: Mapping[str, str]) -> CachedCompletion:
        """Memoize a copy of *outcome* under *key*, evicting the LRU entry
        if full; returns the new entry."""
        entry = self._entries[key] = CachedCompletion(dict(outcome))
        self._entries.move_to_end(key)
        if len(self._entries) > MAX_COMPLETIONS:
            self._entries.popitem(last=False)
            get_registry().counter("cpnet.completion_cache.evictions").inc()
        return entry

    def invalidate(self) -> int:
        """Drop every entry; returns the count. Called on the memo of a
        compilation being replaced, so the counter reads how many
        completions the §4.2 edits made unanswerable."""
        dropped = len(self._entries)
        self._entries.clear()
        get_registry().counter("cpnet.completion_cache.invalidations").inc(dropped)
        return dropped
