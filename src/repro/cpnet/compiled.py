"""Compiled CP-net evaluation: flat tables, one frozen sweep, shared cache.

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
*overlay* layers that share the base compilation — the base is never
copied (§4.2: the shared network "should not be duplicated").

On top sits :class:`CompletionCache`, a bounded LRU memo of completed
outcomes keyed by (doc id, instance-salted version token, overlay token,
frozen evidence items) — see :func:`completion_key` for why the salts
matter across re-fetches and viewer rejoins.
It is designed to live at **shard scope** (one per
:class:`~repro.server.interaction.InteractionServer`): identical
constraint sets across viewers, rooms and sessions hit the same entry.
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
        "_optimal", "_m_completions",
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
        self._m_completions = get_registry().counter("cpnet.compiled.completions")

    @property
    def stale(self) -> bool:
        """True once the net mutated past this compilation."""
        return self.version != self.net.structure_version

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

    Only the viewer-local variables get their own flat tables; the base
    sweep is the (shared, never copied) :class:`CompiledCPNet` of the
    base network. Valid for one (base version, extension version) pair.
    """

    __slots__ = ("extension", "base", "version", "_sweep", "_plan", "_m_completions")

    def __init__(self, extension: Any, base: CompiledCPNet) -> None:
        self.extension = extension
        self.base = base
        self.version = extension.extension_version
        # Insertion order respects parent creation (see ViewerExtension).
        self._sweep: tuple[_FlatTable, ...] = tuple(
            map(_flat_table, extension._cpts.values())
        )
        self._plan = tuple(table.entry for table in self._sweep)
        self._m_completions = get_registry().counter("cpnet.compiled.completions")

    @property
    def stale(self) -> bool:
        return (
            self.version != self.extension.extension_version
            or self.base.stale
        )

    def best_completion(self, evidence: Assignment) -> dict[str, str]:
        """Best outcome over base + extension variables, compiled."""
        extension = self.extension
        fixed: dict[str, str] = {}
        for name, value in evidence.items():
            extension.variable(name).check_value(value)
            fixed[name] = value
        outcome = _run_plan(self.base._plan, fixed, {})
        _run_plan(self._plan, fixed, outcome)
        self._m_completions.inc()
        return outcome


def compile_cpnet(net: CPNet) -> CompiledCPNet:
    """The (memoized) compilation of *net* at its current version.

    The compiled object is cached on the network itself; a structural
    mutation (version bump) triggers exactly one recompile on the next
    call. Each actual compile increments the ``cpnet.compile`` counter.
    """
    cached: CompiledCPNet | None = getattr(net, "_compiled", None)
    if cached is not None and not cached.stale:
        return cached
    compiled = CompiledCPNet(net)
    net._compiled = compiled  # type: ignore[attr-defined]
    get_registry().counter("cpnet.compile").inc()
    return compiled


def compile_extension(extension: Any) -> CompiledExtension:
    """The (memoized) overlay compilation of a :class:`ViewerExtension`."""
    base = compile_cpnet(extension.base)
    cached: CompiledExtension | None = getattr(extension, "_compiled", None)
    if cached is not None and cached.base is base and not cached.stale:
        return cached
    compiled = CompiledExtension(extension, base)
    extension._compiled = compiled
    get_registry().counter("cpnet.compile").inc()
    return compiled


def completion_key(
    doc_id: str,
    version_token: Any,
    overlay: tuple[Any, ...],
    evidence: Assignment,
) -> tuple[Any, ...]:
    """Canonical cache key: (doc, version token, overlay id, frozen evidence).

    *version_token* must be unique per (network instance, structural
    version) — callers pass :attr:`CPNet.version_token`, which salts the
    bare version counter with a process-unique instance id. The salt is
    load-bearing: ``structure_version`` restarts at 0 when a persisted
    document is re-fetched into a fresh ``CPNet``, so the bare counter
    could re-reach an old number with different network content while the
    shard-scoped cache still holds the old entries.

    *overlay* is ``()`` for viewers with an empty extension — which is
    how identical constraint sets across viewers and sessions land on
    the same entry — and ``(viewer_id, ext_instance_id, ext_version)``
    otherwise (the instance id keeps a rejoining viewer's fresh extension
    from re-reaching her discarded one's keys).
    """
    return (doc_id, version_token, overlay, tuple(sorted(evidence.items())))


class CachedCompletion:
    """One cache entry: a completed outcome plus what was derived from it.

    ``outcome`` belongs to the cache: hand out copies, and rewrite it
    only in ways every reader of the entry would repeat anyway (the
    presentation engine finishes subtree hiding in place, which is
    idempotent). ``view`` is a slot for whatever is derived from the
    outcome alone — the engine keeps its viewer-independent view here;
    it must be safe to share, and LRU eviction and
    :meth:`CompletionCache.invalidate` reclaim it with the entry.
    """

    __slots__ = ("outcome", "view")

    def __init__(self, outcome: dict[str, str]) -> None:
        self.outcome = outcome
        self.view: Any = None


class CompletionCache:
    """Bounded LRU memo of completed outcomes, shared at shard scope.

    :meth:`lookup` and :meth:`store` deal in *copies*: callers are free
    to mutate the outcome they get back (subtree hiding does), and cache
    state can never leak into anything a caller ships — replication
    replay on a cacheless replica recomputes the same bytes.
    :meth:`entry` hands out the live :class:`CachedCompletion` for
    callers that share a derived view instead of re-deriving it.

    Keys are :func:`completion_key` tuples. Entries under a non-empty
    overlay token are reachable by one viewer at one extension version
    only, so they are also indexed by that token: :meth:`drop_overlay`
    reclaims them, O(1) each, the moment the token dies.
    """

    def __init__(self, max_entries: int = 2048) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[Any, ...], CachedCompletion] = OrderedDict()
        self._by_overlay: dict[tuple[Any, ...], set[tuple[Any, ...]]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        registry = get_registry()
        self._m_hits = registry.counter("cpnet.completion_cache.hits")
        self._m_misses = registry.counter("cpnet.completion_cache.misses")
        self._m_evictions = registry.counter("cpnet.completion_cache.evictions")
        self._m_invalidations = registry.counter("cpnet.completion_cache.invalidations")
        self._g_size = registry.gauge("cpnet.completion_cache.size")

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, key: tuple[Any, ...]) -> CachedCompletion | None:
        """The live entry for *key*, or ``None`` — one counted lookup."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._m_misses.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
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
        if key[2]:
            self._by_overlay.setdefault(key[2], set()).add(key)
        while len(self._entries) > self.max_entries:
            self._unindex(self._entries.popitem(last=False)[0])
            self.evictions += 1
            self._m_evictions.inc()
        self._g_size.set(len(self._entries))
        return entry

    def _unindex(self, key: tuple[Any, ...]) -> None:
        """Forget a removed entry's overlay-index slot, if it had one."""
        if key[2]:
            keys = self._by_overlay[key[2]]
            keys.discard(key)
            if not keys:
                del self._by_overlay[key[2]]

    def drop_overlay(self, overlay: tuple[Any, ...]) -> int:
        """Drop every entry keyed under *overlay*; returns the count.

        Called when a viewer's extension version moves or the viewer
        leaves: the old token can never be looked up again, and its
        entries would otherwise sit in the LRU ageing out live ones.
        """
        keys = self._by_overlay.pop(overlay, ())
        for key in keys:
            del self._entries[key]
        return self._reclaimed(len(keys))

    def _reclaimed(self, dropped: int) -> int:
        """Account *dropped* eagerly reclaimed entries; returns the count."""
        if dropped:
            self.invalidations += dropped
            self._m_invalidations.inc(dropped)
        self._g_size.set(len(self._entries))
        return dropped

    def invalidate(self, doc_id: str | None = None) -> int:
        """Drop entries for *doc_id* (or everything); returns the count.

        Called by the §4.2 update paths and when a room closes. Keys are
        salted with :attr:`CPNet.version_token` (instance id + version),
        so a structural change — or re-fetching the document into a
        fresh network — makes old keys unreachable; this call is the
        eager reclamation that keeps those dead entries from aging out
        live ones. Do not rely on the bare ``structure_version`` being
        in the key: it restarts per network instance and is only unique
        in combination with the instance salt.
        """
        if doc_id is None:
            dropped = len(self._entries)
            self._entries.clear()
            self._by_overlay.clear()
        else:
            stale = [key for key in self._entries if key[0] == doc_id]
            for key in stale:
                del self._entries[key]
                self._unindex(key)
            dropped = len(stale)
        return self._reclaimed(dropped)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return (
            f"CompletionCache({len(self._entries)}/{self.max_entries} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
