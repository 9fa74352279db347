"""The room-scoped subscription registry.

One registry per room maps each member session to its *interest set*:
either the :data:`ALL` sentinel (implicit interest in everything — the
pre-interest behaviour, and the default for sessions that never
subscribe) or an explicit set of component paths. Coverage is a
bidirectional dotted-prefix relation, so subscribing to a component also
covers its operation variables and visibility changes of its enclosing
sections, and subscribing to a section covers everything below it.

Coverage is an index, not a scan: beside each explicit set the registry
keeps the set of its entries' proper dotted ancestors, rebuilt whenever
the explicit set is replaced. A path is then covered if it is a
subscription, an ancestor of one, or has a subscription among its own
proper dotted prefixes — a cost in the depth of the path, not in the
number of subscriptions.

``tuning.*`` variables are always covered: a viewer's own bandwidth
degradation must reach their display no matter how narrow their
interest — otherwise a client could tune itself into a state it can
never observe.

Determinism: every query that returns multiple paths returns them
sorted; internal sets never leak onto the wire.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import RoomError

#: Sentinel interest set: "everything in the room" (never materialized).
ALL = None

#: Variables every session is interested in regardless of subscriptions.
_ALWAYS_PREFIX = "tuning."


class InterestRegistry:
    """Per-session subscription sets over one room's component paths."""

    def __init__(self, universe: Iterable[str] = ()) -> None:
        #: Component paths of the room's document — the materialization of
        #: :data:`ALL` when an unsubscribe needs to narrow it.
        self._universe: tuple[str, ...] = tuple(universe)
        self._subs: dict[str, set[str] | None] = {}
        #: Proper dotted ancestors of each explicit set's entries (no
        #: entry for an ALL session): the "sub is below path" half of
        #: coverage as one set lookup.
        self._above: dict[str, set[str]] = {}

    # ----- membership ---------------------------------------------------------

    def join(self, session_id: str) -> None:
        """A session entered the room: implicit interest in everything."""
        self._subs[session_id] = ALL
        self._above.pop(session_id, None)

    def forget(self, session_id: str) -> None:
        """A session left: it must never linger in any fan-out decision."""
        self._subs.pop(session_id, None)
        self._above.pop(session_id, None)

    def seed(self, session_id: str, components: Iterable[str]) -> tuple[str, ...]:
        """Install default subscriptions (CP-net "relevant parts")."""
        self._require(session_id)
        subs = set(components)
        self._replace(session_id, subs)
        return tuple(sorted(subs))

    def _replace(self, session_id: str, subs: set[str]) -> None:
        """Install *subs* as the session's explicit set, with its index."""
        self._subs[session_id] = subs
        above = set()
        for sub in subs:
            dot = sub.find(".")
            while dot >= 0:
                above.add(sub[:dot])
                dot = sub.find(".", dot + 1)
        self._above[session_id] = above

    def _require(self, session_id: str) -> None:
        if session_id not in self._subs:
            raise RoomError(f"session {session_id!r} has no interest entry")

    @property
    def session_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._subs))

    # ----- subscriptions ------------------------------------------------------

    def subscribe(
        self, session_id: str, components: Iterable[str], replace: bool = False
    ) -> tuple[str, ...]:
        """Add (or with *replace* substitute) explicit subscriptions.

        An explicit subscribe always overrides implicit :data:`ALL`
        interest: the session narrows to exactly the named components
        (plus whatever it subscribes to later).
        """
        self._require(session_id)
        current = self._subs[session_id]
        base: set[str] = set() if (replace or current is ALL) else set(current)
        base.update(components)
        self._replace(session_id, base)
        return tuple(sorted(base))

    def unsubscribe(
        self,
        session_id: str,
        components: Iterable[str] | None = None,
        all_components: bool = False,
    ) -> tuple[str, ...]:
        """Drop subscriptions; ``all_components`` empties the set.

        Unsubscribing from implicit :data:`ALL` materializes it over the
        room's component universe first, then removes the named paths and
        everything below them.
        """
        self._require(session_id)
        if all_components:
            self._replace(session_id, set())
            return ()
        dropped = tuple(components or ())
        current = self._subs[session_id]
        base = set(self._universe) if current is ALL else set(current)
        remaining = {
            sub
            for sub in base
            if not any(sub == c or sub.startswith(c + ".") for c in dropped)
        }
        self._replace(session_id, remaining)
        return tuple(sorted(remaining))

    def subscriptions(self, session_id: str) -> tuple[str, ...] | None:
        """Explicit subscriptions, or ``None`` for implicit ALL."""
        subs = self._subs.get(session_id, ALL)
        return None if subs is ALL else tuple(sorted(subs))

    def explicit_subscriptions(self) -> int:
        """Total explicit subscription entries across the room (gauge)."""
        return sum(len(subs) for subs in self._subs.values() if subs is not ALL)

    # ----- coverage -----------------------------------------------------------

    def covers(self, session_id: str, path: str) -> bool:
        """Would a change to *path* reach this session?

        ALL covers everything; ``tuning.*`` is always covered; otherwise
        the dotted-prefix relation in either direction decides (a
        subscription to a child keeps its ancestors' visibility changes,
        a subscription to a section keeps its descendants').
        """
        subs = self._subs.get(session_id, ALL)
        if subs is ALL:
            return True
        return _covered(subs, self._above[session_id], path)

    def filter_delta(
        self, session_id: str, delta: dict[str, str]
    ) -> dict[str, str]:
        """The covered subset of a presentation delta.

        Returns *delta* itself (not a copy) whenever nothing is withheld;
        for ALL sessions that costs no allocation at all.
        """
        subs = self._subs.get(session_id, ALL)
        if subs is ALL:
            return delta
        above = self._above[session_id]
        kept = {path: value for path, value in delta.items() if _covered(subs, above, path)}
        return delta if len(kept) == len(delta) else kept


def _covered(subs: set[str], above: set[str], path: str) -> bool:
    """*path* against one explicit set and its ancestor index."""
    if path in subs or path in above or path.startswith(_ALWAYS_PREFIX):
        return True
    dot = path.find(".")
    while dot >= 0:
        if path[:dot] in subs:
            return True
        dot = path.find(".", dot + 1)
    return False
