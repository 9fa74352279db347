"""The interaction server (paper Section 3, component 2).

"This module is responsible for the cooperative work in the system. ...
The interaction server keeps track of all objects in and out of shared
rooms. If a client makes a change on a multi-media object, that change is
immediately propagated to other clients in the room."

* :mod:`repro.server.protocol` — the message vocabulary and honest wire
  sizing for the simulated network;
* :mod:`repro.server.permissions` — per-session rights (view / choose /
  annotate / modify / admin);
* :mod:`repro.server.room` — a shared room: one open document, its
  presentation engine, freeze bookkeeping and change numbering;
* :mod:`repro.server.interaction` — the server itself: sessions, rooms,
  database fetch/store, change propagation (diff-only) through its
  outbox, and the hub-node glue.
"""

from repro.server.interaction import InteractionServer
from repro.server.permissions import (
    PERM_ADMIN,
    PERM_ANNOTATE,
    PERM_CHOOSE,
    PERM_MODIFY,
    PERM_VIEW,
    PermissionPolicy,
)
from repro.server.protocol import MessageKind, encoded_size
from repro.server.room import Room
from repro.server.session import Session

__all__ = [
    "InteractionServer",
    "MessageKind",
    "PERM_ADMIN",
    "PERM_ANNOTATE",
    "PERM_CHOOSE",
    "PERM_MODIFY",
    "PERM_VIEW",
    "PermissionPolicy",
    "Room",
    "Session",
    "encoded_size",
]
