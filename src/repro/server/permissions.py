"""Session permissions.

"Each client can request the server to show all objects stored in the
database, display an additional information about the object, modify an
object or add a new object (providing that the client has the appropriate
permissions)."
"""

from __future__ import annotations

from repro.errors import PermissionError_

PERM_VIEW = "view"          # see the document and receive updates
PERM_CHOOSE = "choose"      # make presentation choices
PERM_ANNOTATE = "annotate"  # draw/write on objects, perform operations
PERM_MODIFY = "modify"      # add/remove components, store to the database
PERM_ADMIN = "admin"        # manage rooms and other sessions

ALL_PERMISSIONS = frozenset(
    {PERM_VIEW, PERM_CHOOSE, PERM_ANNOTATE, PERM_MODIFY, PERM_ADMIN}
)

#: Typical grants.
VIEWER_GRANT = frozenset({PERM_VIEW, PERM_CHOOSE})
CONSULTANT_GRANT = frozenset({PERM_VIEW, PERM_CHOOSE, PERM_ANNOTATE})
AUTHOR_GRANT = frozenset({PERM_VIEW, PERM_CHOOSE, PERM_ANNOTATE, PERM_MODIFY})


class PermissionPolicy:
    """Grants per viewer; a viewer granted nothing holds
    :data:`CONSULTANT_GRANT`."""

    def __init__(self) -> None:
        self._grants: dict[str, frozenset[str]] = {}

    @staticmethod
    def _check_known(perm: str) -> None:
        if perm not in ALL_PERMISSIONS:
            raise ValueError(f"unknown permission {perm!r}; know {sorted(ALL_PERMISSIONS)}")

    def grant(self, viewer_id: str, permissions: frozenset[str] | set[str]) -> None:
        for perm in permissions:
            self._check_known(perm)
        self._grants[viewer_id] = frozenset(permissions)

    def permissions_of(self, viewer_id: str) -> frozenset[str]:
        return self._grants.get(viewer_id, CONSULTANT_GRANT)

    def allows(self, viewer_id: str, permission: str) -> bool:
        self._check_known(permission)
        return permission in self.permissions_of(viewer_id)

    def require(self, viewer_id: str, permission: str) -> None:
        if not self.allows(viewer_id, permission):
            raise PermissionError_(
                f"viewer {viewer_id!r} lacks the {permission!r} permission"
            )
