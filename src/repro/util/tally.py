"""Counts an owner keeps by label, read by a registry counter family."""

from typing import Any


class LabelCounts(dict):
    """An owner's counts of one counter family, keyed by the label values
    after its fixed *prefix* (a tuple for several). A key's first count
    binds the family's child for it to read the count, so the series
    appears with its first event; ``get`` reads without binding."""

    __slots__ = ("_family", "_prefix")

    def __init__(self, family: Any, *prefix: str) -> None:
        super().__init__()
        self._family, self._prefix = family, prefix

    def __missing__(self, key: Any) -> int:
        labels = key if type(key) is tuple else (key,)
        self._family.labels(*self._prefix, *labels, read=lambda: self[key])
        return 0
