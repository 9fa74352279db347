"""Counts an owner keeps by label, read by a registry counter family."""

from typing import Any

from repro.obs.metrics import Readers


class LabelCounts(dict):
    """An owner's counts of one counter family, keyed by the label values
    after its fixed *prefix* (a tuple for several). A key's first count
    binds the family's child for it to read the count, so the series
    appears with its first event; ``get`` reads without binding, and
    ``release`` unbinds every key's reader (the owner's close)."""

    __slots__ = ("_family", "_prefix", "_readers")

    def __init__(self, family: Any, *prefix: str) -> None:
        super().__init__()
        self._family, self._prefix = family, prefix
        self._readers = Readers(None)

    def __missing__(self, key: Any) -> int:
        labels = key if type(key) is tuple else (key,)
        self._readers.labels(self._family, *self._prefix, *labels, read=lambda: self[key])
        return 0

    def release(self) -> None:
        self._readers.release()
