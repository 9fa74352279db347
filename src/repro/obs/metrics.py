"""Counters, gauges and fixed-bucket histograms.

One tally per fact: a count an owner takes on its hot path (per encode,
transmission or routed copy) is a plain integer it keeps, and the
registry reads it when asked. ``counter``, ``gauge`` and a family's
``labels`` take that zero-argument ``read``, which closes over the
owner's small tally (a stats record, a dict of counts), never over the
owner, so the registry keeps no server, network or client alive.

- A gauge is read from its owner; nothing sets it, and a child belongs
  to its newest reader.
- A counter's value is what ``inc`` added (per-op counts no owner
  keeps) plus the sum of its readers.
- A reader binds to the registry active when its owner is built, or
  when the first event of its series happens.
- Histograms stay instruments: ``observe`` is one bisect.

Labelled *families* add bounded dimensionality: a family's children,
keyed by label values (``registry.counter_family("db.rows_scanned",
("table",)).labels("patients")``), register under canonical names such
as ``db.rows_scanned{table="patients"}``, so every exporter sees them
with no special casing. Past ``MAX_SERIES`` label sets, new ones
collapse into one shared ``"__other__"`` child. ``remove`` drops a
child with its readers; for a label the overflow child absorbed, it
takes that label's readers off the shared child (a counter keeps what
they counted).

A :class:`NullRegistry` hands out shared no-op instruments and binds no
reader: it silences histograms and per-op counters; owners still keep
their integers, unread.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Mapping, Sequence

#: Default bucket bounds for latency histograms (seconds, 1 µs → 30 s).
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0,
)

#: Default bucket bounds for byte-size histograms (64 B → 256 MB).
SIZE_BUCKETS: tuple[float, ...] = tuple(float(64 * 4**i) for i in range(12))

#: Default bucket bounds for count-valued histograms (1 → 1M).
COUNT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
)


#: What a zero-argument reader returns: one owner's current count or level.
Reader = Callable[[], "int | float"]


class Counter:
    """A monotonically increasing count: what call sites add, plus what
    the owners' tallies it reads hold."""

    __slots__ = ("name", "_added", "_readers")

    def __init__(self, name: str) -> None:
        self.name = name
        self._added: int | float = 0
        self._readers: list[Reader] = []

    def inc(self, amount: int | float = 1) -> None:
        self._added += amount

    def bind(self, read: Reader) -> None:
        """Add one more owner's tally to this count."""
        self._readers.append(read)

    def unbind(self, read: Reader) -> None:
        """Drop one owner's tally, keeping what it counted."""
        self._readers.remove(read)
        self._added += read()

    @property
    def value(self) -> int | float:
        value = self._added
        for read in self._readers:
            value += read()
        return value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A level read from its owner (occupancy, depth, live bytes)."""

    __slots__ = ("name", "_read")

    def __init__(self, name: str) -> None:
        self.name = name
        self._read: Reader = int  # reads 0 until an owner binds

    def bind(self, read: Reader) -> None:
        """Make *read* the owner of this level (the newest owner wins)."""
        self._read = read

    def unbind(self, read: Reader) -> None:
        """Drop *read*; a level whose owner is gone reads 0."""
        if self._read is read:
            self._read = int

    @property
    def value(self) -> int | float:
        return self._read()

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram with p50/p90/p99 summaries.

    ``bounds`` are the inclusive upper edges of the buckets; one overflow
    bucket catches everything above the last bound. The summary's
    quantiles come from :func:`quantile_from_buckets`.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS) -> None:
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds!r}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: int | float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def summary(self) -> dict[str, Any]:
        """Deterministic serializable summary (used by the exporters)."""
        return histogram_summary(
            self.bounds, self.bucket_counts, self.count, self.total, self.min, self.max
        )

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


def histogram_summary(
    bounds: Sequence[float],
    bucket_counts: Sequence[int],
    count: int,
    total: float,
    minimum: float | None,
    maximum: float | None,
) -> dict[str, Any]:
    """The summary dict of a histogram's state, live or serialized
    (:meth:`Histogram.summary`, the exporters' diff, the monitor's merge)."""
    return {
        "count": count,
        "total": total,
        "mean": (total / count) if count > 0 else None,
        "min": minimum,
        "max": maximum,
        "p50": quantile_from_buckets(bounds, bucket_counts, count, minimum, maximum, 0.50),
        "p90": quantile_from_buckets(bounds, bucket_counts, count, minimum, maximum, 0.90),
        "p99": quantile_from_buckets(bounds, bucket_counts, count, minimum, maximum, 0.99),
        "bounds": list(bounds),
        "bucket_counts": list(bucket_counts),
    }


def quantile_from_buckets(
    bounds: Sequence[float],
    bucket_counts: Sequence[int],
    count: int,
    minimum: float | None,
    maximum: float | None,
    q: float,
) -> float | None:
    """The one quantile estimate of a histogram's state (``None`` when empty).

    Linear inside the bucket that holds rank ``q * count``: the first
    populated bucket's lower edge is the observed *minimum* and every
    upper edge is clamped to the observed *maximum* (both are set
    whenever *count* is), so the estimate always lies in
    ``[minimum, maximum]`` and never decreases with *q*.
    """
    if count <= 0:
        return None
    target = q * count
    cumulative = 0
    for index, bucket_count in enumerate(bucket_counts):
        if bucket_count and cumulative + bucket_count >= target:
            hi = min(bounds[index], maximum) if index < len(bounds) else maximum
            lo = min(bounds[index - 1], hi) if cumulative else minimum
            return lo + (hi - lo) * (target - cumulative) / bucket_count
        cumulative += bucket_count
    return maximum


#: Label values a family collapses to once :data:`MAX_SERIES` is exceeded.
OVERFLOW_LABEL = "__other__"

#: Per-family series bound.
MAX_SERIES = 64


class MetricFamily:
    """A group of same-named instruments split by label values.

    ``labels(*values)`` resolves the child for one label set, creating it
    on first use. Call sites that know their labels at construction time
    resolve the child once and keep the handle — the hot path then pays
    exactly what an unlabelled instrument costs.
    """

    __slots__ = (
        "name", "kind", "label_names", "_children", "_absorbed", "_store", "_make"
    )

    def __init__(
        self,
        name: str,
        kind: str,
        label_names: Sequence[str],
        store: dict[str, Any],
        make: Callable[[str], Any],
    ) -> None:
        if not label_names:
            raise ValueError(f"family {name!r} needs at least one label name")
        self.name = name
        self.kind = kind
        self.label_names = tuple(str(n) for n in label_names)
        self._children: dict[tuple[str, ...], Any] = {}
        # Readers each label past MAX_SERIES bound to the overflow child.
        self._absorbed: dict[tuple[str, ...], list[tuple[Any, Reader]]] = {}
        self._store = store
        self._make = make

    def labels(self, *values: Any, read: Reader | None = None) -> Any:
        """The child instrument for one label-value tuple; *read* binds
        an owner's tally to it (see :meth:`Counter.bind`, :meth:`Gauge.bind`)."""
        # Children are keyed by their str() label tuple, so all-string
        # labels of a live child hit here without being rebuilt.
        child = self._children.get(values)
        if child is None:
            child = self._child(values, read)
        if read is not None:
            child.bind(read)
        return child

    def _child(self, values: tuple[Any, ...], read: Reader | None) -> Any:
        if len(values) != len(self.label_names):
            raise ValueError(
                f"family {self.name!r} takes labels {self.label_names}, "
                f"got {len(values)} value(s)"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            absorbed = len(self._children) >= MAX_SERIES
            child_key = (OVERFLOW_LABEL,) * len(key) if absorbed else key
            child = self._children.get(child_key)
            if child is None:
                child = self._children[child_key] = self._make(self.full_name(child_key))
                self._store[child.name] = child
            if absorbed and read is not None:
                self._absorbed.setdefault(key, []).append((child, read))
        return child

    def full_name(self, values: Sequence[str]) -> str:
        """Canonical registered name of one child (Prometheus-style)."""
        labels = ",".join(
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.label_names, values)
        )
        return f"{self.name}{{{labels}}}"

    def remove(self, *values: Any) -> None:
        """Drop one child and its readers (its labelled entity is retired);
        a label the overflow child absorbed unbinds its readers from it."""
        key = tuple(str(v) for v in values)
        child = self._children.pop(key, None)
        if child is not None:
            self._store.pop(child.name, None)
        for overflow, read in self._absorbed.pop(key, ()):
            overflow.unbind(read)

    @property
    def children(self) -> Mapping[tuple[str, ...], Any]:
        return dict(self._children)

    def __repr__(self) -> str:
        return (
            f"MetricFamily({self.name!r}, {self.kind}, labels={self.label_names}, "
            f"{len(self._children)} series)"
        )


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


class MetricsRegistry:
    """Name-keyed store of instruments; get-or-create semantics."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._families: dict[str, MetricFamily] = {}

    # ----- instruments -----------------------------------------------------------

    def counter(self, name: str, read: Reader | None = None) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        if read is not None:
            instrument.bind(read)
        return instrument

    def gauge(self, name: str, read: Reader | None = None) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        if read is not None:
            instrument.bind(read)
        return instrument

    def histogram(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    # ----- labelled families ------------------------------------------------------

    def counter_family(self, name: str, label_names: Sequence[str]) -> MetricFamily:
        return self._family(name, "counter", label_names, self._counters, Counter)

    def gauge_family(self, name: str, label_names: Sequence[str]) -> MetricFamily:
        return self._family(name, "gauge", label_names, self._gauges, Gauge)

    def histogram_family(self, name: str, label_names: Sequence[str]) -> MetricFamily:
        """A family of latency histograms (:data:`LATENCY_BUCKETS`)."""
        return self._family(name, "histogram", label_names, self._histograms, Histogram)

    def _family(
        self,
        name: str,
        kind: str,
        label_names: Sequence[str],
        store: dict[str, Any],
        make: Callable[[str], Any],
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = MetricFamily(name, kind, label_names, store, make)
            return family
        if family.kind != kind:
            raise ValueError(
                f"family {name!r} already exists as a {family.kind} family"
            )
        if family.label_names != tuple(str(n) for n in label_names):
            raise ValueError(
                f"family {name!r} already declared with labels "
                f"{family.label_names}, not {tuple(label_names)}"
            )
        return family

    @property
    def families(self) -> Mapping[str, MetricFamily]:
        return self._families

    # ----- introspection ---------------------------------------------------------

    @property
    def counters(self) -> Mapping[str, Counter]:
        return self._counters

    @property
    def gauges(self) -> Mapping[str, Gauge]:
        return self._gauges

    @property
    def histograms(self) -> Mapping[str, Histogram]:
        return self._histograms

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time copy of every instrument (sorted, serializable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.summary() for n, h in sorted(self._histograms.items())},
        }

    def reset(self) -> None:
        """Drop every instrument (handles held by call sites go stale)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._families.clear()


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    total = 0.0
    min = None
    max = None

    def inc(self, amount: int | float = 1) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass

    def summary(self) -> dict[str, Any]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class _NullFamily:
    """Shared do-nothing family: every label set is the null instrument."""

    __slots__ = ()

    def labels(self, *values: Any, read: Reader | None = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def remove(self, *values: Any) -> None:
        pass


_NULL_FAMILY = _NullFamily()


class NullRegistry(MetricsRegistry):
    """Observability off: every instrument is the shared no-op object and
    every family the shared no-op family, so nothing is ever registered."""

    enabled = False

    def counter(self, name: str, read: Reader | None = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    gauge = counter

    def histogram(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def _family(self, *args: Any) -> _NullFamily:
        return _NULL_FAMILY
