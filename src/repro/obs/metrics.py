"""Counters, gauges and fixed-bucket histograms.

The registry is designed to be *always on*: instruments are plain
objects with ``__slots__`` whose hot methods do one attribute update
(counters/gauges) or one bisect (histograms). Call sites resolve their
instrument handles once — typically in ``__init__`` — and increment by
batch totals (``rows_scanned.inc(len(candidates))``) rather than per
element, so the cost per *operation* is a handful of nanoseconds.

Labelled *families* add bounded dimensionality on top: a family is a
named group of instruments keyed by label values
(``registry.counter_family("db.rows_scanned", ("table",)).labels("patients")``).
Children are ordinary instruments registered under the canonical name
``db.rows_scanned{table="patients"}``, so every exporter (JSON, lines,
diff, exposition) sees them with no special casing. Cardinality is
bounded per family: once ``max_series`` distinct label sets exist, new
label sets collapse into one shared overflow child (labels
``"__other__"``) instead of growing without limit.

When observability must be off entirely, install a
:class:`NullRegistry`: it hands out shared no-op instruments, so an
instrumented call site degenerates to one attribute lookup plus a no-op
call.
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


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A value that goes up and down (occupancy, depth, live bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram with p50/p90/p99 summaries.

    ``bounds`` are the inclusive upper edges of the buckets; one overflow
    bucket catches everything above the last bound. Percentiles are
    estimated as the upper edge of the bucket containing the rank (the
    overflow bucket reports the observed maximum), which is deterministic
    and honest about bucket resolution.
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

    def percentile(self, fraction: float) -> float | None:
        """Estimated value at *fraction* (0 < fraction <= 1) of the data."""
        if self.count == 0:
            return None
        rank = max(1, int(fraction * self.count + 0.999999))
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max  # pragma: no cover - defensive

    def quantile(self, q: float) -> float | None:
        """Linear-interpolated quantile estimate (``0 <= q <= 1``).

        Unlike :meth:`percentile` (bucket upper edge, pinned by the
        exporters), this interpolates within the bucket containing the
        fractional rank ``q * count``: the first populated bucket's lower
        edge clamps to the observed minimum and the overflow bucket's
        upper edge to the observed maximum, so ``quantile(0) == min`` and
        ``quantile(1) == max``. Returns ``None`` on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction out of range: {q!r}")
        if self.count == 0:
            return None
        return quantile_from_buckets(
            self.bounds, self.bucket_counts, self.count, self.min, self.max, q
        )

    def summary(self) -> dict[str, Any]:
        """Deterministic serializable summary (used by the exporters)."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": (self.total / self.count) if self.count else None,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


def quantile_from_buckets(
    bounds: Sequence[float],
    bucket_counts: Sequence[int],
    count: int,
    minimum: float | None,
    maximum: float | None,
    q: float,
) -> float | None:
    """Interpolated quantile from serialized histogram state.

    Shared by :meth:`Histogram.quantile` and the exporters, which only
    hold the ``summary()`` dict, not the live instrument.
    """
    if count <= 0:
        return None
    target = q * count
    cumulative = 0.0
    for index, bucket_count in enumerate(bucket_counts):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= target:
            if index == 0 or cumulative == 0.0:
                lo = minimum if minimum is not None else 0.0
            else:
                lo = bounds[index - 1]
            if index < len(bounds):
                hi = bounds[index]
            else:
                hi = maximum if maximum is not None else bounds[-1]
            if maximum is not None:
                hi = min(hi, maximum)
            lo = min(lo, hi)
            within = (target - cumulative) / bucket_count
            within = min(max(within, 0.0), 1.0)
            return lo + (hi - lo) * within
        cumulative += bucket_count
    return maximum


#: Label values a family collapses to once ``max_series`` is exceeded.
OVERFLOW_LABEL = "__other__"

#: Default per-family series bound.
DEFAULT_MAX_SERIES = 64


class MetricFamily:
    """A group of same-named instruments split by label values.

    ``labels(*values)`` resolves the child for one label set, creating it
    on first use. Call sites that know their labels at construction time
    resolve the child once and keep the handle — the hot path then pays
    exactly what an unlabelled instrument costs.
    """

    __slots__ = ("name", "kind", "label_names", "max_series", "_children", "_store", "_make")

    def __init__(
        self,
        name: str,
        kind: str,
        label_names: Sequence[str],
        max_series: int,
        store: dict[str, Any],
        make: Callable[[str], Any],
    ) -> None:
        if not label_names:
            raise ValueError(f"family {name!r} needs at least one label name")
        if max_series < 1:
            raise ValueError(f"family {name!r}: max_series must be >= 1")
        self.name = name
        self.kind = kind
        self.label_names = tuple(str(n) for n in label_names)
        self.max_series = max_series
        self._children: dict[tuple[str, ...], Any] = {}
        self._store = store
        self._make = make

    def labels(self, *values: Any) -> Any:
        """The child instrument for one label-value tuple."""
        # Children are keyed by their str() label tuple, so all-string
        # labels of a live child hit here without being rebuilt.
        child = self._children.get(values)
        if child is not None:
            return child
        if len(values) != len(self.label_names):
            raise ValueError(
                f"family {self.name!r} takes labels {self.label_names}, "
                f"got {len(values)} value(s)"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self.max_series:
                key = (OVERFLOW_LABEL,) * len(self.label_names)
                child = self._children.get(key)
                if child is not None:
                    return child
            child = self._make(self.full_name(key))
            self._children[key] = child
            self._store[child.name] = child
        return child

    def full_name(self, values: Sequence[str]) -> str:
        """Canonical registered name of one child (Prometheus-style)."""
        labels = ",".join(
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.label_names, values)
        )
        return f"{self.name}{{{labels}}}"

    def remove(self, *values: Any) -> None:
        """Drop one child (e.g. when its labelled entity is retired)."""
        key = tuple(str(v) for v in values)
        child = self._children.pop(key, None)
        if child is not None:
            self._store.pop(child.name, None)

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

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    # ----- labelled families ------------------------------------------------------

    def counter_family(
        self,
        name: str,
        label_names: Sequence[str],
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> MetricFamily:
        return self._family(name, "counter", label_names, max_series, self._counters, Counter)

    def gauge_family(
        self,
        name: str,
        label_names: Sequence[str],
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> MetricFamily:
        return self._family(name, "gauge", label_names, max_series, self._gauges, Gauge)

    def histogram_family(
        self,
        name: str,
        label_names: Sequence[str],
        bounds: Sequence[float] = LATENCY_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> MetricFamily:
        return self._family(
            name, "histogram", label_names, max_series, self._histograms,
            lambda full_name: Histogram(full_name, bounds),
        )

    def _family(
        self,
        name: str,
        kind: str,
        label_names: Sequence[str],
        max_series: int,
        store: dict[str, Any],
        make: Callable[[str], Any],
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = MetricFamily(
                name, kind, label_names, max_series, store, make
            )
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

    def dec(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass

    def percentile(self, fraction: float) -> None:
        return None

    def summary(self) -> dict[str, Any]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class _NullFamily:
    """Shared do-nothing family: every label set is the null instrument."""

    __slots__ = ()
    name = "null"
    kind = "null"
    label_names = ()
    max_series = 0
    children: Mapping[tuple[str, ...], Any] = {}

    def labels(self, *values: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def remove(self, *values: Any) -> None:
        pass


_NULL_FAMILY = _NullFamily()


class NullRegistry:
    """Observability off: every instrument is the shared no-op object."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def counter_family(
        self, name: str, label_names: Sequence[str], max_series: int = DEFAULT_MAX_SERIES
    ) -> _NullFamily:
        return _NULL_FAMILY

    def gauge_family(
        self, name: str, label_names: Sequence[str], max_series: int = DEFAULT_MAX_SERIES
    ) -> _NullFamily:
        return _NULL_FAMILY

    def histogram_family(
        self,
        name: str,
        label_names: Sequence[str],
        bounds: Sequence[float] = LATENCY_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> _NullFamily:
        return _NULL_FAMILY

    @property
    def families(self) -> Mapping[str, MetricFamily]:
        return {}

    @property
    def counters(self) -> Mapping[str, Counter]:
        return {}

    @property
    def gauges(self) -> Mapping[str, Gauge]:
        return {}

    @property
    def histograms(self) -> Mapping[str, Histogram]:
        return {}

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        pass
