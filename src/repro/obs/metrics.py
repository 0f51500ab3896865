"""Unified metrics: named counters, gauges, and streaming histograms.

A :class:`MetricsRegistry` holds metric *families* addressed by name; a
family with declared label names holds one child per observed label
combination.  Three instrument types cover the telemetry this system needs:

* :class:`Counter` -- monotonically increasing totals (requests, cache hits);
* :class:`Gauge` -- set-to-current values (open sessions, queue depth);
* :class:`Histogram` -- streaming distributions over **fixed log-spaced
  buckets**, giving full-run p50/p95/p99 in O(1) memory.  Unlike the old
  record-deque percentile path (exact but windowed to the last N requests),
  the histogram covers *every* observation since start at bounded resolution:
  a quantile is exact to within one bucket, i.e. a relative error of
  ``10**(1/buckets_per_decade) - 1`` (~33% at the default 8 buckets per
  decade), while count/sum/min/max stay exact.

Registries also accept *collectors* -- callbacks sampled at export time --
so subsystems that already keep their own counters (the result cache, the
incremental solve path) surface in the same snapshot without double
bookkeeping.  Rendering to Prometheus text / JSON lives in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "default_latency_buckets",
]


def default_latency_buckets(
    low: float = 1e-6, high: float = 1e3, buckets_per_decade: int = 8
) -> tuple[float, ...]:
    """Log-spaced histogram bucket upper bounds covering ``[low, high]``.

    The default spans microseconds to ~17 minutes in 8 buckets per decade
    (73 buckets), which bounds any quantile's relative error at
    ``10**(1/8) - 1`` (about 33%) -- plenty for latency SLO monitoring at a
    few hundred bytes of state.
    """
    if not (0 < low < high):
        raise ValueError("bucket range must satisfy 0 < low < high")
    if buckets_per_decade < 1:
        raise ValueError("buckets_per_decade must be >= 1")
    decades = math.log10(high / low)
    steps = int(round(decades * buckets_per_decade))
    bounds = [low * 10 ** (i / buckets_per_decade) for i in range(steps + 1)]
    return tuple(bounds)


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Gauge:
    """Set-to-current value."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """Streaming histogram over fixed bucket bounds (O(1) memory).

    ``observe`` is O(log buckets) (a bisect over the precomputed bounds);
    quantiles interpolate within the containing bucket, so they are exact to
    one bucket width while ``count``/``sum``/``min``/``max`` are exact.
    Bucket counts are cumulative-ready but stored per-bucket; the final
    bucket is the ``+Inf`` overflow, and values at or below the lowest bound
    land in the first bucket.
    """

    __slots__ = ("bounds", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, bounds: tuple[float, ...] | None = None) -> None:
        self.bounds = tuple(
            sorted(float(b) for b in (bounds or default_latency_buckets()))
        )
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)  # last = +Inf overflow
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    # -- exact aggregates -----------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    # -- quantiles ------------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0 <= q <= 1), exact to one bucket.

        Interpolates linearly inside the containing bucket and clamps to the
        exact observed ``min``/``max`` so tails never exceed reality.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            counts = list(self._counts)
            low, high = self._min, self._max
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index] if index < len(self.bounds) else high
                )
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * max(fraction, 0.0)
                return min(max(estimate, low), high)
            cumulative += bucket_count
        return high

    def snapshot(self) -> dict:
        """JSON-able state: exact aggregates, key quantiles, bucket counts."""
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
        return {
            "count": count,
            "sum": total,
            "min": self.min,
            "max": self.max,
            "mean": total / count if count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {
                "bounds": list(self.bounds),
                "counts": counts,
            },
        }

    def bucket_pairs(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending with ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        pairs = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, counts):
            cumulative += bucket_count
            pairs.append((bound, cumulative))
        pairs.append((math.inf, cumulative + counts[-1]))
        return pairs


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one metric name (one per label-value combination)."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        if kind not in _TYPES:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(labels)
        self._buckets = buckets
        self._children: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def child(self, **labels):
        """The child for one label-value combination (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if self.kind == "histogram":
                        child = Histogram(self._buckets)
                    else:
                        child = _TYPES[self.kind]()
                    self._children[key] = child
        return child

    def children(self) -> list[tuple[tuple, object]]:
        """``(label_values, instrument)`` pairs, insertion-ordered."""
        with self._lock:
            return list(self._children.items())

    def snapshot(self) -> dict:
        """JSON-able state of the family."""
        payload = {"kind": self.kind, "help": self.help}
        if not self.label_names:
            payload["value"] = self.child().snapshot()
        else:
            payload["labels"] = list(self.label_names)
            payload["series"] = [
                {"labels": dict(zip(self.label_names, key)), "value": child.snapshot()}
                for key, child in self.children()
            ]
        return payload


class MetricsRegistry:
    """Named metric families plus export-time collectors.

    The registry is the single place every layer's counters converge:
    instruments registered here (``counter`` / ``gauge`` / ``histogram``)
    are written directly by the instrumented code, while *collectors* pull
    numbers that already live elsewhere (cache stats, incremental counters)
    at snapshot/render time -- no double bookkeeping, one export surface.
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list = []
        self._lock = threading.Lock()

    # -- declaration ----------------------------------------------------------

    def _declare(
        self,
        name: str,
        kind: str,
        help: str,
        labels: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        name = self.prefix + name
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, labels, buckets)
                self._families[name] = family
            elif family.kind != kind or family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} re-declared with a different "
                    f"kind/labels ({family.kind}/{family.label_names} vs "
                    f"{kind}/{tuple(labels)})"
                )
        return family

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()):
        """Declare (or fetch) a counter family; unlabeled returns the child."""
        family = self._declare(name, "counter", help, labels)
        return family if labels else family.child()

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()):
        family = self._declare(name, "gauge", help, labels)
        return family if labels else family.child()

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ):
        family = self._declare(name, "histogram", help, labels, buckets)
        return family if labels else family.child()

    def register_collector(self, collector) -> None:
        """Add an export-time callback returning ``{name: (kind, help, value)}``.

        ``value`` is a number (counter/gauge) or a ``{label_tuple_dict:
        number}`` mapping for labeled series, e.g.::

            {"repro_engine_cache_hits_total": ("counter", "Cache hits", 42),
             "repro_cluster_shed_total": (
                 "counter", "Shed by shard",
                 {("0",): 3, ("1",): 1}, ("shard",))}
        """
        self._collectors.append(collector)

    # -- introspection --------------------------------------------------------

    def families(self) -> dict[str, MetricFamily]:
        with self._lock:
            return dict(self._families)

    def collect(self) -> dict:
        """Merged view: registered families plus collector-supplied series.

        Returns ``{name: {"kind", "help", ...family snapshot...}}``; collector
        entries are normalized into the same shape.
        """
        snapshot = {
            name: family.snapshot() for name, family in self.families().items()
        }
        for collector in list(self._collectors):
            for name, entry in collector().items():
                kind, help_text, value = entry[0], entry[1], entry[2]
                label_names = tuple(entry[3]) if len(entry) > 3 else ()
                if label_names:
                    series = [
                        {
                            "labels": dict(zip(label_names, key)),
                            "value": float(val),
                        }
                        for key, val in value.items()
                    ]
                    snapshot[self.prefix + name] = {
                        "kind": kind,
                        "help": help_text,
                        "labels": list(label_names),
                        "series": series,
                    }
                else:
                    snapshot[self.prefix + name] = {
                        "kind": kind,
                        "help": help_text,
                        "value": float(value),
                    }
        return snapshot
