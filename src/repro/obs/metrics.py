"""The metrics registry: counters, gauges, streaming histograms.

One registry backs every telemetry view of the system — the per-node
grid inspector, the Prometheus dump, the JSON snapshot, and the
latency benchmarks all read the same handles the hot paths write.

Thread-safety model (read-mostly, write-cheap)
----------------------------------------------

* **Counters and gauges are lock-free.**  ``Counter.inc`` is a plain
  ``self.value += n`` — under CPython's GIL an increment can at worst
  lose a race against a concurrent increment (both read the same old
  value), never corrupt state.  Telemetry counters tolerate that
  epsilon; exactness is not worth a lock acquisition per after-image
  on the matching hot path.  Counters that feed *correctness* logic
  (e.g. version checks) do not live here.
* **Histogram recording is lock-free too.**  A record touches a
  bucket slot, a sum, and min/max as separate GIL-atomic updates; a
  concurrent reader can observe ``count``/``sum`` skewed by one
  in-flight sample, which percentile math tolerates.  Structural
  operations — ``merge``, ``percentile``, ``snapshot``,
  ``cumulative_buckets`` — serialize on the per-histogram lock so
  aggregation never reads a half-merged bucket array.
* **Handle creation locks the registry.**  Components create their
  handles once (at construction or first use) and then write through
  them without ever touching the registry again, so the registry lock
  is off every hot path.
* **Snapshots are read-only walks** over immutable handle sets plus a
  per-histogram locked copy; they never block writers for longer than
  one histogram's record.

When telemetry is disabled the no-op handles below are used instead;
an instrumentation point then costs one attribute load and one no-op
call — near zero, and nothing is allocated.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram geometry: log-spaced buckets growing 25% per step
#: starting at 1 microsecond.  128 buckets reach ~2.7e6 seconds, far
#: beyond any latency this system can produce; values are quantized to
#: at most one bucket width (<= 25% relative error at the boundary).
DEFAULT_BASE = 1e-6
DEFAULT_GROWTH = 1.25
DEFAULT_BUCKETS = 128


class Counter:
    """A monotonically increasing count (lock-free, see module doc)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (last write wins; lock-free)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A streaming log-bucket histogram: fixed memory, mergeable.

    Values land in bucket ``i`` such that ``base * growth**i`` bounds
    them from above; percentiles report the matching bucket's upper
    bound (a conservative estimate whose relative error is bounded by
    the growth factor).  ``count``/``sum``/``min``/``max`` are exact.
    Two histograms with identical geometry merge by adding their
    bucket arrays — per-node histograms aggregate into cluster totals
    without re-streaming samples.
    """

    __slots__ = ("name", "labels", "base", "growth", "_log_growth",
                 "_counts", "count", "sum", "min", "max", "_lock")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        base: float = DEFAULT_BASE,
        growth: float = DEFAULT_GROWTH,
        buckets: int = DEFAULT_BUCKETS,
    ):
        if base <= 0 or growth <= 1.0 or buckets < 2:
            raise ValueError("histogram needs base > 0, growth > 1, "
                             "buckets >= 2")
        self.name = name
        self.labels = labels
        self.base = base
        self.growth = growth
        self._log_growth = math.log(growth)
        self._counts = [0] * buckets
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def record(self, value: float, count: int = 1) -> None:
        """Record *count* observations of *value* (seconds, items, ...).

        Lock-free, like :class:`Counter`: the hot path must stay cheap
        enough to sit on every mailbox dequeue.  Under the GIL each
        individual ``+=`` is effectively atomic; concurrent recorders
        can interleave between fields, so a reader may observe
        ``count``/``sum`` skewed by an in-flight sample — bounded,
        monitoring-grade imprecision.  Structural readers (merge,
        percentile, snapshot) still serialize on the histogram lock.
        """
        if value <= self.base:
            index = 0
        else:
            index = int(math.log(value / self.base) / self._log_growth) + 1
            last = len(self._counts) - 1
            if index > last:
                index = last
        self._counts[index] += count
        self.count += count
        self.sum += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def record_many(self, values: List[float]) -> None:
        for value in values:
            self.record(value)

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram (identical geometry only)."""
        if (other.base != self.base or other.growth != self.growth
                or len(other._counts) != len(self._counts)):
            raise ValueError("histogram geometries differ; cannot merge")
        with other._lock:
            counts = list(other._counts)
            o_count, o_sum = other.count, other.sum
            o_min, o_max = other.min, other.max
        with self._lock:
            for index, n in enumerate(counts):
                self._counts[index] += n
            self.count += o_count
            self.sum += o_sum
            if o_min < self.min:
                self.min = o_min
            if o_max > self.max:
                self.max = o_max

    def _bound(self, index: int) -> float:
        return self.base * self.growth ** index

    def percentile(self, quantile: float) -> float:
        """Upper bound of the bucket holding the q-th observation."""
        with self._lock:
            if self.count == 0:
                return math.nan
            rank = max(1, math.ceil(quantile * self.count))
            seen = 0
            for index, n in enumerate(self._counts):
                seen += n
                if seen >= rank:
                    # Exact extrema beat bucket bounds at the edges.
                    return min(self._bound(index), self.max)
            return self.max

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Non-empty ``(upper_bound, cumulative_count)`` pairs, the
        Prometheus ``le`` convention (exporter use)."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        seen = 0
        for index, n in enumerate(counts):
            if n:
                seen += n
                out.append((self._bound(index), seen))
        return out

    @property
    def average(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            count, total = self.count, self.sum
            low = self.min if count else math.nan
            high = self.max if count else math.nan
        return {
            "type": "histogram",
            "count": count,
            "sum": total,
            "average": total / count if count else math.nan,
            "min": low,
            "max": high,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


# ---------------------------------------------------------------------------
# No-op handles (telemetry disabled)
# ---------------------------------------------------------------------------


class NullCounter:
    """Shared do-nothing counter; one instance serves every call site."""

    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass


class NullHistogram:
    __slots__ = ()
    count = 0
    sum = 0.0

    def record(self, value: float, count: int = 1) -> None:
        pass

    def record_many(self, values: List[float]) -> None:
        pass

    def percentile(self, quantile: float) -> float:
        return math.nan


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create home of every metric handle.

    Handles are keyed by ``(name, sorted labels)``; asking twice for
    the same metric returns the same object, so components anywhere in
    the stack contribute to one shared series.  Collectors let legacy
    counter owners (e.g. filtering nodes with plain ``int`` counters)
    publish into snapshots without double-bookkeeping on the hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelItems], Any] = {}
        self._collectors: List[Callable[[], Dict[str, Any]]] = []
        #: Run before every read: owners that defer hot-path updates
        #: fold them in here, so no reader sees a stale value.
        self._flushes: List[Callable[[], None]] = []
        #: Metric family name -> help text (``# HELP`` in the
        #: Prometheus exposition; free-form documentation elsewhere).
        self._help: Dict[str, str] = {}

    def describe(self, name: str, help_text: str) -> None:
        """Attach help text to a metric family (idempotent; the first
        description wins so exporters emit stable ``# HELP`` lines)."""
        with self._lock:
            self._help.setdefault(name, help_text)

    def help_text(self, name: str) -> Optional[str]:
        with self._lock:
            return self._help.get(name)

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, _label_items(labels), Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, _label_items(labels), Gauge)

    def histogram(
        self,
        name: str,
        base: float = DEFAULT_BASE,
        growth: float = DEFAULT_GROWTH,
        buckets: int = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = Histogram(name, key[1], base=base, growth=growth,
                                   buckets=buckets)
                self._metrics[key] = metric
            elif not isinstance(metric, Histogram):
                raise TypeError(f"{name} already registered as "
                                f"{type(metric).__name__}")
            return metric

    def _get(self, name: str, labels: LabelItems, cls: type) -> Any:
        key = (name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(f"{name} already registered as "
                                f"{type(metric).__name__}")
            return metric

    def register_collector(
        self, collector: Callable[[], Dict[str, Any]]
    ) -> None:
        """Add a callable returning ``{metric_name: value}`` at snapshot
        time (the bridge for components that keep plain attribute
        counters on their hot path)."""
        with self._lock:
            self._collectors.append(collector)

    def register_flush(self, flush: Callable[[], None]) -> None:
        """Run *flush* before every :meth:`metrics` / :meth:`snapshot`."""
        with self._lock:
            self._flushes.append(flush)

    def _flush(self) -> None:
        with self._lock:
            flushes = list(self._flushes)
        for flush in flushes:
            flush()

    def metrics(self) -> List[Any]:
        self._flush()
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready view of every metric (and collector)."""
        self._flush()
        with self._lock:
            metrics = list(self._metrics.items())
            collectors = list(self._collectors)
        out: Dict[str, Any] = {}
        for (name, labels), metric in metrics:
            entry = metric.snapshot()
            if labels:
                entry["labels"] = dict(labels)
                out.setdefault(name, []).append(entry)
            else:
                out[name] = entry
        for collector in collectors:
            try:
                collected = collector()
            except Exception:  # noqa: BLE001 - a broken collector must
                # not poison the whole snapshot.
                continue
            for name, value in collected.items():
                out.setdefault(name, value)
        return out
