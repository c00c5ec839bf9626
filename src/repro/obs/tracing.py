"""Write-path tracing: one trace per after-image, one span per stage.

A **trace** is a plain JSON-safe dict so it can ride inside event-layer
payloads and grid tuples unchanged:

.. code-block:: python

    {"id": "t-17", "kind": "write", "key": 3, "start": 12.5,
     "spans": ["publish", 12.5, 12.9, "filter", 12.9, 13.0, ...]}

``spans`` is a *flat* stride-3 list — ``name, start, end`` repeating,
with ``end`` ``None`` while the span is open.  The trace travels inside
every event-layer message, so its serialized size is part of the
telemetry overhead budget: the flat form keeps the JSON encoder on one
container instead of one list per span, and makes :func:`fork` a single
slice copy.  Use :func:`spans_of` for the readable triple view.

The canonical write path produces the span chain

    ``publish`` -> ``filter`` -> [``sort``] -> ``deliver`` -> ``materialize``

* ``publish``    — app server hands the after-image to the event layer
  until a matching cell takes it (broker hop, intake, mailbox dwell);
* ``filter``     — the matching node evaluates candidate queries;
* ``sort``       — ordered-window maintenance (sorted queries only);
* ``deliver``    — change publish until the client's notification
  callback runs (second broker hop);
* ``materialize``— the client applies the change to each subscription.

Timestamps come from the owning :class:`~repro.obs.telemetry.Telemetry`
clock: ``time.perf_counter()`` under the threaded execution model,
**virtual time** under the deterministic inline model — so inline
traces are sleep-free and byte-identical across same-seed runs.

Because one write fans out (to every matching node of its write
partition, then to every affected query, then to every subscribed app
server), stages :func:`fork` the incoming trace before appending their
own spans; the cheap copy is what keeps concurrent branches from
scribbling on each other.

Tracing is **head-sampled** (``TelemetryConfig.trace_sample_rate``):
the sampling decision is made once, when the write enters the system,
as a pure function of the tracer's deterministic sequence number.  An
unsampled write carries no trace at all — every downstream stage sees
``None`` and skips span work and wire overhead entirely — which is
what keeps default-on telemetry within the overhead budget.  Metrics
are never sampled by this mechanism; only traces are.
"""

from __future__ import annotations

import collections
import itertools
import logging
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry

Trace = Dict[str, Any]

#: Canonical stage names, in pipeline order.
PUBLISH = "publish"
FILTER = "filter"
SORT = "sort"
DELIVER = "deliver"
MATERIALIZE = "materialize"

STAGES = (PUBLISH, FILTER, SORT, DELIVER, MATERIALIZE)

slow_log = logging.getLogger("repro.obs.slow")


def new_trace(trace_id: str, kind: str, key: Any, now: float) -> Trace:
    return {"id": trace_id, "kind": kind, "key": key, "start": now,
            "spans": []}


def trace_of(payload: Any) -> Optional[Trace]:
    """The trace riding in a payload dict or an
    :class:`~repro.types.AfterImage`, or ``None``.

    Defensive against fault injection: a corrupted payload may carry a
    non-dict under the ``trace`` key or field — telemetry must never
    turn an injected data fault into a pipeline crash.
    """
    if type(payload) is dict:
        trace = payload.get("trace")
    else:
        trace = getattr(payload, "trace", None)
    if type(trace) is dict and type(trace.get("spans")) is list:
        return trace
    return None


def fork(trace: Optional[Trace]) -> Optional[Trace]:
    """Copy a trace so a downstream branch can extend it independently."""
    if trace is None:
        return None
    copy = dict(trace)
    copy["spans"] = trace["spans"][:]
    return copy


def begin_span(trace: Optional[Trace], name: str, now: float) -> None:
    if trace is not None:
        trace["spans"] += (name, now, None)


def end_span(trace: Optional[Trace], name: str, now: float) -> None:
    """Close the most recent open span named *name* (idempotent).

    The end is clamped to the span's start: under the process model a
    span may open in one clock domain (a calibrated worker) and close
    in another, and the residual calibration error must never produce
    a negative span.  In-process models use one monotone clock, so the
    clamp is a no-op there.
    """
    if trace is None:
        return
    spans = trace["spans"]
    for index in range(len(spans) - 3, -1, -3):
        if spans[index] == name:
            if spans[index + 2] is None:
                start = spans[index + 1]
                spans[index + 2] = now if now >= start else start
            return


def spans_of(trace: Trace) -> List[Tuple[str, float, Optional[float]]]:
    """The readable ``(name, start, end)`` triple view of the flat
    stride-3 span list."""
    spans = trace["spans"]
    return [
        (spans[index], spans[index + 1], spans[index + 2])
        for index in range(0, len(spans), 3)
    ]


def span_names(trace: Trace) -> List[str]:
    return trace["spans"][0::3]


def is_complete(trace: Trace) -> bool:
    """True when every span has been closed."""
    spans = trace["spans"]
    return bool(spans) and all(end is not None for end in spans[2::3])


def total_duration(trace: Trace) -> float:
    """Seconds from trace start to the latest span end."""
    ends = [end for end in trace["spans"][2::3] if end is not None]
    if not ends:
        return 0.0
    return max(ends) - trace["start"]


class Tracer:
    """Creates traces and folds completed ones into the registry.

    Trace IDs are a deterministic per-tracer sequence (``t-1``,
    ``t-2``, ...): under the inline execution model the publish order
    is reproducible, so same-seed runs assign identical IDs — the
    byte-identical-transcript property tests rely on this.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        enabled: bool = True,
        sample_rate: float = 1.0,
        slow_threshold: float = 0.1,
        transcript_capacity: int = 256,
    ):
        self.enabled = enabled
        self.registry = registry
        self.slow_threshold = slow_threshold
        #: Head sampling: one trace every ``period`` start() calls
        #: (period 1 = every write).  Decided from the deterministic
        #: sequence number, never a RNG — same-seed inline runs sample
        #: identical writes.
        self.sample_period = max(1, round(1.0 / sample_rate))
        self._sequence = itertools.count(1)
        self._lock = threading.Lock()
        #: Ring buffer of the most recent completed traces.
        self.transcripts: "collections.deque[Trace]" = collections.deque(
            maxlen=transcript_capacity
        )
        #: Structured record of every trace exceeding the threshold.
        self.slow_events: "collections.deque[Dict[str, Any]]" = (
            collections.deque(maxlen=transcript_capacity)
        )
        self.started = 0
        self.completed = 0
        self.sampled_out = 0
        self._e2e = registry.histogram("trace.e2e_seconds")
        self._span_hists = {
            name: registry.histogram("trace.span_seconds", stage=name)
            for name in STAGES
        }
        self._slow_counter = registry.counter("trace.slow_events")

    def start(self, kind: str, key: Any,
              now: Union[float, Callable[[], float]]) -> Optional[Trace]:
        """A new trace, or ``None`` when tracing is disabled or this
        write falls outside the head-sampling window.  ``None`` flows
        through every downstream stage as "untraced" — unsampled writes
        pay no span, fork, or serialization cost at all.  A clock
        passed as *now* is read only for a sampled write."""
        if not self.enabled:
            return None
        # Lock-free: next() on itertools.count and the += below are
        # GIL-atomic; start() sits on every write so it must not pay a
        # lock round-trip.  The lock guards only the transcript/slow
        # structures in complete()/stats().
        sequence = next(self._sequence)
        if sequence % self.sample_period != 1 % self.sample_period:
            self.sampled_out += 1
            return None
        self.started += 1
        if callable(now):
            now = now()
        return new_trace(f"t-{sequence}", kind, key, now)

    def complete(self, trace: Optional[Trace], now: float) -> None:
        """Record a finished trace: histograms, transcript, slow log.

        Per-stage span histograms are sampled 1-in-4 completions
        (phase-locked to the ``completed`` counter, so inline runs stay
        deterministic) — stage breakdowns need shape, not every point.
        The end-to-end histogram records every completion: benchmarks
        assert exact counts against it.
        """
        if trace is None:
            return
        spans = trace["spans"]
        if (self.completed & 3) == 0:
            for index in range(0, len(spans), 3):
                name, start, end = spans[index:index + 3]
                if end is None:
                    end = now
                hist = self._span_hists.get(name)
                if hist is None:
                    hist = self.registry.histogram(
                        "trace.span_seconds", stage=name
                    )
                    self._span_hists[name] = hist
                hist.record(max(0.0, end - start))
        total = max(0.0, total_duration(trace))
        self._e2e.record(total)
        with self._lock:
            self.completed += 1
            self.transcripts.append(trace)
            if total > self.slow_threshold:
                self._slow_counter.inc()
                event = {
                    "trace_id": trace["id"],
                    "kind": trace["kind"],
                    "key": trace["key"],
                    "total_seconds": total,
                    "spans": [
                        {
                            "name": name,
                            "seconds": (end if end is not None
                                        else now) - start,
                        }
                        for name, start, end in spans_of(trace)
                    ],
                }
                self.slow_events.append(event)
                # The ring records every slow trace; the log line is
                # rate-limited 1-in-64 (phase-locked to the exact slow
                # counter) — sustained latency is exactly when a
                # per-trace stderr write would hurt most, and a flood
                # of identical lines carries no more signal than one.
                slow_seen = self._slow_counter.value
                if (slow_seen & 63) == 1:
                    slow_log.warning(
                        "slow trace %s: %.6fs over %d spans "
                        "(%d slow so far)",
                        trace["id"], total,
                        len(trace["spans"]) // 3, slow_seen,
                    )

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "started": self.started,
                "completed": self.completed,
                "sampled_out": self.sampled_out,
                "sample_period": self.sample_period,
                "slow_events": len(self.slow_events),
                "transcripts_buffered": len(self.transcripts),
            }


class NullTracer:
    """Tracing disabled: every call is a cheap no-op."""

    enabled = False

    def start(self, kind: str, key: Any,
              now: Union[float, Callable[[], float]]) -> None:
        return None

    def complete(self, trace: Optional[Trace], now: float) -> None:
        pass

    def stats(self) -> Dict[str, Any]:
        return {"started": 0, "completed": 0, "sampled_out": 0,
                "sample_period": 1, "slow_events": 0,
                "transcripts_buffered": 0}


NULL_TRACER = NullTracer()
