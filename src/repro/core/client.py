"""The InvaliDB client: the app-server-side protocol endpoint.

"An application server only runs a lightweight process (InvaliDB
client) which relays messages between the end users, the database, and
the InvaliDB cluster" (Section 5).  Responsibilities implemented here:

* **subscribe** — execute the (rewritten) query against the pull-based
  database for the bootstrap result, hand result + query to the cluster
  through the event layer, deliver the initial result to the
  subscriber, remember the canonical query hash for the subscription's
  lifetime;
* **notification fan-out** — map incoming per-query changes to local
  subscriptions and tag each with its subscription ID;
* **query renewal** — on a maintenance-error notification, re-execute
  the rewritten query (with grown slack, footnote 5) and re-subscribe;
  on a resync request (a restarted grid task lost the queries' state)
  the same at the current slack, plus each handle's catch-up delta;
  both throttled by the poll-frequency rate limit;
* **TTL extension** and **heartbeat supervision** — extend active
  queries every ``ttl_extension_interval`` and, every
  ``heartbeat_interval``, terminate subscriptions with an error once
  the cluster has gone silent; both run on the execution model's timer
  heap (under the inline model when ``advance()`` crosses a period);
* **write forwarding** — push versioned after-images to the cluster on
  every database write.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import InvaliDBConfig
from repro.core.notifications import (
    bind_to_subscription,
    diff_windows,
    unpack_changes,
    window_of,
)
from repro.core.remote import serialize_after_image, serialize_query
from repro.errors import (
    BrokerClosedError,
    CircuitOpenError,
    OperationTimeoutError,
    SubscriptionError,
)
from repro.event.broker import Broker
from repro.event.channels import notification_channel, query_channel, write_channel
from repro.obs.tracing import (
    DELIVER,
    MATERIALIZE,
    PUBLISH,
    begin_span,
    end_span,
)
from repro.query.engine import Query
from repro.query.sortspec import SortInput
from repro.types import (
    AfterImage,
    ChangeNotification,
    Document,
    IdGenerator,
    InitialResult,
    MatchType,
)

ChangeCallback = Callable[[ChangeNotification], None]
InitialCallback = Callable[[InitialResult], None]
ErrorCallback = Callable[[str], None]

_WIRE_SCALARS = (str, int, float, bool, type(None))

#: Retry and resubmit delays get up to this fraction of themselves
#: added as seeded random jitter, so synchronized clients spread out.
_BACKOFF_JITTER = 0.5


def _require_wire_safe(value: Any, path: str = "filter") -> None:
    """Reject filter values that cannot cross the event layer as JSON."""
    if isinstance(value, _WIRE_SCALARS):
        return
    if isinstance(value, dict):
        for key, child in value.items():
            _require_wire_safe(child, f"{path}.{key}")
        return
    if isinstance(value, (list, tuple)):
        for index, child in enumerate(value):
            _require_wire_safe(child, f"{path}[{index}]")
        return
    import re

    hint = (
        ' — use {"$regex": "<pattern>"} instead of a compiled pattern'
        if isinstance(value, re.Pattern) else ""
    )
    raise SubscriptionError(
        f"real-time query filters must be JSON-serializable; found "
        f"{type(value).__name__} at {path}{hint}"
    )


class RealTimeSubscription:
    """Handle for one end-user real-time query subscription.

    Collects the initial result and every change notification; custom
    callbacks may be attached at subscription time.  ``result()``
    reconstructs the current result by replaying notifications — handy
    for tests and simple clients.
    """

    def __init__(
        self,
        subscription_id: str,
        query: Query,
        on_change: Optional[ChangeCallback] = None,
        on_initial: Optional[InitialCallback] = None,
        on_error: Optional[ErrorCallback] = None,
    ):
        self.subscription_id = subscription_id
        self.query = query
        self.initial: Optional[InitialResult] = None
        self.notifications: List[ChangeNotification] = []
        self.errors: List[str] = []
        self.closed = False
        self._on_change = on_change
        self._on_initial = on_initial
        self._on_error = on_error
        self._lock = threading.Lock()
        self._documents: Dict[Any, Document] = {}
        self._order: List[Any] = []
        #: Highest write version applied per key — retained replay,
        #: merge rows and duplicated broker messages re-deliver old
        #: changes, which must not regress the materialized result.
        self._versions: Dict[Any, int] = {}
        self.stale_skipped = 0

    # -- delivery (called by the client) ------------------------------------

    def _deliver_initial(self, initial: InitialResult,
                         versions: Optional[Dict[Any, int]] = None) -> None:
        """Start from the bootstrap, at the *versions* it was read at: a
        change older than its read must not regress it."""
        with self._lock:
            self.initial = initial
            self._order = [doc["_id"] for doc in initial.documents]
            self._documents = {doc["_id"]: doc for doc in initial.documents}
            self._versions = dict(versions or ())
        if self._on_initial is not None:
            self._on_initial(initial)

    def _deliver(self, notification: ChangeNotification) -> None:
        with self._lock:
            self.notifications.append(notification)
            self._apply(notification)
        if notification.is_error and self._on_error is not None:
            self._on_error(notification.error or "unknown error")
        if self._on_change is not None:
            self._on_change(notification)

    def _apply(self, notification: ChangeNotification) -> None:
        """Maintain the local result materialization.

        Idempotent and monotonic: a change older than the version
        already applied for its key is skipped, an ADD for a key
        already present repositions instead of duplicating, and a
        CHANGE for a key not present inserts it like an ADD — so
        at-least-once delivery (duplicates, retained replay, catch-up
        diffs, a re-registration's merge rows for a handle that started
        from a different bootstrap) converges to the same result as
        exactly-once.
        """
        key = notification.key
        match_type = notification.match_type
        if match_type is MatchType.ERROR:
            self.errors.append(notification.error or "unknown error")
            return
        version = notification.version
        if version and version < self._versions.get(key, 0):
            self.stale_skipped += 1
            return
        if version:
            self._versions[key] = version
        # ``_documents`` and ``_order`` hold the same keys.
        present = key in self._documents
        if match_type is MatchType.REMOVE:
            if present:
                del self._documents[key]
                self._order.remove(key)
            return
        document = notification.document
        if document is None:
            return
        self._documents[key] = document
        if present:
            if match_type is MatchType.CHANGE:
                return  # keeps the position
            self._order.remove(key)
        index = notification.index
        if index is None or index > len(self._order):
            self._order.append(key)
        else:
            self._order.insert(index, key)

    # -- consumption ----------------------------------------------------------

    def result(self) -> List[Document]:
        """The current result as reconstructed from notifications."""
        with self._lock:
            return [self._documents[key] for key in self._order
                    if key in self._documents]

    @property
    def change_count(self) -> int:
        with self._lock:
            return len(self.notifications)


class _QueryEntry:
    """One live query of this app server: the query ID -> local
    subscriptions mapping of footnote 2, plus what renewals need.  The
    canonical hash the app server remembers "for the entire lifetime of
    a subscription" (Section 5.1) is ``query.partition_hash``.

    ``handles`` is an immutable tuple, replaced (never mutated) under
    the client's lock; the notification fan-out reads it without the
    lock and sees one consistent set, current or just replaced.
    """

    __slots__ = ("query", "slack", "handles", "joining", "pending_renewal")

    def __init__(self, query: Query, slack: int):
        self.query = query
        self.slack = slack
        self.handles: Tuple[RealTimeSubscription, ...] = ()
        #: Subscribes past their bootstrap read whose handle is not
        #: registered yet: they keep the query alive at the cluster.
        self.joining = 0
        #: ``[timer handle, resync]`` of a rate-limited renewal, or None.
        self.pending_renewal: Optional[List[Any]] = None


class _RenewalLimiter:
    """Poll-frequency rate limit for query renewals (Section 5.2)."""

    def __init__(self, min_interval: float):
        self.min_interval = min_interval
        self._last: Dict[str, float] = {}
        self._lock = threading.Lock()

    def allow(self, query_id: str, now: float) -> bool:
        with self._lock:
            last = self._last.get(query_id)
            if last is not None and now - last < self.min_interval:
                return False
            self._last[query_id] = now
            return True


class CircuitBreaker:
    """Trip after consecutive broker failures; probe after a cooldown.

    States: *closed* (normal), *open* (every call rejected until the
    reset interval elapsed), *half-open* (one probe allowed; success
    closes, failure re-opens).  An open breaker is the client-side
    complement of the heartbeat check: heartbeats detect a silent
    cluster, the breaker detects a broker that fails actively —
    ``check_heartbeat`` treats both as an outage.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int, reset_interval: float):
        self.threshold = threshold
        self.reset_interval = reset_interval
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self.rejections = 0
        self._opened_at = 0.0
        self._lock = threading.Lock()

    def allow(self, now: float) -> bool:
        with self._lock:
            if self.state == self.CLOSED:
                return True
            if self.state == self.OPEN:
                if now - self._opened_at >= self.reset_interval:
                    self.state = self.HALF_OPEN
                    return True
                self.rejections += 1
                return False
            return True  # half-open: let the probe through

    def record_success(self) -> None:
        with self._lock:
            self.state = self.CLOSED
            self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if (self.state == self.HALF_OPEN
                    or self.consecutive_failures >= self.threshold):
                if self.state != self.OPEN:
                    self.trips += 1
                self.state = self.OPEN
                self._opened_at = now

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "trips": self.trips,
                "rejections": self.rejections,
            }


class InvaliDBClient:
    """App-server-side broker between end users, database and cluster."""

    def __init__(
        self,
        app_server_id: str,
        broker: Broker,
        database: Any,
        config: Optional[InvaliDBConfig] = None,
        tenant: str = "default",
    ):
        self.app_server_id = app_server_id
        self.broker = broker
        self.config = config if config is not None else InvaliDBConfig()
        self.tenant = tenant
        self._database = database
        #: Live queries by ID; changed only under ``_lock``.
        self._entries: Dict[str, _QueryEntry] = {}
        self._renewals = _RenewalLimiter(self.config.renewal_min_interval)
        self._ids = IdGenerator(f"sub-{app_server_id}")
        #: Stale rows skipped by handles that were unsubscribed since.
        self._stale_skipped_left = 0
        #: Wall-clock seconds spent producing bootstrap results — the
        #: paper monitors this "to ensure the pull-based part of our
        #: architecture does not become a bottleneck" (Section 5.4).
        self.bootstrap_latencies: List[float] = []
        self._lock = threading.Lock()
        self.last_heartbeat: Optional[float] = None
        # -- resilience: retry with backoff + circuit breaker -----------
        self._breaker = CircuitBreaker(
            self.config.circuit_breaker_threshold,
            self.config.circuit_breaker_reset,
        )
        self._retry_rng = random.Random(self.config.client_rng_seed)
        self.publishes = 0
        self.publish_retries = 0
        self.publish_failures = 0
        self.publish_timeouts = 0
        self.renewals_sent = 0
        self.resubscribes = 0
        #: Backoff seconds accumulated (virtual under the inline model,
        #: where sleeping would add nothing but wall-clock noise).
        self.backoff_waited = 0.0
        # -- overload control (all zero / None on clean runs) -----------
        #: Last cluster health state seen on a heartbeat or rejection
        #: (None until the cluster reports one).
        self.cluster_health: Optional[str] = None
        self.writes_rejected = 0
        self.writes_resubmitted = 0
        self.writes_abandoned = 0
        self.refreshes_received = 0
        #: User ``on_change``/``on_error`` callbacks that raised (each
        #: costs only its own handle's delivery, never the envelope).
        self.callback_errors = 0
        #: call_later handles for retry-after resubmits in flight.
        self._pending_resubmits: List[Any] = []
        self._notification_subscription = broker.subscribe(
            notification_channel(app_server_id), self._on_notification
        )
        self._closed = False
        # Timers on the broker's execution model (virtual time under the
        # inline model): keep this app server's queries alive against
        # the cluster's TTL sweep, and watch for heartbeat silence.
        execution = broker.execution
        self._ttl_timer = execution.every(
            self.config.ttl_extension_interval, self._extend_ttls_tick
        )
        self._heartbeat_timer = execution.every(
            self.config.heartbeat_interval, self.check_heartbeat
        )

    @property
    def degraded(self) -> bool:
        """True while the cluster last reported degraded/overloaded —
        the client-visible signal that delivery may be coalesced or
        replaced by snapshot refreshes until health recovers."""
        return self.cluster_health in ("degraded", "overloaded")

    def _now(self) -> float:
        """The clock timers fire on (virtual time under the inline
        model): write deadlines are stamped from it, heartbeat arrivals
        and silence are measured on it — never the cluster's clock."""
        return self.broker.execution.now(self.config.clock)

    @property
    def telemetry(self):
        """The telemetry attached to the event layer's execution model.

        Read dynamically (not cached at construction): the cluster
        attaches telemetry to the shared model when it boots, which may
        happen after this client was built.
        """
        return self.broker.execution.telemetry

    def _start_trace(self, kind: str, key: Any) -> Optional[Dict[str, Any]]:
        """Open a write-path trace with its ``publish`` span, or None."""
        tel = self.telemetry
        if not tel.enabled:
            return None
        now = tel.now()
        trace = tel.tracer.start(kind, key, now)
        begin_span(trace, PUBLISH, now)
        return trace

    # ------------------------------------------------------------------
    # Database access
    # ------------------------------------------------------------------

    def _collection_for(self, name: str) -> Any:
        database = self._database
        if hasattr(database, "collection"):
            return database.collection(name)
        return database

    def _execute(
        self, query: Query
    ) -> Tuple[List[Document], Dict[Any, int], Dict[int, int]]:
        """Bootstrap result, its documents' versions and the store's
        read watermark, read atomically (a writer may run between any
        two separate store calls)."""
        import time as _time

        started = _time.perf_counter()
        result = self._collection_for(query.collection).execute_versioned(query)
        self.bootstrap_latencies.append(_time.perf_counter() - started)
        return result

    def bootstrap_latency_stats(self) -> Dict[str, float]:
        """Summary of pull-based bootstrap latencies (seconds)."""
        samples = list(self.bootstrap_latencies)
        if not samples:
            return {"count": 0, "average": 0.0, "maximum": 0.0}
        return {
            "count": len(samples),
            "average": sum(samples) / len(samples),
            "maximum": max(samples),
        }

    # ------------------------------------------------------------------
    # Resilient publishing
    # ------------------------------------------------------------------

    def _publish(self, channel: str, message: Dict[str, Any],
                 operation: str = "publish") -> None:
        """Publish with retry, backoff + jitter, timeout and breaker.

        The event layer is fire-and-forget, so a failed publish is
        simply retried — at-most-once delivery means the worst case of
        a retry racing a slow success is a duplicate, which the whole
        notification path (versioned writes, idempotent client
        materialization) already absorbs.  Backoff is only slept under
        the threaded model; the deterministic inline model records it
        as virtual waiting instead (sleeping there orders nothing).
        """
        if not self._breaker.allow(self.config.clock()):
            raise CircuitOpenError(self._breaker.consecutive_failures)
        config = self.config
        deadline = (time.monotonic() + config.publish_timeout
                    if config.publish_timeout else None)
        attempt = 0
        while True:
            try:
                self.broker.publish(channel, message)
            except BrokerClosedError:
                # Permanent: the broker is gone, retrying cannot help.
                self.publish_failures += 1
                self._breaker.record_failure(config.clock())
                raise
            except Exception:
                self.publish_failures += 1
                self._breaker.record_failure(config.clock())
                if attempt >= config.publish_max_retries:
                    raise
                if (deadline is not None
                        and time.monotonic() >= deadline):
                    self.publish_timeouts += 1
                    raise OperationTimeoutError(
                        operation, config.publish_timeout
                    )
                delay = min(
                    config.publish_backoff_base * (2 ** attempt),
                    config.publish_backoff_max,
                )
                delay += self._retry_rng.random() * _BACKOFF_JITTER * delay
                self.backoff_waited += delay
                tel = self.telemetry
                if tel.enabled:
                    tel.histogram("client.backoff_seconds").record(delay)
                    tel.counter("client.publish_retries").inc()
                if not self.broker.execution.deterministic:
                    time.sleep(delay)
                attempt += 1
                self.publish_retries += 1
                continue
            self._breaker.record_success()
            self.publishes += 1
            return

    # ------------------------------------------------------------------
    # Subscription lifecycle
    # ------------------------------------------------------------------

    def subscribe(
        self,
        filter_doc: Dict[str, Any],
        collection: str = "default",
        sort: Optional[SortInput] = None,
        limit: Optional[int] = None,
        offset: int = 0,
        on_change: Optional[ChangeCallback] = None,
        on_initial: Optional[InitialCallback] = None,
        on_error: Optional[ErrorCallback] = None,
    ) -> RealTimeSubscription:
        """Activate a real-time query and return its subscription handle.

        The filter must be JSON-serializable (it crosses the event
        layer); compiled regex objects are rejected here with a helpful
        message — use ``{"$regex": "<pattern>"}`` instead.
        """
        if self._closed:
            raise SubscriptionError("client is closed")
        _require_wire_safe(filter_doc)
        query = Query(filter_doc, collection=collection, sort=sort,
                      limit=limit, offset=offset)
        subscription = RealTimeSubscription(
            self._ids.next(), query, on_change, on_initial, on_error
        )
        now = self.config.clock()
        with self._lock:
            entry = self._entries.get(query.query_id)
            if entry is None:
                entry = self._entries[query.query_id] = _QueryEntry(
                    query, self.config.default_slack
                )
            entry.joining += 1
            slack = entry.slack
        # Order matters: the initial result is delivered and the handle
        # registered for fan-out *before* the subscribe request goes out,
        # so no change notification can slip past the handle.
        rewritten = query.rewritten_for_subscription(slack)
        bootstrap, versions, watermark = self._execute(rewritten)
        visible = self._visible_window(query, bootstrap)
        subscription._deliver_initial(
            InitialResult(
                subscription_id=subscription.subscription_id,
                query_id=query.query_id,
                documents=visible,
                timestamp=now,
            ),
            versions,
        )
        with self._lock:
            entry.joining -= 1
            entry.handles += (subscription,)
        self._publish_subscribe(query, bootstrap, versions, watermark, slack)
        return subscription

    def _activate(self, query: Query, slack: int,
                  renewal: bool = False) -> List[Document]:
        """Execute the rewritten query and send the subscribe request."""
        rewritten = query.rewritten_for_subscription(slack)
        bootstrap, versions, watermark = self._execute(rewritten)
        self._publish_subscribe(query, bootstrap, versions, watermark, slack,
                                renewal=renewal)
        return bootstrap

    def _publish_subscribe(
        self, query: Query, bootstrap: List[Document],
        versions: Dict[Any, int], watermark: Dict[int, int], slack: int,
        renewal: bool = False,
    ) -> None:
        message = {
            "kind": "subscribe",
            "app_server": self.app_server_id,
            "query_id": query.query_id,
            "query_hash": query.partition_hash,
            "query": serialize_query(query),
            "bootstrap": bootstrap,
            "versions": [[key, version] for key, version in versions.items()],
            # The cells skip retained writes stamped below it: the
            # bootstrap already reflects them.
            "watermark": [[store, head] for store, head in watermark.items()],
            "slack": slack,
            "renewal": renewal,
        }
        trace = self._start_trace("subscribe", query.query_id)
        if trace is not None:
            message["trace"] = trace
        self._publish(query_channel(self.tenant), message, "subscribe")

    @staticmethod
    def _visible_window(query: Query, bootstrap: List[Document]) -> List[Document]:
        """Slice the rewritten bootstrap down to the user-facing result."""
        if not query.is_sorted:
            return list(bootstrap)
        window = bootstrap[query.offset :]
        if query.limit is not None:
            window = window[: query.limit]
        return window

    def unsubscribe(self, subscription: RealTimeSubscription) -> None:
        """Cancel one subscription; the query is cancelled at the cluster
        once no local subscription uses it."""
        subscription.closed = True
        query_id = subscription.query.query_id
        with self._lock:
            entry = self._entries.get(query_id)
            if entry is None or subscription not in entry.handles:
                return
            entry.handles = tuple(
                handle for handle in entry.handles if handle is not subscription
            )
            self._stale_skipped_left += subscription.stale_skipped
            still_used = bool(entry.handles) or entry.joining > 0
            if not still_used:
                del self._entries[query_id]
        if not still_used:
            self._publish(
                query_channel(self.tenant),
                {
                    "kind": "cancel",
                    "app_server": self.app_server_id,
                    "query_id": query_id,
                    "query_hash": entry.query.partition_hash,
                },
                "cancel",
            )

    # ------------------------------------------------------------------
    # Notification handling
    # ------------------------------------------------------------------

    def _on_notification(self, channel: str, payload: Dict[str, Any]) -> None:
        kind = payload.get("kind")
        if kind == "heartbeat":
            self.last_heartbeat = self._now()
            health = payload.get("health")
            if health is not None:
                self.cluster_health = health
            return
        if kind == "overload-rejected":
            self._on_overload_rejected(payload)
            return
        if kind == "refresh":
            self._on_refresh(payload)
            return
        if kind == "resync":
            # A restarted grid task lost these queries' state.
            for query_id in payload.get("query_ids") or ():
                self._renew_limited(query_id, resync=True)
            return
        self._on_changes(payload)

    def _on_changes(self, payload: Dict[str, Any]) -> None:
        """Unpack one notification envelope: every row, in row order,
        goes to every live handle of its query.

        Failures stay inside their row.  A raising user callback costs
        only its own handle's delivery (counted in ``callback_errors``);
        anything else failing in a row — a renewal that cannot reach
        the event layer — is re-raised once the rest of the envelope
        was delivered, so the broker still counts the listener error
        the per-message path used to report.
        """
        tel = self.telemetry
        tracing = tel.enabled
        entries = self._entries
        failure: Optional[Exception] = None
        for (query_id, match_type, key, document, index, old_index, error,
             timestamp, version, trace) in unpack_changes(payload):
            try:
                if trace is not None:
                    if tracing:
                        tnow = tel.now()
                        end_span(trace, DELIVER, tnow)
                        begin_span(trace, MATERIALIZE, tnow)
                    else:
                        trace = None
                if match_type is MatchType.ERROR:
                    self._handle_maintenance_error(query_id)
                # The handle tuple is never mutated: read without the
                # lock and without a copy.
                entry = entries.get(query_id)
                handles = entry.handles if entry is not None else ()
                for subscription in handles:
                    try:
                        subscription._deliver(ChangeNotification(
                            subscription.subscription_id, query_id,
                            match_type, key, document, index, old_index,
                            error, False, timestamp, version, trace,
                        ))
                    except Exception:  # noqa: BLE001 - user callback
                        self.callback_errors += 1
                if trace is not None:
                    tnow = tel.now()
                    end_span(trace, MATERIALIZE, tnow)
                    tel.tracer.complete(trace, tnow)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    # ------------------------------------------------------------------
    # Overload responses (admission rejections & snapshot refreshes)
    # ------------------------------------------------------------------

    def _on_overload_rejected(self, payload: Dict[str, Any]) -> None:
        """The cluster pushed a write back: honor its retry-after hint.

        The write is rescheduled through the execution model's timer
        (virtual time under the inline model), with the usual seeded
        jitter so synchronized clients don't retry in lockstep.  A
        write bouncing more than ``admission_max_resubmits`` times is
        abandoned and counted.
        """
        self.writes_rejected += 1
        health = payload.get("health")
        if health is not None:
            self.cluster_health = health
        envelope = payload.get("write")
        if envelope is None or self._closed:
            return
        resubmits = envelope.get("resubmits", 0)
        if resubmits >= self.config.admission_max_resubmits:
            self.writes_abandoned += 1
            return
        envelope = dict(envelope)
        envelope.pop("trace", None)
        envelope["resubmits"] = resubmits + 1
        delay = max(float(payload.get("retry_after", 0.0)), 0.001)
        delay += self._retry_rng.random() * _BACKOFF_JITTER * delay
        self.backoff_waited += delay
        handle = self.broker.execution.call_later(
            delay, lambda: self._resubmit_write(envelope)
        )
        with self._lock:
            self._pending_resubmits.append(handle)

    def _resubmit_write(self, envelope: Dict[str, Any]) -> None:
        if self._closed:
            return
        if self.config.deadline_budget_seconds:
            # The original budget was spent waiting out the rejection;
            # a resubmitted write earns a fresh one.
            envelope["deadline"] = (
                self._now() + self.config.deadline_budget_seconds
            )
        self.writes_resubmitted += 1
        try:
            self._publish(write_channel(self.tenant), envelope, "write")
        except Exception:  # noqa: BLE001 - timer callback, nobody to raise to
            # _publish counted the failed publish; the write itself is
            # lost to the cluster, which is what abandoned means.
            self.writes_abandoned += 1

    def _on_refresh(self, payload: Dict[str, Any]) -> None:
        """A sorted query's diff stream was shed: converge every handle
        on the wholesale window snapshot through the catch-up delta
        (the one ``resubscribe_all`` delivers), which keeps change
        callbacks and the notification log coherent."""
        query_id = payload.get("query_id")
        documents = payload.get("documents") or []
        entry = self._entries.get(query_id)
        if entry is None:
            return
        self.refreshes_received += 1
        self._deliver_delta(entry, documents)

    # ------------------------------------------------------------------
    # Query renewal (maintenance errors)
    # ------------------------------------------------------------------

    def _handle_maintenance_error(self, query_id: str) -> None:
        """A renewal request arrived: re-bootstrap the query."""
        self._renew_limited(query_id)

    def _renew_limited(self, query_id: str, resync: bool = False) -> None:
        """:meth:`renew` under the poll-frequency rate limit, which keeps
        the database load "predictable and configurable": a request
        suppressed now runs once the interval elapsed, and a resync
        wins over a renewal pending for the same query."""
        entry = self._entries.get(query_id)
        if entry is None:
            return
        if self._renewals.allow(query_id, self.config.clock()):
            self.renew(query_id, resync)
            return
        with self._lock:
            pending = entry.pending_renewal
            if pending is not None:
                pending[1] = pending[1] or resync
                return
            pending = entry.pending_renewal = [None, resync]
            # On the broker's execution model's timer heap: wall-clock
            # under threads, virtual time (fired by drain()) inline.
            pending[0] = self.broker.execution.call_later(
                self._renewals.min_interval,
                lambda: self._renew_later(entry),
            )

    def _renew_later(self, entry: _QueryEntry) -> None:
        query_id = entry.query.query_id
        with self._lock:
            _, resync = entry.pending_renewal or (None, False)
            entry.pending_renewal = None
        self._renewals.allow(query_id, self.config.clock())
        self.renew(query_id, resync)

    def resubscribe_all(self) -> int:
        """Re-activate every live query with a fresh bootstrap.

        The recovery path the paper sketches for heartbeat failures
        ("e.g. by re-subscribing to the real-time query"): after the
        cluster came back, all queries are re-registered.  A replacement
        cluster has no memory of the last valid windows, so the client
        itself delivers the catch-up delta from each subscription's
        locally materialized result to the fresh bootstrap —
        subscribers converge without being torn down.
        """
        with self._lock:
            query_ids = list(self._entries)
        for query_id in query_ids:
            self.renew(query_id, resync=True)
            self.resubscribes += 1
        return len(query_ids)

    def _deliver_delta(self, entry: _QueryEntry,
                       visible: List[Document]) -> None:
        """Deliver to every handle of *entry* the delta from its
        materialized result to the fresh window *visible*."""
        query = entry.query
        now = self.config.clock()
        after = window_of(visible)
        for handle in entry.handles:
            for change in diff_windows(query.query_id,
                                       window_of(handle.result()), after,
                                       positional=query.is_sorted,
                                       timestamp=now):
                handle._deliver(
                    bind_to_subscription(change, handle.subscription_id)
                )

    def renew(self, query_id: str, resync: bool = False) -> bool:
        """Re-execute and re-subscribe one query: with grown slack (a
        maintenance error), or with *resync* at its slack, delivering
        every handle the catch-up delta to the fresh result (a restarted
        grid task lost the query's state, or ``resubscribe_all``)."""
        with self._lock:
            entry = self._entries.get(query_id)
            if entry is None:
                return False
            if not resync:
                entry.slack = max(
                    entry.slack + 1,
                    int(entry.slack * self.config.renewal_slack_factor),
                )
            slack = entry.slack
        query = entry.query
        bootstrap = self._activate(query, slack, renewal=True)
        if resync:
            self._deliver_delta(entry, self._visible_window(query, bootstrap))
        else:
            self.renewals_sent += 1
        return True

    # ------------------------------------------------------------------
    # TTL extension & heartbeat supervision
    # ------------------------------------------------------------------

    def extend_ttls(self) -> int:
        """Send a TTL extension for every active query."""
        with self._lock:
            queries = [entry.query for entry in self._entries.values()]
        for query in queries:
            self._publish(
                query_channel(self.tenant),
                {
                    "kind": "ttl",
                    "app_server": self.app_server_id,
                    "query_id": query.query_id,
                    "query_hash": query.partition_hash,
                },
                "ttl",
            )
        return len(queries)

    def _extend_ttls_tick(self) -> None:
        try:
            self.extend_ttls()
        except BrokerClosedError:
            self._ttl_timer.cancel()

    def check_heartbeat(self, now: Optional[float] = None) -> bool:
        """Terminate all subscriptions when the cluster is unreachable.

        Returns True when the connection is healthy.  Two outage
        signals feed this check: silence ("In the absence of heartbeat
        messages, an application server terminates an affected
        subscription with an error that can be handled by the
        subscribed clients", Section 5.1) and an *open circuit breaker*
        — a broker that rejects every publish is just as gone as one
        that stops heartbeating.  Runs every ``heartbeat_interval``;
        *now* defaults to the client's own timer clock, the one heartbeat
        arrivals are recorded on.
        """
        now = self._now() if now is None else now
        if self._breaker.state == CircuitBreaker.OPEN:
            self._terminate_subscriptions(
                "circuit breaker open: event layer unreachable", now
            )
            return False
        if self.last_heartbeat is None:
            return True  # nothing received yet; grace period
        if now - self.last_heartbeat <= self.config.heartbeat_timeout:
            return True
        self._terminate_subscriptions(
            "heartbeat timeout: cluster unreachable", now
        )
        return False

    def _terminate_subscriptions(self, reason: str, now: float) -> None:
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            for subscription in entry.handles:
                if subscription.closed:
                    continue
                subscription._deliver(
                    ChangeNotification(
                        subscription_id=subscription.subscription_id,
                        query_id=entry.query.query_id,
                        match_type=MatchType.ERROR,
                        error=reason,
                        timestamp=now,
                    )
                )
                subscription.closed = True

    # ------------------------------------------------------------------
    # Write forwarding
    # ------------------------------------------------------------------

    def forward_write(self, after: AfterImage) -> None:
        """Publish one after-image to the cluster's write channel."""
        payload = serialize_after_image(after)
        if self.config.overload_control:
            # Origin lets the admission governor push a rejection back
            # to this client; the deadline stamps the latency budget
            # the grid stages shed against.  Both keys only exist with
            # the gate on, keeping ungated wire payloads byte-identical.
            payload["origin"] = self.app_server_id
            if self.config.deadline_budget_seconds:
                payload["deadline"] = (
                    self._now()
                    + self.config.deadline_budget_seconds
                )
        trace = self._start_trace("write", after.key)
        if trace is not None:
            payload["trace"] = trace
        self._publish(write_channel(self.tenant), payload, "write")

    def attach(self, collection: Any) -> Callable[[], None]:
        """Forward every write of *collection* automatically."""
        return collection.on_write(self.forward_write)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            handles = []
            for entry in self._entries.values():
                if entry.pending_renewal is not None:
                    handles.append(entry.pending_renewal[0])
                    entry.pending_renewal = None
            handles += self._pending_resubmits
            self._pending_resubmits = []
        for handle in handles + [self._ttl_timer, self._heartbeat_timer]:
            handle.cancel()
        self._notification_subscription.close()

    def __enter__(self) -> "InvaliDBClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def subscription_count(self) -> int:
        with self._lock:
            return sum(len(entry.handles) + entry.joining
                       for entry in self._entries.values())

    def stats(self) -> Dict[str, Any]:
        """Client-side resilience counters (all zero on a clean run)."""
        with self._lock:
            stale = self._stale_skipped_left + sum(
                handle.stale_skipped
                for entry in self._entries.values()
                for handle in entry.handles
            )
        return {
            "publishes": self.publishes,
            "publish_retries": self.publish_retries,
            "publish_failures": self.publish_failures,
            "publish_timeouts": self.publish_timeouts,
            "backoff_waited": round(self.backoff_waited, 6),
            "renewals_sent": self.renewals_sent,
            "resubscribes": self.resubscribes,
            "stale_notifications_skipped": stale,
            "circuit": self._breaker.stats(),
            "writes_rejected": self.writes_rejected,
            "writes_resubmitted": self.writes_resubmitted,
            "writes_abandoned": self.writes_abandoned,
            "refreshes_received": self.refreshes_received,
            "callback_errors": self.callback_errors,
            "cluster_health": self.cluster_health,
        }
