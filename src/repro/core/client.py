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
  every database write;
* **lost publishes** — the event layer is at-most-once: a publish it
  refuses raises to the caller, and each query the lost message leaves
  behind gets a resync queued on the timer heap.

The event layer passes payloads by reference (:mod:`repro.event.broker`),
so the client is where documents are copied for the user: a
notification envelope's documents are copied once per envelope slot
before any handle sees them, and a handle's initial or catch-up
documents are copies of what went out in the subscribe request.  A
handle's result and callbacks can then be mutated freely without
reaching the cluster, the store or another app server.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import InvaliDBConfig
from repro.core.notifications import (
    bind_to_subscription,
    diff_windows,
    unpack_changes,
    window_of,
)
from repro.core.remote import serialize_query
from repro.errors import BrokerClosedError, SubscriptionError
from repro.event.broker import Broker
from repro.event.channels import notification_channel, query_channel, write_channel
from repro.obs.tracing import (
    DELIVER,
    MATERIALIZE,
    PUBLISH,
    begin_span,
    end_span,
    fork,
)
from repro.query.engine import Query
from repro.query.sortspec import SortInput
from repro.store.documents import deep_copy
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

    Keeps the query's result, not its history: the initial result, the
    current result as the delivered changes left it (``result()``), the
    maintenance errors seen and ``change_count``.  Each change goes to
    the ``on_change`` callback attached at subscription time and is not
    retained — like the paper's app server, which forwards changes and
    keeps only the query ID -> subscription mapping (Section 5.1).
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
        #: Changes delivered so far (counted under ``_lock``).
        self.change_count = 0
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
            self.change_count += 1
            self._apply(notification)
        if self._on_error is not None and notification.is_error:
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
        """The current result as materialized from the changes."""
        with self._lock:
            return [self._documents[key] for key in self._order
                    if key in self._documents]


class _QueryEntry:
    """One live query of this app server: the query ID -> local
    subscriptions mapping of footnote 2, plus what renewals need.  The
    canonical hash the app server remembers "for the entire lifetime of
    a subscription" (Section 5.1) is ``query.partition_hash``.

    ``handles`` is an immutable tuple, replaced (never mutated) under
    the client's lock; the notification fan-out reads it without the
    lock and sees one consistent set, current or just replaced.
    """

    __slots__ = ("query", "slack", "handles", "terminated", "joining",
                 "pending_renewal", "last_renewal")

    def __init__(self, query: Query, slack: int):
        self.query = query
        self.slack = slack
        self.handles: Tuple[RealTimeSubscription, ...] = ()
        #: Handles a heartbeat timeout closed: they get no changes and
        #: their query no TTL extensions until ``resubscribe_all``.
        self.terminated: Tuple[RealTimeSubscription, ...] = ()
        #: Subscribes past their bootstrap read whose handle is not
        #: registered yet: they keep the query alive at the cluster.
        self.joining = 0
        #: ``[timer handle, resync]`` of a rate-limited renewal, or None.
        self.pending_renewal: Optional[List[Any]] = None
        #: When the poll-frequency rate limit last let a renewal run.
        self.last_renewal: Optional[float] = None


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
        self._ids = IdGenerator(f"sub-{app_server_id}")
        #: Stale rows skipped by handles that were unsubscribed since.
        self._stale_skipped_left = 0
        #: Count, sum and maximum of the wall-clock seconds spent
        #: producing bootstrap results — the paper monitors this "to
        #: ensure the pull-based part of our architecture does not become
        #: a bottleneck" (Section 5.4).
        self._bootstraps = 0
        self._bootstrap_seconds = 0.0
        self._bootstrap_max = 0.0
        self._lock = threading.Lock()
        self.last_heartbeat: Optional[float] = None
        self.publishes = 0
        #: Publishes the event layer refused (counted under ``_lock``).
        self.publish_failures = 0
        self.renewals_sent = 0
        self.resubscribes = 0
        #: User ``on_change``/``on_error`` callbacks that raised (each
        #: costs only its own handle's delivery, never the envelope).
        self.callback_errors = 0
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

    def _now(self) -> float:
        """The clock timers fire on (virtual time under the inline
        model): heartbeat arrivals and silence are measured on it —
        never the cluster's clock."""
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
        trace = tel.tracer.start(kind, key, tel.now)
        if trace is not None:
            begin_span(trace, PUBLISH, trace["start"])
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
        two separate store calls).  The documents are the store's own:
        the subscribe request carries them as they are, and a handle
        gets a copy of its page."""
        started = time.perf_counter()
        result = self._collection_for(query.collection)._read_versioned(query)
        elapsed = time.perf_counter() - started
        with self._lock:
            self._bootstraps += 1
            self._bootstrap_seconds += elapsed
            self._bootstrap_max = max(self._bootstrap_max, elapsed)
        return result

    def bootstrap_latency_stats(self) -> Dict[str, float]:
        """Summary of pull-based bootstrap latencies (seconds)."""
        with self._lock:
            count = self._bootstraps
            return {
                "count": count,
                "average": self._bootstrap_seconds / count if count else 0.0,
                "maximum": self._bootstrap_max,
            }

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def _publish(self, channel: str, message: Any,
                 lost: Optional[Callable[[], List[str]]] = None) -> None:
        """Publish once.  The event layer is at-most-once, so a refused
        publish is counted and re-raised to the caller, never retried.
        First, each query that *lost* names — the ones the lost message
        leaves the cluster behind on — gets a resync queued on the
        timer heap: the renewal path's catch-up delta repairs what the
        message would have told the cluster.  A closed broker queues
        nothing; no resync could reach it."""
        try:
            self.broker.publish(channel, message)
        except Exception as exc:
            with self._lock:
                self.publish_failures += 1
            if lost is not None and not isinstance(exc, BrokerClosedError):
                for query_id in lost():
                    self._renew_limited(query_id, resync=True, queued=True)
            raise
        self.publishes += 1

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
        # The filter goes out in the subscribe request by reference:
        # the query holds its own copy, not the caller's.
        query = Query(deep_copy(filter_doc), collection=collection,
                      sort=sort, limit=limit, offset=offset)
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
        # The bootstrap goes out in the subscribe request: the handle
        # gets its own copy of the page.
        visible = [deep_copy(document)
                   for document in self._result_page(query, bootstrap)]
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
        try:
            self._publish_subscribe(query, bootstrap, versions, watermark,
                                    slack)
        except Exception:
            # The caller never gets this handle: take it back out.
            self._detach(subscription)
            raise
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
        self._publish(query_channel(self.tenant), message,
                      lambda: [query.query_id])

    @staticmethod
    def _result_page(query: Query, bootstrap: List[Document]) -> List[Document]:
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
        entry = self._detach(subscription)
        if entry is not None:
            # A lost cancel needs no repair: the query expires by TTL.
            self._publish(
                query_channel(self.tenant),
                {
                    "kind": "cancel",
                    "app_server": self.app_server_id,
                    "query_id": entry.query.query_id,
                    "query_hash": entry.query.partition_hash,
                },
            )

    def _detach(
        self, subscription: RealTimeSubscription
    ) -> Optional[_QueryEntry]:
        """Close *subscription* and drop it from its query's entry, live
        or terminated; returns the entry if that left it unused (it is
        dropped too, with its pending renewal)."""
        query_id = subscription.query.query_id
        with self._lock:
            subscription.closed = True
            entry = self._entries.get(query_id)
            if entry is None:
                return None
            if subscription in entry.handles:
                entry.handles = tuple(handle for handle in entry.handles
                                      if handle is not subscription)
            elif subscription in entry.terminated:
                entry.terminated = tuple(handle for handle in entry.terminated
                                         if handle is not subscription)
            else:
                return None
            self._stale_skipped_left += subscription.stale_skipped
            if entry.handles or entry.terminated or entry.joining > 0:
                return None
            del self._entries[query_id]
            pending, entry.pending_renewal = entry.pending_renewal, None
        if pending is not None:
            pending[0].cancel()
        return entry

    # ------------------------------------------------------------------
    # Notification handling
    # ------------------------------------------------------------------

    def _on_notification(self, channel: str, payload: Dict[str, Any]) -> None:
        kind = payload.get("kind")
        if kind == "heartbeat":
            self.last_heartbeat = self._now()
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
        # The envelope is shared with the cluster (and with a duplicate
        # of itself): handles get one copy per document slot, and a
        # sampled row's trace is forked before its spans are stamped.
        documents = [deep_copy(document) for document in payload["documents"]]
        for (query_id, match_type, key, document, index, old_index, error,
             timestamp, version, trace) in unpack_changes(payload, documents):
            try:
                if trace is not None:
                    if tracing:
                        trace = fork(trace)
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
                        subscription._deliver(bind_to_subscription(
                            subscription.subscription_id, query_id,
                            match_type, key, document, index, old_index,
                            error, timestamp, version, trace,
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
    # Query renewal (maintenance errors)
    # ------------------------------------------------------------------

    def _handle_maintenance_error(self, query_id: str) -> None:
        """A renewal request arrived: re-bootstrap the query."""
        self._renew_limited(query_id)

    def _renew_limited(self, query_id: str, resync: bool = False,
                       queued: bool = False) -> None:
        """:meth:`renew` under the poll-frequency rate limit, which keeps
        the database load "predictable and configurable": a request
        suppressed now runs once the interval elapsed, and a resync
        wins over a renewal pending for the same query.

        A *queued* request — a failed publish's resync — never runs
        now: it waits the interval, and at least one heartbeat
        interval, on an ``every`` timer that its first run cancels.
        The inline model fires such a timer only under ``advance()``,
        so ``drain()`` still quiesces while a fault outlasts it, and a
        fault that never clears costs one attempt per period — never
        a loop, nor (run inside the failing call) a recursion.
        """
        config = self.config
        interval = config.renewal_min_interval
        with self._lock:
            entry = self._entries.get(query_id)
            if entry is None:
                return
            now = config.clock()
            last = entry.last_renewal
            run_now = not queued and (last is None or now - last >= interval)
            if run_now:
                entry.last_renewal = now
            elif entry.pending_renewal is not None:
                entry.pending_renewal[1] = entry.pending_renewal[1] or resync
            else:
                # On the broker's execution model's timer heap:
                # wall-clock under threads, virtual time inline.
                execution = self.broker.execution
                run_later = partial(self._renew_later, entry)
                if queued:
                    timer = execution.every(
                        max(interval, config.heartbeat_interval), run_later
                    )
                else:
                    timer = execution.call_later(interval, run_later)
                entry.pending_renewal = [timer, resync]
        if run_now:
            self.renew(query_id, resync)

    def _renew_later(self, entry: _QueryEntry) -> None:
        query_id = entry.query.query_id
        with self._lock:
            pending, entry.pending_renewal = entry.pending_renewal, None
            if pending is None or self._entries.get(query_id) is not entry:
                return  # cancelled, or the query was dropped since
            entry.last_renewal = self.config.clock()
        pending[0].cancel()  # a queued resync's timer repeats otherwise
        self.renew(query_id, pending[1])

    def resubscribe_all(self) -> int:
        """Re-activate every live query with a fresh bootstrap.

        The recovery path the paper sketches for heartbeat failures
        ("e.g. by re-subscribing to the real-time query"): after the
        cluster came back, all queries are re-registered.  A replacement
        cluster has no memory of the last valid windows, so the client
        itself delivers the catch-up delta from each subscription's
        locally materialized result to the fresh bootstrap —
        subscribers converge without being torn down.  A refused
        renewal (its query gets a queued resync) does not stop the
        others; the first such error is raised at the end.  Handles a
        heartbeat timeout terminated are reopened first.
        """
        with self._lock:
            query_ids = list(self._entries)
            for entry in self._entries.values():
                for handle in entry.terminated:
                    handle.closed = False
                entry.handles += entry.terminated
                entry.terminated = ()
        failure: Optional[Exception] = None
        for query_id in query_ids:
            try:
                self.renew(query_id, resync=True)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                failure = failure or exc
                continue
            self.resubscribes += 1
        if failure is not None:
            raise failure
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
                    bind_to_subscription(handle.subscription_id, *change)
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
            self._deliver_delta(entry, [
                deep_copy(document)
                for document in self._result_page(query, bootstrap)
            ])
        else:
            self.renewals_sent += 1
        return True

    # ------------------------------------------------------------------
    # TTL extension & heartbeat supervision
    # ------------------------------------------------------------------

    def extend_ttls(self) -> int:
        """Send a TTL extension for every query with a live or joining
        handle.  A refused one does not stop the others (the next round
        re-sends it); the first such error is raised at the end."""
        with self._lock:
            queries = [entry.query for entry in self._entries.values()
                       if entry.handles or entry.joining > 0]
        failure: Optional[Exception] = None
        for query in queries:
            try:
                self._publish(
                    query_channel(self.tenant),
                    {
                        "kind": "ttl",
                        "app_server": self.app_server_id,
                        "query_id": query.query_id,
                        "query_hash": query.partition_hash,
                    },
                )
            except Exception as exc:  # noqa: BLE001 - re-raised below
                failure = failure or exc
        if failure is not None:
            raise failure
        return len(queries)

    def _extend_ttls_tick(self) -> None:
        try:
            self.extend_ttls()
        except BrokerClosedError:
            self._ttl_timer.cancel()

    def check_heartbeat(self, now: Optional[float] = None) -> bool:
        """Terminate all subscriptions when the cluster is unreachable.

        Returns True when the connection is healthy.  "In the absence
        of heartbeat messages, an application server terminates an
        affected subscription with an error that can be handled by the
        subscribed clients" (Section 5.1).  Runs every
        ``heartbeat_interval``; *now* defaults to the client's own timer
        clock, the one heartbeat arrivals are recorded on.
        """
        now = self._now() if now is None else now
        if self.last_heartbeat is None:
            return True  # nothing received yet; grace period
        if now - self.last_heartbeat <= self.config.heartbeat_timeout:
            return True
        self._terminate_subscriptions(
            "heartbeat timeout: cluster unreachable", now
        )
        return False

    def _terminate_subscriptions(self, reason: str, now: float) -> None:
        """Close every live handle, move it to its entry's
        ``terminated`` and deliver it one ERROR."""
        terminated: List[Tuple[str, RealTimeSubscription]] = []
        with self._lock:
            for query_id, entry in self._entries.items():
                for subscription in entry.handles:
                    subscription.closed = True
                    terminated.append((query_id, subscription))
                entry.terminated += entry.handles
                entry.handles = ()
        for query_id, subscription in terminated:
            try:
                subscription._deliver(bind_to_subscription(
                    subscription.subscription_id, query_id,
                    MatchType.ERROR, error=reason, timestamp=now,
                ))
            except Exception:  # noqa: BLE001 - user callback
                self.callback_errors += 1

    # ------------------------------------------------------------------
    # Write forwarding
    # ------------------------------------------------------------------

    def forward_write(self, after: AfterImage) -> None:
        """Publish one after-image to the cluster's write channel.  If
        the publish fails, the store is ahead of the cluster: every
        query of this app server on the collection gets a resync."""
        trace = self._start_trace("write", after.key)
        if trace is not None:
            after = after._replace(trace=trace)
        self._publish(write_channel(self.tenant), after,
                      lambda: self._queries_on(after.collection))

    def _queries_on(self, collection: str) -> List[str]:
        with self._lock:
            return [query_id for query_id, entry in self._entries.items()
                    if entry.query.collection == collection]

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
        """Client-side counters; the failure counters read zero on a
        clean run."""
        with self._lock:
            stale = self._stale_skipped_left + sum(
                handle.stale_skipped
                for entry in self._entries.values()
                for handle in entry.handles + entry.terminated
            )
        return {
            "publishes": self.publishes,
            "publish_failures": self.publish_failures,
            "renewals_sent": self.renewals_sent,
            "resubscribes": self.resubscribes,
            "stale_notifications_skipped": stale,
            "callback_errors": self.callback_errors,
        }
