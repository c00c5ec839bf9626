"""Log tailing: the oplog-based mechanism of Meteor, Parse, RethinkDB.

"Every application server subscribes to the complete database change
log, computes result changes, and pushes them to subscribed clients"
(Section 3.1).  Properties reproduced faithfully:

* lag-free notifications — changes propagate on write, no polling;
* scales with the number of queries (partition queries over app
  servers) but **not** with write throughput: each provider instance
  processes every oplog entry, regardless of how many queries it
  serves (``entries_processed`` exposes that cost);
* falls over under write pressure: when the capped oplog outruns a
  slow tailer, the provider suffers a stale-cursor failure exactly
  like tailing a real capped collection (surfaced via ``on_overrun``).

Ordered queries require the full result context which log tailing does
not maintain; like Parse's LiveQuery, this provider rejects sorted
subscriptions (``supports_ordering = False``) — one of the
expressiveness gaps Table 2 documents.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Set

from repro.baselines.interface import (
    BaselineSubscription,
    ChangeCallback,
    RealTimeQueryProvider,
)
from repro.core.notifications import bind_to_subscription
from repro.errors import QueryParseError
from repro.query.engine import MongoQueryEngine, Query
from repro.query.sortspec import SortInput
from repro.store.documents import deep_copy
from repro.store.oplog import Oplog, OplogEntry, StaleCursorError
from repro.types import Document, MatchType


class _TailState:
    def __init__(self, query: Query, subscription: BaselineSubscription,
                 matching: Set[Any], documents: Dict[Any, Document]):
        self.query = query
        self.subscription = subscription
        self.matching = matching
        self.documents = documents


class LogTailingProvider(RealTimeQueryProvider):
    """Tails one collection's oplog and matches every entry."""

    scales_with_write_throughput = False  # full stream per server
    scales_with_query_count = True
    lag_free = True
    supports_ordering = False
    supports_limit = False
    supports_offset = False

    def __init__(
        self,
        collection: Any,
        push: bool = True,
        on_overrun: Optional[Callable[[StaleCursorError], None]] = None,
    ):
        super().__init__()
        self.collection = collection
        self.oplog: Oplog = collection.oplog
        self.engine = MongoQueryEngine()
        self._states: Dict[str, _TailState] = {}
        self._lock = threading.Lock()
        self._cursor = self.oplog.head_sequence
        self._on_overrun = on_overrun
        #: Oplog entries this server had to process (the full stream).
        self.entries_processed = 0
        self._unsubscribe_push: Optional[Callable[[], None]] = None
        if push:
            self._unsubscribe_push = self.oplog.subscribe(self._on_entry)

    # ------------------------------------------------------------------
    # Provider interface
    # ------------------------------------------------------------------

    def subscribe(
        self,
        filter_doc: Dict[str, Any],
        sort: Optional[SortInput] = None,
        limit: Optional[int] = None,
        offset: int = 0,
        on_change: Optional[ChangeCallback] = None,
    ) -> BaselineSubscription:
        if sort is not None or limit is not None or offset:
            raise QueryParseError(
                "log tailing does not support ordered real-time queries"
            )
        query = Query(filter_doc,
                      collection=getattr(self.collection, "name", "default"))
        initial = self.collection.find(filter_doc)
        subscription = BaselineSubscription(self._ids.next(), on_change)
        subscription.initial_result = list(initial)
        state = _TailState(
            query,
            subscription,
            matching={doc["_id"] for doc in initial},
            documents={doc["_id"]: doc for doc in initial},
        )
        with self._lock:
            self._states[subscription.subscription_id] = state
        return subscription

    def unsubscribe(self, subscription: BaselineSubscription) -> None:
        with self._lock:
            self._states.pop(subscription.subscription_id, None)
        subscription.closed = True

    def close(self) -> None:
        if self._unsubscribe_push is not None:
            self._unsubscribe_push()
            self._unsubscribe_push = None
        with self._lock:
            self._states.clear()

    # ------------------------------------------------------------------
    # Tailing
    # ------------------------------------------------------------------

    def _on_entry(self, entry: OplogEntry) -> None:
        """Push path: invoked by the oplog on every append."""
        self._process(entry)
        self._cursor = entry.sequence + 1

    def drain(self) -> int:
        """Pull path: process all outstanding oplog entries.

        Raises nothing; an overrun (stale cursor) is reported through
        ``on_overrun`` and the cursor jumps to the horizon, which means
        *lost changes* — the real-world failure mode of this design.
        """
        try:
            entries = self.oplog.read_from(self._cursor)
        except StaleCursorError as overrun:
            if self._on_overrun is not None:
                self._on_overrun(overrun)
            self._cursor = overrun.horizon
            entries = self.oplog.read_from(self._cursor)
        for entry in entries:
            self._process(entry)
            self._cursor = entry.sequence + 1
        return len(entries)

    def _process(self, entry: OplogEntry) -> None:
        # The whole point of the bottleneck: EVERY entry is processed,
        # even when it is irrelevant to every active query.
        self.entries_processed += 1
        if entry.collection != getattr(self.collection, "name", "default"):
            return
        with self._lock:
            states = list(self._states.values())
        key, stored = entry.key, entry.after_image
        # The entry holds the store's own document: match against it,
        # but keep and deliver one copy of it, made on first use.
        document: Optional[Document] = None
        for state in states:
            matches_now = stored is not None and self.engine.matches(
                state.query, stored
            )
            was_matching = key in state.matching
            if matches_now:
                match_type = MatchType.CHANGE if was_matching else MatchType.ADD
                state.matching.add(key)
            elif was_matching:
                match_type = MatchType.REMOVE
                state.matching.discard(key)
            else:
                continue
            if document is None and stored is not None:
                document = deep_copy(stored)
            if matches_now:
                state.documents[key] = document  # type: ignore[assignment]
                delivered = document
            else:
                last = state.documents.pop(key, None)
                delivered = document if document is not None else last
            state.subscription.deliver(bind_to_subscription(
                state.subscription.subscription_id, state.query.query_id,
                match_type, key, delivered, timestamp=entry.timestamp,
            ))

    @property
    def subscription_count(self) -> int:
        with self._lock:
            return len(self._states)
