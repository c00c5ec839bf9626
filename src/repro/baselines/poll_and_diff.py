"""Poll-and-diff: Meteor's original real-time query mechanism.

"Poll-and-diff relies on reevaluating a database query periodically
('poll') and comparing the newly obtained result against the last-known
result ('diff')" (Section 3.1).  Properties reproduced faithfully:

* full query expressiveness — the underlying database executes the
  query, so whatever it supports works in real time;
* staleness bounded by the polling interval (Meteor default: 10 s);
* per-query database load: every active subscription re-executes its
  query on every poll — the paper's example: 1 000 subscriptions at a
  10 s interval are 100 queries/s against the database.

``poll_all`` triggers one polling round explicitly (benchmarks drive
it with virtual time); ``start``/``stop`` run a background poller.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.baselines.interface import (
    BaselineSubscription,
    ChangeCallback,
    RealTimeQueryProvider,
)
from repro.core.notifications import (
    bind_to_subscription,
    diff_windows,
    window_of,
)
from repro.query.engine import Query
from repro.query.sortspec import SortInput
from repro.types import Document


class _PollState:
    def __init__(self, query: Query, subscription: BaselineSubscription):
        self.query = query
        self.subscription = subscription
        self.last_result: List[Document] = []


class PollAndDiffProvider(RealTimeQueryProvider):
    """Periodic re-execution + diffing against one collection."""

    scales_with_write_throughput = True  # polling cost is write-independent
    scales_with_query_count = False  # each query re-executes every interval
    lag_free = False

    def __init__(self, collection: Any, poll_interval: float = 10.0):
        super().__init__()
        self.collection = collection
        self.poll_interval = poll_interval
        self._states: Dict[str, _PollState] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Pull-based queries issued against the database (poll cost).
        self.queries_executed = 0

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
        query = Query(filter_doc, collection=getattr(self.collection, "name",
                                                     "default"),
                      sort=sort, limit=limit, offset=offset)
        subscription = BaselineSubscription(self._ids.next(), on_change)
        state = _PollState(query, subscription)
        state.last_result = self._execute(query)
        subscription.initial_result = list(state.last_result)
        with self._lock:
            self._states[subscription.subscription_id] = state
        return subscription

    def unsubscribe(self, subscription: BaselineSubscription) -> None:
        with self._lock:
            self._states.pop(subscription.subscription_id, None)
        subscription.closed = True

    def close(self) -> None:
        self.stop()
        with self._lock:
            self._states.clear()

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------

    def _execute(self, query: Query) -> List[Document]:
        self.queries_executed += 1
        return self.collection.execute(query)

    def poll_all(self) -> int:
        """Re-execute every subscribed query once; returns notifications sent."""
        with self._lock:
            states = list(self._states.values())
        sent = 0
        for state in states:
            fresh = self._execute(state.query)
            for change in diff_windows(
                state.query.query_id,
                window_of(state.last_result), window_of(fresh),
                positional=state.query.is_sorted,
            ):
                state.subscription.deliver(bind_to_subscription(
                    state.subscription.subscription_id, *change
                ))
                sent += 1
            state.last_result = fresh
        return sent

    # ------------------------------------------------------------------
    # Background polling
    # ------------------------------------------------------------------

    def start(self) -> "PollAndDiffProvider":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._poll_loop, name="poll-and-diff", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            self.poll_all()

    @property
    def subscription_count(self) -> int:
        with self._lock:
            return len(self._states)
