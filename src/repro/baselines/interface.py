"""The common interface of real-time query providers.

All three mechanisms (poll-and-diff, log tailing, InvaliDB) expose the
same subscribe/unsubscribe surface so benchmarks and examples can swap
them.  Notifications reuse :class:`~repro.types.ChangeNotification`.
"""

from __future__ import annotations

import abc
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.query.sortspec import SortInput
from repro.types import ChangeNotification, Document, IdGenerator

ChangeCallback = Callable[[ChangeNotification], None]


class BaselineSubscription:
    """A provider-agnostic subscription handle for the baselines.

    The same surface as :class:`~repro.core.client.RealTimeSubscription`:
    the initial result, ``on_change`` and ``change_count``.  Delivered
    changes are not retained.
    """

    def __init__(self, subscription_id: str,
                 on_change: Optional[ChangeCallback] = None):
        self.subscription_id = subscription_id
        self.initial_result: List[Document] = []
        self.closed = False
        #: Changes delivered so far (counted under ``_lock``).
        self.change_count = 0
        self._on_change = on_change
        self._lock = threading.Lock()

    def deliver(self, notification: ChangeNotification) -> None:
        with self._lock:
            self.change_count += 1
        if self._on_change is not None:
            self._on_change(notification)


class RealTimeQueryProvider(abc.ABC):
    """Subscribe to collection-based real-time queries."""

    def __init__(self) -> None:
        self._ids = IdGenerator(f"{type(self).__name__}")

    @abc.abstractmethod
    def subscribe(
        self,
        filter_doc: Dict[str, Any],
        sort: Optional[SortInput] = None,
        limit: Optional[int] = None,
        offset: int = 0,
        on_change: Optional[ChangeCallback] = None,
    ) -> BaselineSubscription:
        ...

    @abc.abstractmethod
    def unsubscribe(self, subscription: BaselineSubscription) -> None:
        ...

    @abc.abstractmethod
    def close(self) -> None:
        ...

    # -- capability probes (drive Table 2) ---------------------------------

    #: Does throughput scale when the write stream is partitioned?
    scales_with_write_throughput = False
    #: Does capacity scale with the number of active queries?
    scales_with_query_count = False
    #: Are notifications lag-free (pushed on write, not on poll)?
    lag_free = False
    supports_composition = True
    supports_ordering = True
    supports_limit = True
    supports_offset = True
