"""Temporary write stream retention (Section 5.1 of the paper).

Every matching node "stores received after-images and matches them
against a new query on subscription", closing the *write-subscription
race*: a write processed before the query was activated is replayed
when the subscription arrives.  The buffer serves double duty for
*staleness avoidance*: writes are versioned, so an after-image is
ignored "whenever a delete (or more recent version) for the same item
has already been received".

Retention is bounded by time (the production deployment enforces "a
retention time of few seconds"); only the latest version per key is
retained because older versions are superseded by definition.  An
image ages by its *arrival* on the cluster's clock (the ``now`` every
call receives), never by the timestamp the writer's store put on it: a
writer whose clock runs behind would otherwise empty the replay, one
ahead would keep images past the window.  ``observe`` ages the buffer
out from the old end of an arrival record kept in slices of the window
(amortised O(1) per write), so between registrations it holds about
one window, not every key ever written; ``replay`` still applies the
exact horizon.

Retained images carry their oplog stamp (``store_id``, ``sequence``).
A registration skips those below the subscribe's read watermark — the
bootstrap already reflects them — so replay is left with exactly the
writes that raced the subscription (see
:meth:`~repro.core.filtering.FilteringNode.register_query`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Tuple

from repro.types import AfterImage

#: The arrival record keeps one key list per 1/_SLICES of the window;
#: an expired image outlives the window by at most two slices.
_SLICES = 8


class RetentionBuffer:
    """Time-bounded per-key after-image retention with version checks."""

    def __init__(self, retention_seconds: float):
        self.retention_seconds = retention_seconds
        self._latest: Dict[Any, AfterImage] = {}
        #: Arrival time (cluster clock) of each retained image.
        self._arrived: Dict[Any, float] = {}
        #: Highest version ever observed per key — survives eviction so
        #: staleness checks keep working even after the after-image aged
        #: out of the replay window.
        self._versions: Dict[Any, int] = {}
        #: Arrival record: (end, keys observed before it) per slice of
        #: the window, oldest first.  A key rewritten in several slices
        #: is listed in each; its latest image's arrival decides.
        self._slices: Deque[Tuple[float, List[Any]]] = deque()
        self._slice: List[Any] = []
        self._slice_end = float("-inf")

    def observe(self, after: AfterImage, now: float) -> bool:
        """Record *after*; returns False when it is stale (superseded).

        A stale after-image must be dropped by the caller — processing
        it would regress the maintained result.
        """
        key = after.key
        if after.version <= self._versions.get(key, 0):
            return False
        self._versions[key] = after.version
        self._latest[key] = after
        self._arrived[key] = now
        if now >= self._slice_end:
            self._age_out(now)
        self._slice.append(key)
        return True

    def _age_out(self, now: float) -> None:
        """Open a new slice and drop the expired images of every slice
        that ended before the window.  Only an image's own arrival
        decides, so nothing inside the window is dropped, and a key
        rewritten since keeps its newer image."""
        horizon = now - self.retention_seconds
        arrived = self._arrived
        slices = self._slices
        while slices and slices[0][0] < horizon:
            for key in slices.popleft()[1]:
                if arrived.get(key, horizon) < horizon:
                    del arrived[key]
                    del self._latest[key]
        self._slice = []
        self._slice_end = now + self.retention_seconds / _SLICES
        slices.append((self._slice_end, self._slice))

    def is_stale(self, after: AfterImage) -> bool:
        """Check staleness without recording."""
        return after.version <= self._versions.get(after.key, 0)

    def evict(self, now: float) -> int:
        """Drop after-images that arrived before the retention window."""
        horizon = now - self.retention_seconds
        expired = [
            key for key, arrival in self._arrived.items() if arrival < horizon
        ]
        for key in expired:
            del self._arrived[key]
            del self._latest[key]
        return len(expired)

    def replay(self, now: float) -> List[AfterImage]:
        """After-images to match against a newly subscribed query.

        Only entries still inside the retention window are replayed;
        eviction happens first so the replay set is exactly the window.
        """
        self.evict(now)
        return list(self._latest.values())

    def latest_version(self, key: Any) -> int:
        return self._versions.get(key, 0)

    def __len__(self) -> int:
        return len(self._latest)

    def __iter__(self) -> Iterator[AfterImage]:
        return iter(self._latest.values())
