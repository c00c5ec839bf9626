"""The replication log (oplog) of the document store.

Real MongoDB deployments expose a capped ``oplog`` collection that the
log-tailing real-time query mechanism (Meteor, Parse, RethinkDB —
Section 3.1 of the paper) consumes.  Our store appends one
:class:`OplogEntry` per executed write; tailers read the log from any
sequence number onward and can register a callback for push delivery.

The log is capped: once ``capacity`` entries are exceeded the oldest
entries are dropped, and a tailer that fell behind the horizon gets a
:class:`StaleCursorError`, mirroring the real failure mode of tailing
a capped collection under write pressure.

Each log has a process-unique, nonzero ``store_id``.  Together with an
entry's ``sequence`` it stamps the write's after-image, and a read's
``{store_id: head_sequence}`` is its *watermark*: every write of this
store below it was committed before the read (see
:meth:`~repro.store.collection.Collection.execute_versioned`).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Callable, Deque, List, NamedTuple, Optional

from repro.errors import StoreError
from repro.store.documents import deep_copy
from repro.types import AfterImage, WriteKind


class StaleCursorError(StoreError):
    """A tailer requested entries that were already truncated."""

    def __init__(self, requested: int, horizon: int):
        super().__init__(
            f"oplog cursor at {requested} is behind the horizon {horizon}"
        )
        self.requested = requested
        self.horizon = horizon


class OplogEntry(NamedTuple):
    """One replicated write operation.

    ``after_image`` is the document as the store holds it, shared with
    the store and never mutated in place: a tailer reads it, and copies
    what it hands on.  A ``NamedTuple`` like
    :class:`~repro.core.filtering.MatchEvent`: one is built per write.
    """

    sequence: int
    collection: str
    kind: WriteKind
    key: Any
    version: int
    after_image: Optional[dict]
    timestamp: float

    def to_after_image(self) -> AfterImage:
        """The write as an :class:`AfterImage` holding its own copy of
        the document, so the caller may change it."""
        return AfterImage(self.key, self.version, self.kind,
                          deep_copy(self.after_image), self.collection,
                          self.timestamp)


#: Source of process-unique store ids (0 is reserved for "unstamped").
_STORE_IDS = itertools.count(1)


class Oplog:
    """A capped, append-only replication log with tailing support."""

    def __init__(self, capacity: int = 100_000):
        if capacity <= 0:
            raise StoreError("oplog capacity must be positive")
        self.capacity = capacity
        self.store_id = next(_STORE_IDS)
        self._entries: Deque[OplogEntry] = deque()
        self._next_sequence = 1
        self._lock = threading.Lock()
        self._listeners: List[Callable[[OplogEntry], None]] = []

    def append(
        self,
        collection: str,
        kind: WriteKind,
        key: Any,
        version: int,
        after_image: Optional[dict],
        timestamp: float = 0.0,
    ) -> OplogEntry:
        """Append a write; notify push listeners outside the lock."""
        with self._lock:
            entry = OplogEntry(
                self._next_sequence, collection, kind, key, version,
                after_image, timestamp,
            )
            self._next_sequence += 1
            self._entries.append(entry)
            while len(self._entries) > self.capacity:
                self._entries.popleft()
            listeners = list(self._listeners)
        for listener in listeners:
            listener(entry)
        return entry

    @property
    def head_sequence(self) -> int:
        """The sequence number the next append will receive."""
        with self._lock:
            return self._next_sequence

    @property
    def horizon(self) -> int:
        """The oldest sequence number still retained."""
        with self._lock:
            return self._entries[0].sequence if self._entries else self._next_sequence

    def read_from(self, sequence: int, limit: Optional[int] = None) -> List[OplogEntry]:
        """Return entries with ``entry.sequence >= sequence`` in order.

        Raises :class:`StaleCursorError` when *sequence* precedes the
        retention horizon (the tailer lost writes).
        """
        with self._lock:
            if self._entries and sequence < self._entries[0].sequence:
                raise StaleCursorError(sequence, self._entries[0].sequence)
            selected = [e for e in self._entries if e.sequence >= sequence]
        if limit is not None:
            selected = selected[:limit]
        return selected

    def subscribe(self, listener: Callable[[OplogEntry], None]) -> Callable[[], None]:
        """Register a push listener; returns an unsubscribe callable."""
        with self._lock:
            self._listeners.append(listener)

        def unsubscribe() -> None:
            with self._lock:
                if listener in self._listeners:
                    self._listeners.remove(listener)

        return unsubscribe

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
