"""Shared value types used across all InvaliDB subsystems.

These types mirror the vocabulary of the paper:

* a *document* is a JSON-like mapping with a primary key under ``_id``;
* a *write operation* executed at the database produces an *after-image*
  (the fully-specified state of the entity after the write, or ``None``
  for deletes) tagged with a monotonically increasing *version*;
* a *change notification* describes one transition of a real-time query
  result and carries a *match type* (Section 5: ``add``, ``change``,
  ``changeIndex``, ``remove``) plus the after-image.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

Document = Dict[str, Any]
"""A JSON-like document.  The primary key lives under ``"_id"``."""

PRIMARY_KEY = "_id"


class WriteKind(enum.Enum):
    """The kind of a write operation executed against the database."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


class MatchType(enum.Enum):
    """The kind of result transition a change notification encodes.

    Directly from the paper (Section 5): ``add`` — new result member;
    ``change`` — a result member was updated in place; ``changeIndex`` —
    a result member was updated and changed its position (sorted queries
    only); ``remove`` — an item left the result.  ``error`` flags a query
    maintenance error, which doubles as a query renewal request.
    """

    ADD = "add"
    CHANGE = "change"
    CHANGE_INDEX = "changeIndex"
    REMOVE = "remove"
    ERROR = "error"


@dataclass(frozen=True)
class AfterImage:
    """The fully-specified state of an entity after a write.

    ``document`` is ``None`` for deletes (the paper: "the after-image of
    a deleted entity is null").  ``version`` increases per entity and is
    used for staleness avoidance in the retention buffer.

    ``store_id`` / ``sequence`` stamp the write with its position in
    the producing store's oplog (0 = unstamped).  A subscribe's read
    watermark compares against them: a write below it is one the
    bootstrap already reflects.
    """

    key: Any
    version: int
    kind: WriteKind
    document: Optional[Document]
    collection: str = "default"
    timestamp: float = 0.0
    store_id: int = 0
    sequence: int = 0

    def __post_init__(self) -> None:
        if self.kind is WriteKind.DELETE:
            if self.document is not None:
                raise ValueError("delete after-image must carry no document")
        elif self.document is None:
            raise ValueError(f"{self.kind.value} after-image needs a document")

    @property
    def is_delete(self) -> bool:
        return self.kind is WriteKind.DELETE


@dataclass(frozen=True)
class WriteOperation:
    """A write as submitted to the database (before execution)."""

    kind: WriteKind
    key: Any
    document: Optional[Document] = None
    collection: str = "default"


@dataclass(frozen=True)
class ChangeNotification:
    """One incremental update to a real-time query result."""

    subscription_id: str
    query_id: str
    match_type: MatchType
    key: Any = None
    document: Optional[Document] = None
    index: Optional[int] = None
    old_index: Optional[int] = None
    error: Optional[str] = None
    initial: bool = False
    timestamp: float = 0.0
    #: Version of the write behind this change (0 = unknown; sorted
    #: queries diff whole windows, so only unsorted changes carry one).
    #: Lets clients drop stale re-deliveries (replay, merge rows).
    version: int = 0
    #: Write-path trace (telemetry only; ``None`` when tracing is off).
    #: Excluded from equality/repr so transcript comparisons and wire
    #: round-trip checks see identical notifications whether or not a
    #: trace rode along.
    trace: Optional[Dict[str, Any]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def is_error(self) -> bool:
        return self.match_type is MatchType.ERROR


@dataclass(frozen=True)
class InitialResult:
    """The first notification for a subscription: the full current result.

    For sorted queries the result is ordered; ``documents`` preserves the
    database's ordering.
    """

    subscription_id: str
    query_id: str
    documents: List[Document] = field(default_factory=list)
    timestamp: float = 0.0


class IdGenerator:
    """Thread-safe generator of unique, ordered string identifiers.

    Identifiers are deterministic per-generator (``prefix-N``), which
    keeps tests reproducible; uniqueness across app servers comes from
    distinct prefixes.
    """

    def __init__(self, prefix: str):
        self._prefix = prefix
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def next(self) -> str:
        with self._lock:
            return f"{self._prefix}-{next(self._counter)}"


def require_key(document: Document) -> Any:
    """Return the primary key of *document*, raising ``KeyError`` if absent."""
    return document[PRIMARY_KEY]
