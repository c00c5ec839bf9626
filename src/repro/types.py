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
from typing import Any, Dict, List, NamedTuple, Optional

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


# Value semantics of a NamedTuple whose last field is a trace: equality,
# hash and repr cover every other field, and an instance never equals a
# plain tuple or a record of another class.


def _value_eq(self: Any, other: object) -> Any:
    if other.__class__ is self.__class__:
        return self[:-1] == other[:-1]
    # Tuple comparison would answer for both operand orders.
    return False if isinstance(other, tuple) else NotImplemented


def _value_ne(self: Any, other: object) -> Any:
    equal = _value_eq(self, other)
    return equal if equal is NotImplemented else not equal


def _value_hash(self: Any) -> int:
    return hash(self[:-1])


def _value_repr(self: Any) -> str:
    fields = ", ".join(
        f"{name}={value!r}" for name, value in zip(self._fields, self[:-1])
    )
    return f"{type(self).__name__}({fields})"


class _AfterImageFields(NamedTuple):
    key: Any
    version: int
    kind: WriteKind
    document: Optional[Document]
    collection: str = "default"
    timestamp: float = 0.0
    store_id: int = 0
    sequence: int = 0
    trace: Optional[Dict[str, Any]] = None


class AfterImage(_AfterImageFields):
    """The fully-specified state of an entity after a write.

    ``document`` is ``None`` for deletes (the paper: "the after-image of
    a deleted entity is null").  ``version`` increases per entity and is
    used for staleness avoidance in the retention buffer.

    ``store_id`` / ``sequence`` stamp the write with its position in
    the producing store's oplog (0 = unstamped).  A subscribe's read
    watermark compares against them: a write below it is one the
    bootstrap already reflects.

    The one write record from the store to every matching cell, also
    across the process wire.  A ``NamedTuple`` validated at
    construction (``_replace`` only derives a copy and skips the
    check); like :class:`ChangeNotification`, equality, hash and repr
    ignore the trailing ``trace`` (a sampled write-path trace), and it
    never equals a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, key: Any, version: int, kind: WriteKind,
                document: Optional[Document], collection: str = "default",
                timestamp: float = 0.0, store_id: int = 0, sequence: int = 0,
                trace: Optional[Dict[str, Any]] = None) -> "AfterImage":
        if kind is WriteKind.DELETE:
            if document is not None:
                raise ValueError("delete after-image must carry no document")
        elif document is None:
            raise ValueError(f"{kind.value} after-image needs a document")
        return _tuple_new(cls, (key, version, kind, document, collection,
                                timestamp, store_id, sequence, trace))

    @property
    def is_delete(self) -> bool:
        return self.kind is WriteKind.DELETE

    __eq__ = _value_eq
    __ne__ = _value_ne
    __hash__ = _value_hash
    __repr__ = _value_repr


_tuple_new = tuple.__new__


class ChangeNotification(NamedTuple):
    """One incremental update to a real-time query result.

    A ``NamedTuple``: an app server builds one per (change, local
    subscription), so construction cost is per-row cost, and a tuple is
    several times cheaper to build than a frozen dataclass.  It is still
    immutable and a value: equality, hash and repr cover every field
    but ``trace``, and a notification never equals a plain tuple.
    """

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
    #: Excluded from equality/hash/repr so transcript comparisons and
    #: wire round-trip checks see identical notifications whether or
    #: not a trace rode along.
    trace: Optional[Dict[str, Any]] = None

    @property
    def is_error(self) -> bool:
        return self.match_type is MatchType.ERROR

    __eq__ = _value_eq
    __ne__ = _value_ne
    __hash__ = _value_hash
    __repr__ = _value_repr


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
