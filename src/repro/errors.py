"""Exception hierarchy for the InvaliDB reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at integration boundaries.  The
hierarchy mirrors the subsystem layout: query parsing and evaluation,
document storage, the event layer, the execution substrate, and the
InvaliDB core itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Query engine errors
# ---------------------------------------------------------------------------


class QueryError(ReproError):
    """Base class for query-related errors."""


class QueryParseError(QueryError):
    """A query document could not be parsed into a predicate AST."""


class UnsupportedOperatorError(QueryParseError):
    """The query uses an operator the engine does not implement."""

    def __init__(self, operator: str):
        super().__init__(f"unsupported query operator: {operator!r}")
        self.operator = operator


class SortSpecError(QueryError):
    """A sort specification is malformed (empty, bad direction, ...)."""


class GeoError(QueryError):
    """A geo predicate received malformed geometry."""


# ---------------------------------------------------------------------------
# Document store errors
# ---------------------------------------------------------------------------


class StoreError(ReproError):
    """Base class for document-store errors."""


class DuplicateKeyError(StoreError):
    """An insert collided with an existing primary key."""

    def __init__(self, key: object):
        super().__init__(f"duplicate primary key: {key!r}")
        self.key = key


class DocumentNotFoundError(StoreError):
    """An update/delete referenced a primary key that does not exist."""

    def __init__(self, key: object):
        super().__init__(f"no document with primary key: {key!r}")
        self.key = key


class InvalidDocumentError(StoreError):
    """A document failed validation (missing ``_id``, bad field name, ...)."""


class CollectionNotFoundError(StoreError):
    """A named collection does not exist and auto-creation was disabled."""


class IndexError_(StoreError):
    """An index definition or lookup was invalid."""


# ---------------------------------------------------------------------------
# Event layer errors
# ---------------------------------------------------------------------------


class EventLayerError(ReproError):
    """Base class for event-layer (broker) errors."""


class BrokerClosedError(EventLayerError):
    """An operation was attempted on a closed broker."""


class CodecError(EventLayerError):
    """A payload could not be serialized or deserialized."""


# ---------------------------------------------------------------------------
# Execution-model errors
# ---------------------------------------------------------------------------


class ExecutionError(ReproError):
    """Base class for execution-model (runtime substrate) errors."""


class ExecutionConfigError(ExecutionError):
    """An :class:`ExecutionConfig` is invalid (bad mode, batch size, ...)."""


class InjectedFaultError(ExecutionError):
    """An operation failed because a fault plan said it must.

    Raised by ``Broker.publish`` on an ``error`` fault: the client
    re-raises it and repairs the loss with a resync.
    """

    def __init__(self, scope: str, name: str):
        super().__init__(f"injected fault: {scope} {name!r} rejected the message")
        self.scope = scope
        self.name = name


class WorkerDiedError(ExecutionError):
    """A worker process died (or its channel broke) mid-conversation.

    Under the process execution model the grid task hosting the cell
    reports itself crashed, and supervised recovery rebuilds the cell in
    a fresh worker.
    """

    def __init__(self, worker: str, reason: str):
        super().__init__(f"worker {worker} died: {reason}")
        self.worker = worker
        self.reason = reason


# ---------------------------------------------------------------------------
# InvaliDB core errors
# ---------------------------------------------------------------------------


class InvaliDBError(ReproError):
    """Base class for errors raised by the InvaliDB core."""


class SubscriptionError(InvaliDBError):
    """A subscription request was invalid or referenced an unknown query."""


class SubscriptionExpiredError(SubscriptionError):
    """A subscription's TTL lapsed without extension."""


class QueryMaintenanceError(InvaliDBError):
    """A sorted query became unmaintainable (slack exhausted).

    This mirrors the paper's *query maintenance error*: the responsible
    matching node deactivates the query and emits an error notification
    that doubles as a *query renewal request* (Section 5.2).
    """

    def __init__(self, query_id: str, reason: str = "slack exhausted"):
        super().__init__(f"query {query_id} unmaintainable: {reason}")
        self.query_id = query_id
        self.reason = reason


class ClusterConfigError(InvaliDBError):
    """The cluster configuration is invalid (e.g. zero partitions)."""


# ---------------------------------------------------------------------------
# Simulation errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event-simulation errors."""


class SaturationError(SimulationError):
    """A simulated configuration could not sustain the offered load."""
