"""The event layer: an in-memory pub/sub broker (Redis stand-in).

The paper (Section 5): "the real-time component ... can only be reached
through an asynchronous message broker (event layer)" and "the event
layer abstracts from the query language and data format as it handles
data transmissions with entirely opaque payloads".

:class:`Broker` provides channels with per-channel FIFO delivery,
pattern subscriptions, and optional per-message delay injection (used
by tests to provoke the paper's race conditions and by the simulation
to model network latency).  It lives in the process of its publishers
and subscribers, so payloads cross it by reference, unserialized: a
write is one :class:`~repro.types.AfterImage` from the store to every
matching cell.  Serialization cost — to which the paper attributes the
read/write asymmetry of its results (Section 6.3) — is paid where bytes
cross a process, by :class:`~repro.event.wire.BinaryCodec` on the
process model's worker wire.
"""

from repro.event.broker import Broker, Subscription
from repro.event.channels import (
    notification_channel,
    query_channel,
    write_channel,
)
from repro.event.codec import Codec, JsonCodec

__all__ = [
    "Broker",
    "Codec",
    "JsonCodec",
    "Subscription",
    "notification_channel",
    "query_channel",
    "write_channel",
]
