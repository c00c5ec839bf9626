"""The event layer: an in-memory pub/sub broker (Redis stand-in).

The paper (Section 5): "the real-time component ... can only be reached
through an asynchronous message broker (event layer)" and "the event
layer abstracts from the query language and data format as it handles
data transmissions with entirely opaque payloads".

:class:`Broker` provides channels with per-channel FIFO delivery,
pattern subscriptions, and optional per-message delay injection (used
by tests to provoke the paper's race conditions and by the simulation
to model network latency).  Payloads pass through a :class:`Codec`
(binary by default, JSON on request for debugging) so that
serialization cost is real, not elided — the paper attributes the
read/write asymmetry of its results to (de)serialization overhead
(Section 6.3).
"""

from repro.event.broker import Broker, Subscription
from repro.event.channels import (
    notification_channel,
    query_channel,
    write_channel,
)
from repro.event.codec import Codec, JsonCodec, NoopCodec

__all__ = [
    "Broker",
    "Codec",
    "JsonCodec",
    "NoopCodec",
    "Subscription",
    "notification_channel",
    "query_channel",
    "write_channel",
]
