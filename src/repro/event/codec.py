"""Payload codecs for the event layer.

The event layer treats payloads as opaque; codecs convert between
Python structures and wire bytes.  The broker's default is
:class:`NoopCodec`: the broker lives in the process of its publishers
and subscribers, so it passes every payload by reference and calls no
codec at all.  The paper explains the lower matching performance under
write-heavy load by "the overhead for (de-)serializing and parsing
after-images" (Section 6.3); here that cost is paid only where bytes
cross a process, by :class:`repro.event.wire.BinaryCodec` (one pickle
protocol 5 stream per frame) on the worker wire of the process model.
``Broker(codec=BinaryCodec())`` gives every subscriber its own decoded
copy, in C.
:class:`JsonCodec` is the opt-in debugging codec
(``Broker(codec=JsonCodec())``): readable bytes, and a strict check
that every payload is JSON-safe.  A codec's cost is per *message*,
which is why the cluster publishes one notification envelope per
dispatch batch and app server (each after-image document listed once,
see :class:`repro.core.notifications.ChangeEnvelope`) instead of one
message per matching query.
"""

from __future__ import annotations

import abc
import json
from typing import Any

from repro.errors import CodecError


class Codec(abc.ABC):
    """Convert payloads to and from wire format."""

    @abc.abstractmethod
    def encode(self, payload: Any) -> bytes:
        ...

    @abc.abstractmethod
    def decode(self, wire: bytes) -> Any:
        ...


def _reject_non_string_keys(value: Any) -> None:
    """Walk a payload and reject any dict whose keys are not strings.

    ``json.dumps`` silently *stringifies* non-string keys (``{1: "a"}``
    comes back as ``{"1": "a"}``), which would corrupt versioned-write
    envelopes crossing a real wire — the version map's integer keys
    would change type under the consumer.  Failing the encode makes the
    infidelity a producer bug instead of silent data corruption.

    Iterative (explicit stack) with a C-speed ``"".join(keys)`` probe
    per dict, so the strict check stays cheap on the write hot path.
    """
    if type(value) not in _CONTAINERS:
        return
    stack = [value]
    push = stack.append
    pop = stack.pop
    while stack:
        node = pop()
        kind = type(node)
        if kind is dict:
            try:
                "".join(node)  # TypeError iff any key is not a string
            except TypeError:
                offender = next(
                    key for key in node if type(key) is not str
                )
                raise CodecError(
                    f"non-string dict key {offender!r} would be "
                    f"stringified by JSON; use string keys (or the "
                    f"binary codec) for key-typed maps"
                ) from None
            for item in node.values():
                if type(item) in _CONTAINERS:
                    push(item)
        else:  # list or tuple (callers pre-filter scalars)
            for item in node:
                if type(item) in _CONTAINERS:
                    push(item)


_CONTAINERS = frozenset((dict, list, tuple))


class JsonCodec(Codec):
    """UTF-8 JSON encoding (the wire format of the prototype).

    Round-trip contract: dict keys MUST be strings — non-string keys
    raise :class:`~repro.errors.CodecError` at encode time instead of
    being silently stringified (set ``strict=False`` to restore the
    permissive seed behavior).  Tuples are *normalized* to lists on the
    wire (JSON has no tuple type); producers that need tuples back must
    re-tuple on decode or use the binary codec.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict

    def encode(self, payload: Any) -> bytes:
        if self.strict:
            _reject_non_string_keys(payload)
        try:
            return json.dumps(payload, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise CodecError(f"payload is not JSON-serializable: {exc}") from exc

    def decode(self, wire: bytes) -> Any:
        try:
            return json.loads(wire.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise CodecError(f"malformed wire payload: {exc}") from exc


class NoopCodec(Codec):
    """Identity codec: payloads pass through unserialized (the broker's
    default, which it skips rather than calls)."""

    def encode(self, payload: Any) -> bytes:  # type: ignore[override]
        return payload

    def decode(self, wire: bytes) -> Any:
        return wire
