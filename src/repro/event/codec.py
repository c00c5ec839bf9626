"""Payload codecs: Python structures to wire bytes and back.

The broker calls no codec: it lives in the process of its publishers
and subscribers, so it passes every payload by reference.  The paper
explains the lower matching performance under write-heavy load by "the
overhead for (de-)serializing and parsing after-images" (Section 6.3);
here that cost is paid only where bytes cross a process, by
:class:`repro.event.wire.BinaryCodec` (one pickle protocol 5 stream per
frame) on the worker wire of the process model.  A codec's cost is per
*message*, which is why the grid ships a batch of tuples in one frame
and the cluster publishes one notification envelope per dispatch batch
and app server (each after-image document listed once, see
:class:`repro.core.notifications.ChangeEnvelope`) instead of one
message per matching query.

:class:`JsonCodec` is the readable reference format: the baseline the
binary codec is measured against (``benchmarks/bench_wire_codec.py``),
with a strict check that a payload is JSON-safe.
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
