"""The binary wire layer: framing + the compact grid codec.

Two things live here, in service of the process-per-partition
execution model (:mod:`repro.runtime.process`):

* **Framing** — length-prefixed frames over a duplex stream socket,
  tagged with a message kind, a grid-cell id and a request id (the
  request-id-tagged discipline of relay protocols: replies are matched
  to requests, so one socket multiplexes every cell a worker owns —
  the matching is done by the per-worker reader thread in
  ``WorkerPool._reader_loop``, which completes each in-flight request
  by the id its reply carries).

* **:class:`BinaryCodec`** — a compact binary encoding for grid
  envelopes.  The paper attributes the lower matching performance under
  write-heavy load to "the overhead for (de-)serializing and parsing
  after-images" (Section 6.3); this codec keeps that cost to one pass
  per frame:

  - *one stream per frame*: a message, or a whole batch of envelopes,
    is one pickle-5 stream behind a three-byte header (and a batch's
    envelope count), decoded by one
    C-speed unpickling call into the objects that were encoded — a
    write's :class:`~repro.types.AfterImage` as itself, requests as
    plain dicts — with full round-trip fidelity (tuples stay tuples,
    non-string dict keys survive — unlike JSON) and no Python-level
    per-field loop;
  - *interned strings*: the stream's memo table writes each repeated
    string object once per batch (envelope keys, collection names, the
    after-images' field names) and back-references it in a few bytes
    thereafter, so the decoded documents of one batch share them.

Pickle streams never cross a trust boundary.  They are exchanged only
between a parent and the worker processes it forked.  A network-facing
edge must not accept pickle frames.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import CodecError, EventLayerError
from repro.event.codec import Codec

# ---------------------------------------------------------------------------
# Frame transport
# ---------------------------------------------------------------------------

#: Frame header: message kind (u8), cell id (u32), request id (u32),
#: payload length (u32), little-endian.
FRAME_HEADER = struct.Struct("<BIII")

#: Message kinds on a worker channel.
MSG_REGISTER = 1   #: parent -> worker: build a grid cell from a spec
MSG_BATCH = 2      #: parent -> worker: process a tuple batch
MSG_SNAPSHOT = 3   #: parent -> worker: report stats + metrics
MSG_SHUTDOWN = 4   #: parent -> worker: exit cleanly
MSG_REPLY = 5      #: worker -> parent: successful reply
MSG_ERROR = 6      #: worker -> parent: handler raised (payload = text)
MSG_CALIBRATE = 7  #: parent -> worker: clock-offset handshake (see
                   #: runtime/process.py — empty payload = ping, the
                   #: worker replies with its raw perf_counter; an
                   #: 8-byte payload sets the computed offset)


#: Largest payload a frame may carry.  Grid batches and snapshot rows are
#: kilobytes; the bound exists so a corrupt length field fails the frame
#: instead of parking the channel's one reader on a 4 GiB read.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(EventLayerError):
    """The peer closed mid-frame or sent a malformed header."""


def send_frame(
    sock: socket.socket,
    kind: int,
    cell: int,
    request: int,
    payload: bytes,
) -> int:
    """Write one frame; returns the total bytes put on the wire."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds "
            f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    header = FRAME_HEADER.pack(kind, cell, request, len(payload))
    sock.sendall(header + payload)
    return len(header) + len(payload)


def recv_frame(sock: socket.socket) -> Tuple[int, int, int, bytes]:
    """Read one frame; raises :class:`FrameError` on EOF / short read.

    The header is validated *before* the payload is read: an unknown
    kind or a length above :data:`MAX_FRAME_BYTES` means the stream is
    out of sync, and no later byte on it can be trusted.
    """
    header = _recv_exact(sock, FRAME_HEADER.size)
    kind, cell, request, length = FRAME_HEADER.unpack(header)
    if not MSG_REGISTER <= kind <= MSG_CALIBRATE:
        raise FrameError(f"malformed frame header: unknown kind {kind}")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"malformed frame header: payload length {length} exceeds "
            f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    payload = _recv_exact(sock, length) if length else b""
    return kind, cell, request, payload


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray(n)
    view = memoryview(buf)
    filled = 0
    while filled < n:
        read = sock.recv_into(view[filled:])
        if not read:
            raise FrameError(
                f"connection closed mid-frame ({filled}/{n} bytes)"
            )
        filled += read
    return bytes(buf)


# ---------------------------------------------------------------------------
# Wire counters
# ---------------------------------------------------------------------------


class WireStats:
    """Plain-int wire counters (GIL-atomic increments, snapshot-safe).

    One instance instruments one side of a worker channel; the cluster
    aggregates parent-side and worker-side instances into the unified
    ``snapshot()["wire"]`` view.
    """

    __slots__ = (
        "frames_sent", "frames_received", "bytes_sent", "bytes_received",
        "messages_encoded", "messages_decoded", "encode_ns", "decode_ns",
    )

    def __init__(self) -> None:
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_encoded = 0
        self.messages_decoded = 0
        self.encode_ns = 0
        self.decode_ns = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "messages_encoded": self.messages_encoded,
            "messages_decoded": self.messages_decoded,
            "encode_ns": self.encode_ns,
            "decode_ns": self.decode_ns,
        }

    def merge(self, other: Mapping[str, Any]) -> None:
        """Fold a remote snapshot into this instance."""
        for field in self.__slots__:
            setattr(self, field, getattr(self, field) + other.get(field, 0))


# ---------------------------------------------------------------------------
# Binary codec
# ---------------------------------------------------------------------------

_MAGIC = 0xB1
#: Version 2: one pickle stream per frame (version 1 detached each
#: after-image into a stream of its own).
_FORMAT_VERSION = 2

_FLAG_BATCH = 0x01

_pickle_dumps = pickle.dumps
_pickle_loads = pickle.loads

#: The three header bytes of a frame: magic, version, flags.
_HDR_SINGLE = bytes((_MAGIC, _FORMAT_VERSION, 0))
_HDR_BATCH = bytes((_MAGIC, _FORMAT_VERSION, _FLAG_BATCH))
_HEADER_SIZE = len(_HDR_SINGLE)


def _write_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


class BinaryCodec(Codec):
    """Compact binary envelope codec: one pickle stream per frame.

    Layout::

        single:  magic  version  flags=0      pickle(payload)
        batch:   magic  version  flags=BATCH  varint count  pickle([payload, ...])
                 0xB1     u8       u8

    A frame is decoded by one unpickling call into the objects that
    were encoded: after-images, dicts, lists and tuples, with full
    round-trip fidelity (non-string dict keys survive, unlike JSON).  A batch is
    one stream, so its pickle memo writes every string object the
    batch repeats (envelope keys, collection names, the documents'
    field names) once and back-references it thereafter; the decoded
    documents share those strings.  Every decode failure (a bad header,
    truncation, an unpickling error, a count mismatch) raises
    :class:`~repro.errors.CodecError`.

    Trust: the payload is pickle — use this codec only on channels
    between a process and workers it forked; never on untrusted input.
    """

    def __init__(self, stats: Optional[WireStats] = None):
        self.stats = stats if stats is not None else WireStats()

    # -- encode -----------------------------------------------------------

    def encode(self, payload: Any) -> bytes:
        try:
            blob = _pickle_dumps(payload, protocol=5)
        except Exception as exc:  # noqa: BLE001 - unpicklable leaf etc.
            raise CodecError(f"payload is not wire-encodable: {exc}") from exc
        self.stats.messages_encoded += 1
        return _HDR_SINGLE + blob

    def encode_batch(self, payloads: List[Any]) -> bytes:
        """Encode a list of envelopes as one pickle stream."""
        if type(payloads) is not list:
            payloads = list(payloads)
        try:
            blob = _pickle_dumps(payloads, protocol=5)
        except Exception as exc:  # noqa: BLE001
            raise CodecError(f"payload is not wire-encodable: {exc}") from exc
        out = bytearray(_HDR_BATCH)
        _write_varint(out, len(payloads))
        out += blob
        self.stats.messages_encoded += len(payloads)
        return bytes(out)

    # -- decode -----------------------------------------------------------

    def decode(self, wire: bytes) -> Any:
        if type(wire) is not bytes or not wire.startswith(_HDR_SINGLE):
            wire = self._check_header(wire, expect_batch=False)
        payload = _unpickle(wire, _HEADER_SIZE)
        self.stats.messages_decoded += 1
        return payload

    def decode_batch(self, wire: bytes) -> List[Any]:
        if type(wire) is not bytes or not wire.startswith(_HDR_BATCH):
            wire = self._check_header(wire, expect_batch=True)
        try:
            count, pos = _read_varint(wire, _HEADER_SIZE)
        except IndexError:
            raise CodecError("truncated binary payload") from None
        payloads = _unpickle(wire, pos)
        if type(payloads) is not list or len(payloads) != count:
            raise CodecError("batch count mismatch")
        self.stats.messages_decoded += count
        return payloads

    @staticmethod
    def _check_header(wire: Any, expect_batch: bool) -> bytes:
        """The slow path: *wire* as bytes when its header is valid,
        otherwise a :class:`CodecError` that says what is wrong."""
        if not isinstance(wire, (bytes, bytearray, memoryview)):
            raise CodecError(
                f"binary codec expects bytes, got {type(wire).__name__}"
            )
        wire = bytes(wire)
        if len(wire) < _HEADER_SIZE:
            raise CodecError("truncated binary header")
        if wire[0] != _MAGIC:
            raise CodecError("not a binary-codec payload (bad magic)")
        if wire[1] != _FORMAT_VERSION:
            raise CodecError(
                f"unsupported binary format version {wire[1]} "
                f"(supported: {_FORMAT_VERSION})"
            )
        flags = wire[2]
        if flags & ~_FLAG_BATCH:
            raise CodecError(f"unknown binary flags 0x{flags:02x}")
        if bool(flags & _FLAG_BATCH) != expect_batch:
            raise CodecError(
                "batch flag mismatch: use decode_batch for batch frames"
            )
        return wire


def _unpickle(wire: bytes, pos: int) -> Any:
    """The pickle stream of *wire* from *pos* on, without copying it."""
    try:
        return _pickle_loads(memoryview(wire)[pos:])
    except Exception as exc:  # noqa: BLE001 - truncated or corrupt stream
        raise CodecError(f"malformed wire payload: {exc}") from exc
