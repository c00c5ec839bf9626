"""The binary wire layer: framing + the compact grid codec.

Two things live here, in service of the process-per-partition
execution model (:mod:`repro.runtime.process`) and — the codec — of the
in-process event layer (:class:`repro.event.broker.Broker`'s default):

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
  after-images" (Section 6.3); this codec attacks exactly that constant:

  - *detached after-images*: the ``document`` field of a write
    envelope — the bulk of every write in both bytes and decode cost —
    is split out of the envelope skeleton into its own length-delimited
    blob, decoded into a :class:`LazyDocument` that materializes only
    on first field access; a matching node that prunes the write via
    its predicate index (or drops it as stale) never pays the full
    after-image decode;
  - *interned keys*: a batch frame serializes every envelope skeleton
    into ONE pickle-5 stream, whose memo table interns each repeated
    key and value string — collection names, field names and envelope
    keys are written once per batch and back-referenced in a few bytes
    thereafter;
  - *C-speed segments*: both segments are pickle protocol 5, with full
    round-trip fidelity (tuples stay tuples, non-string dict keys
    survive — unlike JSON) and no Python-level per-field loop.

Pickle segments never cross a trust boundary.  They are exchanged only
between a parent and the worker processes it forked, and inside one
process through a :class:`~repro.event.broker.Broker`, whose dispatch
mailbox carries nothing but the bytes its own ``publish`` encoded.  A
network-facing edge must not accept pickle frames.
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
        "lazy_documents", "lazy_materialized",
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
        #: Lazy after-image blobs created at decode …
        self.lazy_documents = 0
        #: … and how many of them were ever materialized.  The gap is
        #: the decode work pruning saved (the lazy-decode hit rate).
        self.lazy_materialized = 0

    @property
    def lazy_hit_rate(self) -> float:
        if not self.lazy_documents:
            return 0.0
        return 1.0 - self.lazy_materialized / self.lazy_documents

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
            "lazy_documents": self.lazy_documents,
            "lazy_materialized": self.lazy_materialized,
            "lazy_hit_rate": round(self.lazy_hit_rate, 4),
        }

    def merge(self, other: Mapping[str, Any]) -> None:
        """Fold a remote snapshot into this instance (rates recompute)."""
        for field in self.__slots__:
            setattr(self, field, getattr(self, field) + other.get(field, 0))


# ---------------------------------------------------------------------------
# Binary codec
# ---------------------------------------------------------------------------

_MAGIC = 0xB1
_FORMAT_VERSION = 1

_FLAG_BATCH = 0x01

#: Payload layout tags (byte 3 of a single-message payload).
_T_PLAIN = 0x01     #: one length-implied pickle blob
_T_DETACHED = 0x02  #: envelope skeleton blob + detached after-image blob

_pickle_dumps = pickle.dumps
_pickle_loads = pickle.loads

#: Precomputed single-message headers (magic, version, flags, tag).
_HDR_PLAIN = bytes((_MAGIC, _FORMAT_VERSION, 0, _T_PLAIN))
_HDR_DETACHED = bytes((_MAGIC, _FORMAT_VERSION, 0, _T_DETACHED))


def _write_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    byte = data[pos]
    if not byte & 0x80:
        return byte, pos + 1
    pos += 1
    value = byte & 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


class LazyDocument(Mapping):
    """A document blob that is decoded on first field access.

    Behaves like a read-only ``dict``; a matching node that never reads
    a field (stale write, delete, index miss for an empty candidate
    set) never pays the decode.  Re-encoding an untouched instance
    passes the raw blob straight through.
    """

    __slots__ = ("_raw", "_doc", "_stats")

    def __init__(self, raw: bytes, stats: Optional[WireStats] = None):
        self._raw = raw
        self._doc: Optional[Dict[str, Any]] = None
        self._stats = stats

    @property
    def raw(self) -> bytes:
        return self._raw

    @property
    def materialized(self) -> bool:
        return self._doc is not None

    def _load(self) -> Dict[str, Any]:
        doc = self._doc
        if doc is None:
            try:
                doc = _pickle_loads(self._raw)
            except Exception as exc:
                raise CodecError(f"malformed document blob: {exc}") from exc
            if not isinstance(doc, dict):
                raise CodecError(
                    f"document blob decoded to {type(doc).__name__}, "
                    f"expected dict"
                )
            self._doc = doc
            if self._stats is not None:
                self._stats.lazy_materialized += 1
        return doc

    def __getitem__(self, key: str) -> Any:
        return self._load()[key]

    def __iter__(self):
        return iter(self._load())

    def __len__(self) -> int:
        return len(self._load())

    def __contains__(self, key: object) -> bool:
        return key in self._load()

    def get(self, key: str, default: Any = None) -> Any:
        return self._load().get(key, default)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyDocument):
            return self._load() == other._load()
        if isinstance(other, Mapping):
            return self._load() == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __reduce__(self):
        # Pickle by raw blob only: stats belong to the codec instance
        # that created us, not to whatever process unpickles the copy.
        return (LazyDocument, (self._raw,))

    def __repr__(self) -> str:
        if self._doc is None:
            return f"LazyDocument(<{len(self._raw)} raw bytes>)"
        return f"LazyDocument({self._doc!r})"

    def to_dict(self) -> Dict[str, Any]:
        """Materialize into a plain (copied) dict."""
        return dict(self._load())


def materialize(value: Any) -> Any:
    """Resolve a possibly-lazy document into a plain dict."""
    if isinstance(value, LazyDocument):
        return value.to_dict()
    return value


class BinaryCodec(Codec):
    """Compact binary envelope codec with detached lazy after-images.

    Layout (single message)::

        magic  version  flags  tag  [varint skel_len  skel_blob]  doc_blob
         0xB1     u8      u8    u8

    A write envelope's ``document`` value — the after-image, the bulk
    of every write both in bytes and in decode cost — is *detached*
    from the envelope skeleton and shipped as its own blob
    (``tag=DETACHED``).  Both segments are pickle protocol 5: C-speed,
    full round-trip fidelity (tuples stay tuples, non-string dict keys
    survive — unlike JSON).  With ``lazy_documents=True`` (the
    worker-side configuration) the document blob is wrapped in a
    :class:`LazyDocument` at decode and only unpickled on first field
    access, so a matching node that prunes the write via its predicate
    index never pays the after-image decode; re-encoding an untouched
    instance passes the raw blob straight through.

    Batch layout (``encode_batch``)::

        magic  version  flags|BATCH  varint count
        varint skels_len  pickle([skel, ...])
        (varint doc_len_plus_1  doc_blob?) * count

    All envelope skeletons in a batch share ONE pickle stream, whose
    memo table interns every repeated key and value string — the
    collection name, field names and envelope keys are written once per
    batch and back-referenced in a few bytes thereafter.

    Trust: segments are pickle — use this codec only on channels
    between a process and workers it forked, or inside one process (the
    broker's default: its dispatch mailbox carries only bytes its own
    ``publish`` encoded, and faults act on the payload before encoding);
    never on untrusted input.
    """

    def __init__(
        self,
        lazy_documents: bool = False,
        stats: Optional[WireStats] = None,
    ):
        self.lazy_documents = lazy_documents
        self.stats = stats if stats is not None else WireStats()

    # -- encode -----------------------------------------------------------

    def encode(self, payload: Any) -> bytes:
        self.stats.messages_encoded += 1
        try:
            if type(payload) is dict:
                docv = payload.get("document")
                kind = type(docv)
                if kind is dict or kind is LazyDocument:
                    skel = payload.copy()
                    del skel["document"]
                    skel_blob = _pickle_dumps(skel, protocol=5)
                    doc_blob = (
                        docv.raw if kind is LazyDocument
                        else _pickle_dumps(docv, protocol=5)
                    )
                    out = bytearray(_HDR_DETACHED)
                    n = len(skel_blob)
                    if n < 0x80:
                        out.append(n)
                    else:
                        _write_varint(out, n)
                    out += skel_blob
                    out += doc_blob
                    return bytes(out)
            return _HDR_PLAIN + _pickle_dumps(payload, protocol=5)
        except Exception as exc:  # noqa: BLE001 - unpicklable leaf etc.
            raise CodecError(f"payload is not wire-encodable: {exc}") from exc

    def encode_batch(self, payloads: List[Any]) -> bytes:
        """Encode a list of envelopes with one shared skeleton stream —
        keys and repeated strings are interned across the whole batch
        by the pickle memo table."""
        skels: List[Any] = []
        blobs: List[Optional[bytes]] = []
        try:
            for payload in payloads:
                if type(payload) is dict:
                    docv = payload.get("document")
                    kind = type(docv)
                    if kind is dict or kind is LazyDocument:
                        skel = payload.copy()
                        del skel["document"]
                        skels.append(skel)
                        blobs.append(
                            docv.raw if kind is LazyDocument
                            else _pickle_dumps(docv, protocol=5)
                        )
                        continue
                skels.append(payload)
                blobs.append(None)
            skels_blob = _pickle_dumps(skels, protocol=5)
        except Exception as exc:  # noqa: BLE001
            raise CodecError(f"payload is not wire-encodable: {exc}") from exc
        out = bytearray((_MAGIC, _FORMAT_VERSION, _FLAG_BATCH))
        _write_varint(out, len(payloads))
        _write_varint(out, len(skels_blob))
        out += skels_blob
        for blob in blobs:
            if blob is None:
                out.append(0)
            else:
                _write_varint(out, len(blob) + 1)
                out += blob
        self.stats.messages_encoded += len(payloads)
        return bytes(out)

    # -- decode -----------------------------------------------------------

    def decode(self, wire: bytes) -> Any:
        if type(wire) is not bytes:
            wire = self._check_header(wire, expect_batch=False)
        stats = self.stats
        stats.messages_decoded += 1
        try:
            tag = wire[3]
        except IndexError:
            raise CodecError("not a binary-codec payload (bad magic)") from None
        ok = wire[0] == _MAGIC and wire[1] == _FORMAT_VERSION and not wire[2]
        if ok and tag == _T_DETACHED:
            try:
                skel_len = wire[4]
                if skel_len & 0x80:
                    skel_len, pos = _read_varint(wire, 4)
                else:
                    pos = 5
            except IndexError:
                raise CodecError("truncated binary payload") from None
            end = pos + skel_len
            if end > len(wire):
                raise CodecError("truncated binary payload")
            try:
                envelope = _pickle_loads(wire[pos:end])
            except Exception as exc:
                raise CodecError(f"malformed wire payload: {exc}") from exc
            raw = wire[end:]
            if self.lazy_documents:
                stats.lazy_documents += 1
                envelope["document"] = LazyDocument(raw, stats)
            else:
                try:
                    envelope["document"] = _pickle_loads(raw)
                except Exception as exc:
                    raise CodecError(
                        f"malformed document blob: {exc}"
                    ) from exc
            return envelope
        if ok and tag == _T_PLAIN:
            try:
                return _pickle_loads(wire[4:])
            except Exception as exc:
                raise CodecError(f"malformed wire payload: {exc}") from exc
        # Slow path: bad magic/version/flags or unknown tag — report why.
        self._check_header(wire, expect_batch=False)
        raise CodecError(f"unknown wire layout tag 0x{tag:02x}")

    def decode_batch(self, wire: bytes) -> List[Any]:
        wire = self._check_header(wire, expect_batch=True)
        try:
            count, pos = _read_varint(wire, 3)
            skels_len, pos = _read_varint(wire, pos)
            end = pos + skels_len
            if end > len(wire):
                raise CodecError("truncated binary payload")
            try:
                skels = _pickle_loads(wire[pos:end])
            except Exception as exc:
                raise CodecError(f"malformed wire payload: {exc}") from exc
            if not isinstance(skels, list) or len(skels) != count:
                raise CodecError("batch skeleton count mismatch")
            pos = end
            lazy = self.lazy_documents
            stats = self.stats
            for envelope in skels:
                doc_len, pos = _read_varint(wire, pos)
                if not doc_len:
                    continue
                end = pos + doc_len - 1
                if end > len(wire):
                    raise CodecError("truncated binary payload")
                raw = wire[pos:end]
                pos = end
                if lazy:
                    stats.lazy_documents += 1
                    envelope["document"] = LazyDocument(raw, stats)
                else:
                    try:
                        envelope["document"] = _pickle_loads(raw)
                    except Exception as exc:
                        raise CodecError(
                            f"malformed document blob: {exc}"
                        ) from exc
        except IndexError:
            raise CodecError("truncated binary payload") from None
        stats.messages_decoded += count
        return skels

    def _check_header(self, wire: Any, expect_batch: bool) -> bytes:
        if not isinstance(wire, (bytes, bytearray, memoryview)):
            raise CodecError(
                f"binary codec expects bytes, got {type(wire).__name__}"
            )
        wire = bytes(wire)
        if len(wire) < 4 or wire[0] != _MAGIC:
            raise CodecError("not a binary-codec payload (bad magic)")
        if wire[1] != _FORMAT_VERSION:
            raise CodecError(
                f"unsupported binary format version {wire[1]} "
                f"(supported: {_FORMAT_VERSION})"
            )
        if bool(wire[2] & _FLAG_BATCH) != expect_batch:
            raise CodecError(
                "batch flag mismatch: use decode_batch for batch frames"
            )
        return wire
