"""Process-per-partition execution: grid cells in worker processes.

:class:`ProcessExecutionModel` extends the threaded substrate — the
broker with its intake, timers and crash signaling all stay in the
parent, exactly as before — but the grid's *compute* (matching and
sorting cells) moves into forked worker processes reached through
framed duplex sockets (:mod:`repro.event.wire`).  That is the paper's
shared-nothing deployment in miniature: each cell owns its slice of
state, nothing is shared but messages, and the GIL stops being the
scale ceiling.

The seam is the :class:`WorkerPool`:

* ``lease(name, spec)`` assigns the cell to a worker process (round-
  robin over ``worker_processes`` slots, or one process per cell when
  unset), ships the pickled *spec* over the control channel and returns
  a :class:`RemoteCell` handle.  The spec must be picklable and expose
  ``build()`` — the worker calls it once to construct the actual cell.
* ``RemoteCell.request_batch(items)`` encodes the batch with the
  binary wire codec, submits one frame and blocks on that request's own
  latch until the reply arrives.  The channel is pipelined: the
  per-worker lock covers only *id allocation + pending-table entry +
  send* (so frames leave in submit order and the worker's FIFO loop
  keeps per-cell order), and one reader thread per worker is the only
  thread that ever reads the socket — it demultiplexes replies by the
  request id the frame header carries.  While one grid task waits for
  its reply the others keep encoding and sending, so the worker always
  has its next batch queued.
* A monitor thread watches process sentinels: a worker that dies — a
  crash, or ``kill -9`` in the chaos suite — fires the pool's death
  listeners with every cell it hosted, and the owning grid tasks report
  those cells crashed so :class:`~repro.core.supervisor.NodeSupervisor`
  restarts them exactly like an in-process crash.  The replacement
  lease respawns a fresh worker for the slot.

Workers are forked (POSIX only): cheap startup, copy-on-write imports,
and the pickle segments of the wire format stay within a single trust
domain (a parent and its own children).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import struct
import threading
import time
import traceback
from multiprocessing.connection import wait as _sentinel_wait
from typing import Any, Callable, Dict, List, Optional

from repro.errors import (
    ExecutionConfigError,
    ExecutionError,
    WorkerDiedError,
)
from repro.event.wire import (
    MSG_BATCH,
    MSG_CALIBRATE,
    MSG_ERROR,
    MSG_REGISTER,
    MSG_REPLY,
    MSG_SHUTDOWN,
    MSG_SNAPSHOT,
    BinaryCodec,
    FrameError,
    WireStats,
    recv_frame,
    send_frame,
)
from repro.runtime.execution import (
    PROCESS,
    ExecutionConfig,
    ThreadedExecutionModel,
)

#: Death listener signature: ``(cell_name, pid, reason)``.
DeathListener = Callable[[str, int, str], None]

#: Calibration payload: one little-endian double (a raw perf_counter
#: reading on ping replies, the computed offset on the set frame).
_CALIBRATION_DOUBLE = struct.Struct("<d")

#: Calibration pings per worker; the minimum-RTT sample wins, so the
#: first ping (which absorbs fork/startup latency) never decides.
_CALIBRATION_PINGS = 3


class _WorkerClock:
    """Worker-side clock shifted into the parent's ``perf_counter``
    domain.

    ``perf_counter`` epochs are per-process (on Linux the value is
    CLOCK_MONOTONIC, but there is no cross-process guarantee), so span
    timestamps taken inside a worker would not compare to the parent's.
    At fork — and again whenever a slot's worker is respawned — the
    pool runs a tiny NTP-style handshake over the already-open control
    socket: ping for the worker's raw ``perf_counter``, take the
    minimum-RTT sample, and set ``offset = midpoint(parent) - worker``
    so that worker timestamps land in the parent domain with residual
    error bounded by half that round-trip (a few microseconds for a
    same-host socketpair).
    """

    __slots__ = ("offset",)

    def __init__(self) -> None:
        self.offset = 0.0

    def __call__(self) -> float:
        return time.perf_counter() + self.offset


#: The forked worker's calibrated clock.  Module-global on purpose:
#: remote cell specs are built *inside* the worker (after the offset
#: has been set), and each fork gets its own copy-on-write instance.
worker_clock = _WorkerClock()


class RemoteCellError(ExecutionError):
    """A remote cell handler raised; the worker survived and replied
    with the traceback."""


class RemoteCell:
    """Parent-side handle to one grid cell hosted in a worker process."""

    def __init__(self, pool: "WorkerPool", name: str, worker: "_Worker",
                 cell_id: int):
        self._pool = pool
        self.name = name
        self._worker = worker
        self.cell_id = cell_id

    @property
    def pid(self) -> int:
        return self._worker.pid

    @property
    def alive(self) -> bool:
        return self._worker.alive

    def request_batch(self, items: List[Any]) -> Any:
        """Ship one tuple batch to the cell; returns the decoded reply.

        Raises :class:`WorkerDiedError` if the worker process is gone
        and :class:`RemoteCellError` if the cell's handler raised.
        """
        pool = self._pool
        stats = pool.stats
        t0 = time.perf_counter_ns()
        wire = pool.codec.encode_batch(items)
        stats.encode_ns += time.perf_counter_ns() - t0
        reply = pool._request(self._worker, MSG_BATCH, self.cell_id, wire)
        t0 = time.perf_counter_ns()
        result = pool.codec.decode(reply)
        stats.decode_ns += time.perf_counter_ns() - t0
        return result

    def snapshot(self) -> Dict[str, Any]:
        """Fetch the worker-side view of this cell: its ``snapshot()``
        row plus the worker's wire counters and pid."""
        reply = self._pool._request(
            self._worker, MSG_SNAPSHOT, self.cell_id, b""
        )
        return pickle.loads(reply)


class _Pending:
    """One in-flight request: a one-shot latch plus the reply it gets.

    The latch is a bare lock created held — the submitter blocks on a
    second ``acquire``, whoever resolves the request releases it.
    Exactly one of ``complete`` / ``fail`` runs per request: whoever
    pops the entry out of the worker's pending table resolves it.
    """

    __slots__ = ("_latch", "kind", "payload", "died")

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self._latch.acquire()
        self.kind = 0
        self.payload = b""
        #: Set instead of a reply when the worker died first.
        self.died: Optional[str] = None

    def complete(self, kind: int, payload: bytes) -> None:
        self.kind = kind
        self.payload = payload
        self._latch.release()

    def fail(self, reason: str) -> None:
        self.died = reason
        self._latch.release()

    def wait(self) -> None:
        self._latch.acquire()


class _Worker:
    """One worker process and its parent-side channel."""

    def __init__(self, slot: int, process, sock: socket.socket):
        self.slot = slot
        self.process = process
        self.sock = sock
        #: The send lock: held to allocate a request id, enter it in
        #: ``pending`` and write the frame — never across a ``recv``.
        self.lock = threading.Lock()
        self.alive = True
        #: cell_id -> cell name, for death attribution.
        self.cells: Dict[int, str] = {}
        self.requests = 0
        #: request id -> latch of every submitted, unanswered request.
        #: Entries go in under ``lock``; the reader pops them lock-free
        #: (a dict pop is GIL-atomic and each id is popped once).
        self.pending: Dict[int, _Pending] = {}
        self.in_flight_high_water = 0
        #: The one thread that reads ``sock`` (see ``_reader_loop``).
        self.reader: Optional[threading.Thread] = None
        #: Clock calibration results (see :class:`_WorkerClock`).
        self.clock_offset = 0.0
        self.clock_rtt = 0.0

    @property
    def pid(self) -> int:
        return self.process.pid

    def stats(self) -> Dict[str, Any]:
        return {
            "slot": self.slot,
            "pid": self.pid,
            "alive": self.alive,
            "cells": sorted(self.cells.values()),
            "requests": self.requests,
            "in_flight": len(self.pending),
            "in_flight_high_water": self.in_flight_high_water,
            "clock_offset": self.clock_offset,
            "clock_rtt": self.clock_rtt,
        }


class WorkerPool:
    """Forked worker processes hosting grid cells behind framed sockets."""

    def __init__(
        self,
        worker_processes: Optional[int] = None,
        stats: Optional[WireStats] = None,
    ):
        if not hasattr(socket, "AF_UNIX"):
            raise ExecutionConfigError(
                "the process execution model requires POSIX socketpair/fork"
            )
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise ExecutionConfigError(
                "the process execution model requires the fork start method"
            ) from None
        self.worker_processes = worker_processes
        self.stats = stats if stats is not None else WireStats()
        #: Parent-side codec: eager documents (a worker's reply carries
        #: plain dicts; lazy blobs stay on the worker side).
        self.codec = BinaryCodec(lazy_documents=False, stats=self.stats)
        self._lock = threading.Lock()
        self._workers: Dict[int, _Worker] = {}
        self._cells: Dict[str, RemoteCell] = {}
        self._cell_ids = iter(range(1, 2 ** 31))
        self._request_ids = iter(range(1, 2 ** 31))
        self._death_listeners: List[DeathListener] = []
        self._closing = False
        self._monitor: Optional[threading.Thread] = None
        self._spawned = 0
        self._deaths = 0
        #: Death listeners that raised.  The listener is the only route
        #: from a dead cell to the supervisor, so a failure is counted,
        #: never swallowed silently.
        self._death_listener_errors = 0
        #: Replies whose request id matched no pending request (the
        #: lock-step channel used to read past them silently).
        self._unmatched_replies = 0

    # -- leasing ----------------------------------------------------------

    def lease(self, name: str, spec: Any,
              slot: Optional[int] = None) -> RemoteCell:
        """Host the cell built by ``spec.build()`` in a worker process.

        *slot* pins the cell to a specific worker (the cluster places
        grid cells by partition coordinates for fan-out locality);
        without it cells round-robin over ``worker_processes`` slots,
        or get one process each when that is unset too.

        Re-leasing an existing name (supervised restart) builds a FRESH
        cell — state is rebuilt by renewing the queries it served, not
        carried over — and respawns the slot's worker if it died.
        """
        with self._lock:
            if self._closing:
                raise ExecutionError("worker pool is shut down")
            cell_id = next(self._cell_ids)
            if slot is None:
                if self.worker_processes is None:
                    slot = cell_id  # one process per cell
                else:
                    slot = cell_id % self.worker_processes
            elif self.worker_processes is not None:
                slot %= self.worker_processes
            old = self._cells.get(name)
            if old is not None:
                old._worker.cells.pop(old.cell_id, None)
            worker = self._workers.get(slot)
            if worker is None or not worker.alive:
                worker = self._spawn(slot)
            worker.cells[cell_id] = name
            cell = RemoteCell(self, name, worker, cell_id)
            self._cells[name] = cell
        self._request(worker, MSG_REGISTER, cell_id,
                      pickle.dumps(spec, protocol=5))
        return cell

    def add_death_listener(self, listener: DeathListener) -> None:
        self._death_listeners.append(listener)

    # -- plumbing ---------------------------------------------------------

    def _spawn(self, slot: int) -> _Worker:
        parent_sock, child_sock = socket.socketpair()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_sock, parent_sock),
            name=f"invalidb-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_sock.close()
        worker = _Worker(slot, process, parent_sock)
        self._calibrate(worker)
        self._start_reader(worker)
        self._workers[slot] = worker
        self._spawned += 1
        if self._monitor is None:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="worker-pool-monitor",
                daemon=True,
            )
            self._monitor.start()
        return worker

    def _calibrate(self, worker: _Worker) -> None:
        """Handshake the worker's clock offset (see :class:`_WorkerClock`).

        Runs on the fresh, otherwise-idle channel right after the fork
        — before the worker's reader thread exists and before the
        worker is published in ``self._workers`` — so lock-step raw
        frames with the control request id 0 are unambiguous.  A worker
        that dies mid-handshake keeps offset 0; the reader meets the
        EOF and reports the death through the normal machinery.
        """
        try:
            best_offset, best_rtt = 0.0, float("inf")
            for _ in range(_CALIBRATION_PINGS):
                t0 = time.perf_counter()
                send_frame(worker.sock, MSG_CALIBRATE, 0, 0, b"")
                _, _, _, payload = recv_frame(worker.sock)
                t1 = time.perf_counter()
                rtt = t1 - t0
                if rtt < best_rtt:
                    (remote,) = _CALIBRATION_DOUBLE.unpack(payload)
                    best_rtt = rtt
                    best_offset = (t0 + t1) / 2.0 - remote
            send_frame(worker.sock, MSG_CALIBRATE, 0, 0,
                       _CALIBRATION_DOUBLE.pack(best_offset))
            recv_frame(worker.sock)  # ack
            worker.clock_offset = best_offset
            worker.clock_rtt = best_rtt
        except (OSError, FrameError, struct.error):
            pass

    def _start_reader(self, worker: _Worker) -> None:
        worker.reader = threading.Thread(
            target=self._reader_loop, args=(worker,),
            name=f"worker-{worker.slot}-reader", daemon=True,
        )
        worker.reader.start()

    def _request(self, worker: _Worker, kind: int, cell_id: int,
                 payload: bytes) -> bytes:
        """Submit one frame, release the channel, wait on our own latch."""
        pending = _Pending()
        send_error: Optional[str] = None
        with worker.lock:
            if not worker.alive:
                raise WorkerDiedError(
                    f"worker-{worker.slot}", "process already dead"
                )
            request_id = next(self._request_ids)
            worker.requests += 1
            worker.pending[request_id] = pending
            worker.in_flight_high_water = max(
                worker.in_flight_high_water, len(worker.pending)
            )
            try:
                sent = send_frame(worker.sock, kind, cell_id, request_id,
                                  payload)
                self.stats.frames_sent += 1
                self.stats.bytes_sent += sent
            except (OSError, FrameError) as exc:
                send_error = str(exc)
        if send_error is not None:
            # Fails every pending request, ours included.
            self._worker_died(worker, send_error)
        pending.wait()
        if pending.died is not None:
            raise WorkerDiedError(f"worker-{worker.slot}", pending.died)
        if pending.kind == MSG_ERROR:
            raise RemoteCellError(
                f"remote cell failed in worker-{worker.slot} "
                f"(pid {worker.pid}):\n"
                f"{pending.payload.decode('utf-8', 'replace')}"
            )
        return pending.payload

    def _reader_loop(self, worker: _Worker) -> None:
        """The only reader of ``worker.sock``: route each reply to the
        request that is waiting for it.

        Takes no lock per frame, so a submitter blocked in ``sendall``
        on a full buffer can never stall the side that drains it.  The
        control id 0 (shutdown ack) has no waiter by design; any other
        unknown id is counted.  EOF or a malformed frame ends the loop
        and the channel with it.
        """
        sock, pending, stats = worker.sock, worker.pending, self.stats
        while True:
            try:
                kind, _, request_id, payload = recv_frame(sock)
            except (OSError, FrameError) as exc:
                reason = str(exc)
                break
            stats.frames_received += 1
            stats.bytes_received += len(payload) + 13
            entry = pending.pop(request_id, None)
            if entry is not None:
                entry.complete(kind, payload)
            elif request_id:
                self._unmatched_replies += 1
        self._worker_died(worker, reason)

    def _worker_died(self, worker: _Worker, reason: str) -> None:
        """The one death path — reader EOF, failed send and the sentinel
        monitor all end here, in any order and any number of times.

        Call without ``worker.lock``.  ``_mark_dead_locked`` hangs up
        the socket, which unblocks a submitter stuck in ``sendall``, so
        the send lock below is free promptly; taking it means no request
        can slip into ``pending`` after the sweep (a later submitter
        sees ``alive`` False under the same lock).
        """
        with self._lock:
            orphans = self._mark_dead_locked(worker, reason)
        stranded: List[_Pending] = []
        with worker.lock:
            # Pop one by one: the reader may still be handing out the
            # last buffered replies, and an entry must be resolved by
            # exactly one of us.
            try:
                while True:
                    stranded.append(worker.pending.popitem()[1])
            except KeyError:
                pass
        for entry in stranded:
            entry.fail(reason)
        self._fire_death(orphans, worker.pid, reason)

    def _mark_dead_locked(self, worker: _Worker, reason: str) -> List[str]:
        if not worker.alive:
            return []
        worker.alive = False
        if not self._closing:
            self._deaths += 1
        _hang_up(worker.sock)
        orphans = list(worker.cells.values())
        worker.cells.clear()
        return orphans

    def _fire_death(self, cell_names: List[str], pid: int,
                    reason: str) -> None:
        if self._closing:
            return
        for name in cell_names:
            for listener in self._death_listeners:
                try:
                    listener(name, pid, reason)
                except Exception:  # noqa: BLE001 - a listener must not
                    # take the monitor down with it, nor keep the
                    # remaining listeners from hearing of the death.
                    self._death_listener_errors += 1

    def _monitor_loop(self) -> None:
        while True:
            with self._lock:
                if self._closing:
                    return
                watched = {
                    worker.process.sentinel: worker
                    for worker in self._workers.values() if worker.alive
                }
            if not watched:
                time.sleep(0.05)
                continue
            ready = _sentinel_wait(list(watched), timeout=0.2)
            for sentinel in ready:
                worker = watched[sentinel]
                worker.process.join(timeout=0.1)
                code = worker.process.exitcode
                self._worker_died(
                    worker, f"process exited with code {code}"
                )

    # -- lifecycle --------------------------------------------------------

    def shutdown(self, timeout: float = 2.0) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
            workers = list(self._workers.values())
        for worker in workers:
            if not worker.alive:
                continue
            try:
                with worker.lock:
                    send_frame(worker.sock, MSG_SHUTDOWN, 0, 0, b"")
            except (OSError, FrameError):
                pass
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=0.5)
            # With ``_closing`` set the death path — ours or the
            # reader's, whoever meets the EOF first — fails what was
            # still in flight but counts no death and tells no listener.
            self._worker_died(worker, "worker pool is shut down")
            worker.reader.join(timeout=1.0)
        if self._monitor is not None:
            self._monitor.join(timeout=1.0)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "worker_processes": self.worker_processes,
                "spawned": self._spawned,
                "deaths": self._deaths,
                "death_listener_errors": self._death_listener_errors,
                "unmatched_replies": self._unmatched_replies,
                "workers": [
                    worker.stats() for worker in self._workers.values()
                ],
                "wire": self.stats.snapshot(),
            }


def _hang_up(sock: socket.socket) -> None:
    """Close *sock*, first waking every thread blocked on it.

    ``close`` alone leaves a ``recv`` or ``sendall`` already in the
    kernel asleep; ``shutdown`` ends both with EOF / EPIPE, and reaches
    the peer even while another fork still holds a copy of the fd.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or already shut down
    sock.close()


class ProcessExecutionModel(ThreadedExecutionModel):
    """Threaded substrate + a worker pool hosting the grid's cells.

    Mailboxes, timers, fault injection and drain accounting
    are all inherited from :class:`ThreadedExecutionModel` — the grid
    tasks still run on parent threads; what a process-mode task does in its
    handler is one request on its worker's pipelined channel instead of
    local compute.  The pool is created lazily on first use, so a process
    model that only ever runs the broker costs nothing extra.
    """

    deterministic = False

    def __init__(self, config: Optional[ExecutionConfig] = None):
        if config is None:
            config = ExecutionConfig(mode=PROCESS)
        super().__init__(config)
        self._pool: Optional[WorkerPool] = None
        self._pool_lock = threading.Lock()

    @property
    def worker_pool(self) -> WorkerPool:
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = WorkerPool(
                        worker_processes=self.config.worker_processes,
                    )
                    self._pool = pool
        return pool

    def shutdown(self, timeout: Optional[float] = None) -> None:
        pool = self._pool
        if pool is not None:
            pool.shutdown()
        super().shutdown(timeout=timeout)

    def stats(self) -> Dict[str, Any]:
        snapshot = super().stats()
        snapshot["mode"] = PROCESS
        if self._pool is not None:
            snapshot["workers"] = self._pool.snapshot()
        return snapshot


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_main(sock: socket.socket, parent_sock: socket.socket) -> None:
    """Entry point of a forked worker: serve frames until shutdown.

    Replies with ``MSG_REPLY`` on success and ``MSG_ERROR`` (payload =
    traceback text) when a handler raises; the worker itself survives
    handler errors.  EOF on the channel — the parent died — exits the
    process immediately.
    """
    # The fork duplicated the parent's end of our socketpair; close it
    # so EOF propagates when the parent really goes away.
    try:
        parent_sock.close()
    except OSError:  # pragma: no cover
        pass
    stats = WireStats()
    codec = BinaryCodec(lazy_documents=True, stats=stats)
    cells: Dict[int, Any] = {}
    while True:
        try:
            kind, cell_id, request_id, payload = recv_frame(sock)
        except (OSError, FrameError):
            os._exit(0)
        stats.frames_received += 1
        stats.bytes_received += len(payload) + 13
        try:
            if kind == MSG_BATCH:
                t0 = time.perf_counter_ns()
                batch = codec.decode_batch(payload)
                stats.decode_ns += time.perf_counter_ns() - t0
                result = cells[cell_id].handle_batch(batch)
                t0 = time.perf_counter_ns()
                reply = codec.encode(result)
                stats.encode_ns += time.perf_counter_ns() - t0
            elif kind == MSG_REGISTER:
                spec = pickle.loads(payload)
                cells[cell_id] = spec.build()
                reply = b""
            elif kind == MSG_CALIBRATE:
                if payload:
                    # Set frame: adopt the parent-computed offset.
                    (worker_clock.offset,) = \
                        _CALIBRATION_DOUBLE.unpack(payload)
                    reply = b""
                else:
                    # Ping: report our raw perf_counter reading.
                    reply = _CALIBRATION_DOUBLE.pack(time.perf_counter())
            elif kind == MSG_SNAPSHOT:
                cell = cells.get(cell_id)
                reply = pickle.dumps({
                    "pid": os.getpid(),
                    "cell": None if cell is None else cell.snapshot(),
                    "wire": stats.snapshot(),
                }, protocol=5)
            elif kind == MSG_SHUTDOWN:
                try:
                    send_frame(sock, MSG_REPLY, 0, request_id, b"")
                except (OSError, FrameError):  # pragma: no cover
                    pass
                os._exit(0)
            else:
                raise ExecutionError(f"unknown message kind {kind}")
        except Exception:  # noqa: BLE001 - report, don't die
            text = traceback.format_exc().encode("utf-8")
            try:
                sent = send_frame(sock, MSG_ERROR, cell_id, request_id, text)
                stats.frames_sent += 1
                stats.bytes_sent += sent
            except (OSError, FrameError):
                os._exit(0)
            continue
        try:
            sent = send_frame(sock, MSG_REPLY, cell_id, request_id, reply)
            stats.frames_sent += 1
            stats.bytes_sent += sent
        except (OSError, FrameError):
            os._exit(0)
