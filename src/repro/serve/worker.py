"""Shard worker: a snapshot-backed serving path that crosses process
boundaries by *path*, never by pickled table.

One worker hosts the serving half of an
:class:`~repro.cluster.node.EdgeServerNode`: a full-table replica cache
rebuilt from a :class:`~repro.store.MappedTableStore` snapshot (warm,
O(ms), read-only mmap shared with every sibling worker) plus a private
:class:`~repro.core.cache.LookupWorkspace`, walked with the pure
:func:`~repro.core.probe.walk_cache_batch` kernel.  The front-end runs
one worker per shard, selectable: a thread behind a single-worker
``ThreadPoolExecutor`` that runs :func:`initialize_worker` once and then
one task per request, or a persistent process running
:func:`worker_main` — :func:`initialize_worker`, then a loop that reads a
call from the lane's socket, runs it and writes the answer back.  Either
way one thread does all of a worker's work, so worker state lives in a
``threading.local`` and the same functions serve both modes unchanged.

What crosses the boundary per request is the query tensor ``(B, L+1, d)``
and a small :class:`WorkerReply` of per-frame results — kilobytes — each
as one length-prefixed pickle on the socket (see :func:`pack_message`).
The centroid table itself is never serialized: every process maps the
same snapshot bytes from the page cache.

The walk's stacked kernel reads the cache through a *layer pack*
(:meth:`~repro.core.cache.SemanticCache.layer_pack`) whose blocks alias
those mapped bytes — no resident copy, no promotion of a view-backed
layer.  Nothing builds it at worker start: :func:`initialize_worker` costs
what it did, and the worker's **first request** builds the pack (about
half a millisecond for a 34-layer snapshot) and keeps it for every later
one.  A request whose tensor does not fit the snapshot's geometry is
refused by the walk with a ``ValueError`` naming expected and got
shapes; the worker keeps serving.

**Emulated device compute.**  As everywhere in this reproduction, the
DNN itself is simulated: the probe math is real, and the edge device's
per-request service time is emulated by a wall-clock *service floor*
(``service_floor_ms``, the analogue of
:attr:`~repro.sim.network.ServerLoadModel.service_time_ms`) plus an
optional per-missed-frame penalty (``miss_ms``, the full-model run a
miss would cost).  A floor-dominated service time is deterministic —
exactly the M/D/1 service process the analytic cross-check assumes —
and lets saturation-throughput measurements exercise the concurrency
layer rather than NumPy's single-core matmul throughput.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from repro.core.cache import LookupWorkspace, SemanticCache
from repro.core.probe import walk_cache_batch
from repro.store import MappedTableStore

#: Meta-array name of the calibrated per-layer similarity floors a
#: server-written snapshot carries (see CoCaServer.save_snapshot).
_FLOOR_REFERENCE = "reference_similarity_floor"


class WorkerOptions(NamedTuple):
    """Picklable knobs shipped to every worker at its start.

    Attributes:
        alpha: Eq. 1 cross-layer accumulation factor.
        theta: Eq. 2 early-exit threshold.
        service_floor_ms: emulated per-request device service time; the
            worker sleeps out the remainder after the real probe math.
        miss_ms: emulated full-model time per frame that missed every
            cache layer (0 = serve the cache's best guess immediately).

    The snapshot's calibrated per-layer similarity floors are applied
    whenever it carries them.
    """

    alpha: float = 0.5
    theta: float = 0.05
    service_floor_ms: float = 0.0
    miss_ms: float = 0.0


class WorkerReply(NamedTuple):
    """Per-request result shipped back from a shard worker.

    Arrays are owned copies (never workspace views), so they survive
    pickling in process mode and buffer reuse in thread mode.

    Attributes:
        predicted: ``(B,)`` class served per frame — the hit layer's
            winner, or the deepest layer's best guess on a miss.
        hit_layer: ``(B,)`` cache layer that hit, ``-1`` on miss.
        hit_score: ``(B,)`` Eq. 2 score at the hit layer, NaN on miss.
        service_ms: wall-clock time the worker spent on this request
            (probe math + emulated device compute).
        probe_ms: the real probe-math portion of ``service_ms``.
        worker_pid: OS pid of the serving worker (distinguishes
            process-mode workers from thread-mode ones in diagnostics).
    """

    predicted: np.ndarray
    hit_layer: np.ndarray
    hit_score: np.ndarray
    service_ms: float
    probe_ms: float
    worker_pid: int

    @property
    def hits(self) -> int:
        return int((self.hit_layer >= 0).sum())


class WorkerState:
    """Everything one shard worker holds between requests."""

    def __init__(self, snapshot_path: str, options: WorkerOptions) -> None:
        started = time.perf_counter()
        self.options = options
        self.store = MappedTableStore(snapshot_path)
        self.cache: SemanticCache = self.store.serving_cache(
            alpha=options.alpha,
            theta=options.theta,
            floors=self.store.references().get(_FLOOR_REFERENCE),
        )
        self.workspace = LookupWorkspace()
        self.init_ms = 1e3 * (time.perf_counter() - started)
        self.requests_served = 0

    def close(self) -> None:
        self.workspace.close()
        self.store.close()


_TLS = threading.local()


def _state() -> WorkerState:
    state = getattr(_TLS, "state", None)
    if state is None:
        raise RuntimeError(
            "worker not initialized: run initialize_worker on the worker's "
            "thread before probe_chunk"
        )
    assert isinstance(state, WorkerState)
    return state


def initialize_worker(snapshot_path: str, options: WorkerOptions) -> None:
    """Worker start: build this worker's serving state from the
    snapshot path (the only table 'transfer' that ever happens)."""
    _TLS.state = WorkerState(snapshot_path, options)


def shutdown_worker() -> None:
    """Release the worker's mmap handle and probe buffers (idempotent).

    The last call on a shard lane before its worker is joined, so
    long-lived serving workers do not leak file handles or
    pooled buffers — the teardown half of the
    :meth:`~repro.core.cache.LookupWorkspace.close` contract.
    """
    state = getattr(_TLS, "state", None)
    if state is not None:
        state.close()
        _TLS.state = None


def probe_chunk(vectors: np.ndarray) -> WorkerReply:
    """Serve one request: walk the cache over a ``(B, L+1, d)`` chunk.

    Runs the pure probe walk, then sleeps out the emulated device
    compute (service floor + per-miss penalty).  Returns owned copies
    of the per-frame outcomes.
    """
    state = _state()
    started = time.perf_counter()
    walk = walk_cache_batch(state.cache, vectors, state.workspace)
    predicted = walk.predicted.copy()
    hit_layer = walk.hit_layer.copy()
    hit_score = walk.hit_score.copy()
    probe_ms = 1e3 * (time.perf_counter() - started)
    misses = int((hit_layer < 0).sum())
    opts = state.options
    target_ms = opts.service_floor_ms + opts.miss_ms * misses
    remaining_s = (target_ms - probe_ms) / 1e3
    if remaining_s > 0:
        time.sleep(remaining_s)
    state.requests_served += 1
    return WorkerReply(
        predicted=predicted,
        hit_layer=hit_layer,
        hit_score=hit_score,
        service_ms=1e3 * (time.perf_counter() - started),
        probe_ms=probe_ms,
        worker_pid=os.getpid(),
    )


def worker_info() -> dict[str, int | float | list[int]]:
    """Diagnostics snapshot of this worker's serving state.

    Used by tests to prove concurrent readers never promote mapped
    layers: ``view_backed_layers`` must still cover every active layer
    after arbitrarily many probes.
    """
    state = _state()
    return {
        "pid": os.getpid(),
        "init_ms": state.init_ms,
        "requests_served": state.requests_served,
        "active_layers": list(state.cache.active_layers),
        "view_backed_layers": state.cache.view_backed_layers(),
        "num_classes": state.cache.num_classes,
        "epoch": state.store.epoch,
    }


# ----------------------------------------------------------------------
# Process-mode transport: messages on a stream socket
# ----------------------------------------------------------------------

#: Frame prefix: bytes of pickle that follow.
_LENGTH = struct.Struct("<Q")


def pack_message(message: Any) -> list[memoryview]:
    """Frame one message for a stream socket, as buffers for ``sendmsg``."""
    payload = pickle.dumps(message, protocol=5)
    return [memoryview(_LENGTH.pack(len(payload))), memoryview(payload)]


class MessageReader:
    """Incremental decoder of the messages arriving on one socket."""

    def __init__(self) -> None:
        self._prefix = bytearray(_LENGTH.size)
        self._target = memoryview(self._prefix)
        self._filled = 0
        self._in_payload = False

    def read(self, conn: socket.socket) -> Any:
        """Receive until one message is complete and return it.

        Raises:
            BlockingIOError: a non-blocking socket ran dry; the partial
                message is kept and the next call continues it.
            EOFError: the peer closed its end.
        """
        while True:
            received = conn.recv_into(self._target[self._filled :])
            if received == 0:
                raise EOFError("peer closed the connection")
            self._filled += received
            if self._filled < len(self._target):
                continue
            self._filled = 0
            if self._in_payload:
                payload, self._target = self._target, memoryview(self._prefix)
                self._in_payload = False
                return pickle.loads(payload)
            (size,) = _LENGTH.unpack(self._prefix)
            # Uninitialised on purpose: recv_into fills every byte.
            self._target = memoryview(np.empty(size, dtype=np.uint8))
            self._in_payload = True


def send_some(conn: socket.socket, parts: deque[memoryview]) -> None:
    """One ``sendmsg`` of the queued buffers; drop what went out.

    On a non-blocking socket that takes nothing this raises
    ``BlockingIOError`` and leaves ``parts`` as it was.
    """
    sent = conn.sendmsg(parts)
    while parts and sent >= parts[0].nbytes:
        sent -= parts.popleft().nbytes
    if sent:
        parts[0] = parts[0][sent:]


#: What a front-end may ask of a worker process, by function name.
_CALLS: dict[str, Callable[..., Any]] = {
    fn.__name__: fn for fn in (probe_chunk, worker_info, shutdown_worker)
}


def worker_main(
    conn: socket.socket,
    snapshot_path: str,
    options: WorkerOptions,
    inherited: Iterable[socket.socket] = (),
) -> None:
    """Body of a process-mode shard worker: serve calls until shutdown.

    Reads ``(function name, args)`` messages from ``conn``, runs the
    named function, and answers ``(True, value)`` or ``(False,
    exception)`` — an exception is the caller's to handle, the worker
    keeps serving.  Returns after answering ``shutdown_worker``, or when
    the front-end's end of ``conn`` closes (a front-end that died leaves
    no orphan).  ``inherited`` are front-end ends of lane sockets that a
    forked worker holds a copy of; they are closed first, or the copies
    would keep every lane's connection open after the front-end is gone.
    """
    for end in inherited:
        end.close()
    initialize_worker(snapshot_path, options)
    reader = MessageReader()
    try:
        while True:
            name, args = reader.read(conn)
            try:
                reply = (True, _CALLS[name](*args))
            except Exception as error:
                reply = (False, error)
            parts = deque(pack_message(reply))
            while parts:
                send_some(conn, parts)
            if name == shutdown_worker.__name__:
                return
    except (EOFError, ConnectionError):
        return  # the front-end is gone
    finally:
        shutdown_worker()
        conn.close()
