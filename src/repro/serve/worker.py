"""Shard worker: a snapshot-backed serving path that crosses process
boundaries by *path*, never by pickled table.

One worker hosts the serving half of an
:class:`~repro.cluster.node.EdgeServerNode`: a full-table replica cache
rebuilt from a :class:`~repro.store.MappedTableStore` snapshot (warm,
O(ms), read-only mmap shared with every sibling worker) plus a private
:class:`~repro.core.cache.LookupWorkspace`, walked with the pure
:func:`~repro.core.probe.walk_cache_batch` kernel — all of it one
:class:`WorkerState`, which every call takes explicitly.  The front-end
runs one worker per shard, selectable: on its own event-loop thread,
where the lane holds the worker's state and runs each call's
:func:`answers` itself, or as a persistent process running
:func:`worker_main` — build the state, then a loop that reads a call
from the lane's socket, runs its :func:`answers` and writes them back.

**One call, many requests.**  The front-end hands a free worker every
request waiting on its lane as one :func:`serve_requests` call (a lone
request is a call of one).  The worker walks all their rows with one
:func:`~repro.core.probe.walk_cache_batch` — a single-frame walk is
mostly per-block overhead, which the coalesced rows share — and splits
the walk back into one :class:`WorkerReply` per request, each an
answer of its own.  A request whose tensor does not fit the snapshot's
geometry is refused alone, with the walk's ``ValueError`` naming
expected and got shapes; the rest of its call is served.  So a call
does four things: check each tensor's fit, walk the fitting ones
together with the layer pack that check returned (so no tensor is
checked twice), copy the walk's results once and cut the copies into
per-request views, with every request's hit count from one pass over
the call, and yield, in call order, each request's refusal or reply
with its due time.  Its fixed cost is what a single-frame call pays on
top of its walk, so it keeps to that: the copies and the hit count are
made once per call, not per request, and the call's replies are
collected only for the ``REPRO_CONTRACTS=1`` check of the whole call.

No request tensor is serialized.  A process lane copies each query
tensor ``(B, L+1, d)`` of a call into its :class:`RequestArena` — a
shared-memory file its worker maps too (:class:`ArenaMap`) — and the
call's socket message carries only each tensor's :data:`Slot` (offset,
shape, dtype).  What comes back per request is a small
:class:`WorkerReply` of per-frame results — kilobytes — as one
length-prefixed pickle (see :func:`pack_message`); every answer already
due when the worker writes goes out in the same ``sendmsg``.  The
centroid table is never serialized either: every process maps the same
snapshot bytes from the page cache.

The walk's stacked kernel reads the cache through a *layer pack*
(:meth:`~repro.core.cache.SemanticCache.layer_pack`) whose blocks alias
those mapped bytes — no resident copy, no promotion of a view-backed
layer.  Nothing builds it at worker start: a :class:`WorkerState` costs
what it did, and the worker's **first request** builds the pack (about
half a millisecond for a 34-layer snapshot) and keeps it for every later
one.

**Emulated device compute.**  As everywhere in this reproduction, the
DNN itself is simulated: the probe math is real, and the edge device's
per-request service time is emulated by a wall-clock *service floor*
(``service_floor_ms``, the analogue of
:attr:`~repro.sim.network.ServerLoadModel.service_time_ms`) plus an
optional per-missed-frame penalty (``miss_ms``, the full-model run a
miss would cost), owed after the real probe math.  A call of k
requests owes k floors: request i's service is its own floor plus miss
penalty (or its row share of the walk, where that is longer — what it
would owe alone), and its reply is due once the services of requests
0..i have elapsed — the device serves the call's requests one after
another, in order.  :func:`serve_requests` does not sleep: it yields
each answer with its due offset from the call's start, and the caller
releases it then — a process worker writes every answer already due
and sleeps until the next one's offset, an in-loop lane hands over an
answer already due at once and schedules a later one on the loop.  A
floor-dominated service time is deterministic — exactly the M/D/1
service process the analytic cross-check assumes — and lets
saturation-throughput measurements exercise the concurrency layer
rather than NumPy's single-core matmul throughput.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import socket
import struct
import time
from collections import deque
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro import contracts
from repro.blas import THREAD_POOL_VARS
from repro.core.cache import LayerPack, LookupWorkspace, SemanticCache
from repro.core.probe import _walk_fitted, check_fit
from repro.store import MappedTableStore

#: Meta-array name of the calibrated per-layer similarity floors a
#: server-written snapshot carries (see CoCaServer.save_snapshot).
_FLOOR_REFERENCE = "reference_similarity_floor"


class WorkerOptions(NamedTuple):
    """Picklable knobs shipped to every worker at its start.

    Attributes:
        alpha: Eq. 1 cross-layer accumulation factor.
        theta: Eq. 2 early-exit threshold.
        service_floor_ms: emulated per-request device service time; a
            reply is due no earlier than this after its service start
            (a call of k requests owes k floors).
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

    Arrays are views of the call's own copy of the walk's results (the
    copy itself for a call of one request), never workspace views, so
    they survive pickling in process mode and the next walk while they
    wait for their due time.

    Attributes:
        predicted: ``(B,)`` class served per frame — the hit layer's
            winner, or the deepest layer's best guess on a miss.
        hit_layer: ``(B,)`` cache layer that hit, ``-1`` on miss.
        hit_score: ``(B,)`` Eq. 2 score at the hit layer, NaN on miss.
        service_ms: wall-clock time the worker spent on this request —
            from the previous reply's due time in its call (or the call's
            start) to this one's; over a call they sum to the worker's
            busy time.
        probe_ms: this request's row share of its call's probe math.
        worker_pid: OS pid of the serving worker (distinguishes
            process-mode workers from in-loop ones in diagnostics).
        behind_ms: time from the call's start to this request's service
            start — the services of the requests ahead of it in the call.
        hits: frames that hit (``hit_layer >= 0``), counted by
            :func:`serve_requests` once per call; ``-1`` on a reply
            built without the count.
    """

    predicted: np.ndarray
    hit_layer: np.ndarray
    hit_score: np.ndarray
    service_ms: float
    probe_ms: float
    worker_pid: int
    behind_ms: float = 0.0
    hits: int = -1


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
        self.closed = False

    def check_open(self) -> None:
        """Refuse a call on a worker that was shut down."""
        if self.closed:
            raise RuntimeError("worker is shut down: it serves no more calls")

    def close(self) -> None:
        self.workspace.close()
        self.store.close()
        self.closed = True


def shutdown_worker(state: WorkerState) -> None:
    """Release the worker's mmap handle and probe buffers (idempotent).

    The last call on a shard lane, so long-lived serving workers do not
    leak file handles or pooled buffers — the teardown half of the
    :meth:`~repro.core.cache.LookupWorkspace.close` contract.  Any later
    call on ``state`` raises ``RuntimeError``.
    """
    state.close()


def _walk_together(
    state: WorkerState, pack: LayerPack | None, chunks: list[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Walk every chunk's rows in one walk; ``(predicted, hit_layer,
    hit_score, hits)`` per chunk.

    The call copies the walk's three arrays once and counts every
    chunk's hits in one pass; each chunk gets views of those copies
    (a lone chunk the copies themselves).  Every chunk has passed
    :func:`~repro.core.probe.check_fit`, and ``pack`` is the layer pack
    it returned (``None``: no chunk), so the walk does not check them
    again.
    """
    if pack is None:
        return []
    cache = state.cache
    if len(chunks) == 1:
        vectors = chunks[0]
    else:
        # Only the levels and width a walk reads, cast straight to the
        # cache dtype as the walk of one chunk casts it.
        vectors = np.concatenate(
            [chunk[:, : pack.levels, : pack.dim] for chunk in chunks],
            dtype=cache.dtype,
            casting="unsafe",
        )
    walk = _walk_fitted(cache, pack, vectors, state.workspace)
    predicted = walk.predicted.copy()
    hit_layer = walk.hit_layer.copy()
    hit_score = walk.hit_score.copy()
    if len(chunks) == 1:
        return [(predicted, hit_layer, hit_score, int(np.count_nonzero(hit_layer >= 0)))]
    # Hits among the first r rows, for every r: a chunk's are a difference.
    hits_before = [0, *np.cumsum(hit_layer >= 0).tolist()]
    outcomes: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []
    lo = 0
    for chunk in chunks:
        hi = lo + chunk.shape[0]
        outcomes.append(
            (
                predicted[lo:hi],
                hit_layer[lo:hi],
                hit_score[lo:hi],
                hits_before[hi] - hits_before[lo],
            )
        )
        lo = hi
    return outcomes


def serve_requests(
    state: WorkerState, chunks: Sequence[np.ndarray]
) -> Iterator[tuple[bool, Any, float]]:
    """Serve one call: every chunk's rows in one cache walk.

    Each chunk is one request's ``(B, L+1, d)`` tensor.  Yields one
    ``(True, WorkerReply, due_s)``, or ``(False, ValueError, due_s)`` for
    a chunk that does not fit the cache, per chunk in call order;
    ``due_s`` is the answer's due time in seconds from the call's start
    (see the module docstring), or the moment it was made if the walk
    ran past that.  Releasing it then is the caller's.
    """
    state.check_open()
    started = time.perf_counter()
    refusals: list[ValueError | None] = []
    fitting: list[np.ndarray] = []
    pack: LayerPack | None = None
    for chunk in chunks:
        try:
            pack = check_fit(state.cache, chunk)
        except ValueError as error:
            refusals.append(error)
        else:
            refusals.append(None)
            fitting.append(chunk)
    walked = iter(_walk_together(state, pack, fitting))
    walk_ms = 1e3 * (time.perf_counter() - started)
    rows = max(sum(chunk.shape[0] for chunk in fitting), 1)

    opts = state.options
    pid = os.getpid()
    due_ms = boundary_ms = 0.0
    replies: list[object] = []
    for refusal in refusals:
        answer: tuple[bool, Any]
        if refusal is not None:
            answer = (False, refusal)
        else:
            predicted, hit_layer, hit_score, hits = next(walked)
            probe_ms = walk_ms * predicted.size / rows
            owed_ms = opts.service_floor_ms
            if opts.miss_ms:
                owed_ms += opts.miss_ms * (predicted.size - hits)
            due_ms += max(probe_ms, owed_ms)
            release_ms = max(due_ms, 1e3 * (time.perf_counter() - started))
            answer = (
                True,
                WorkerReply(
                    predicted=predicted,
                    hit_layer=hit_layer,
                    hit_score=hit_score,
                    service_ms=release_ms - boundary_ms,
                    probe_ms=probe_ms,
                    worker_pid=pid,
                    behind_ms=boundary_ms,
                    hits=hits,
                ),
            )
            boundary_ms = release_ms
            state.requests_served += 1
        if contracts.ENABLED:
            replies.append(answer[1])
            if len(replies) == len(chunks):
                contracts.check_call_replies(
                    [chunk.shape[0] for chunk in chunks], replies, boundary_ms
                )
        yield answer[0], answer[1], boundary_ms / 1e3


def worker_info(state: WorkerState) -> dict[str, int | float | list[int]]:
    """Diagnostics snapshot of this worker's serving state.

    Used by tests to prove concurrent readers never promote mapped
    layers: ``view_backed_layers`` must still cover every active layer
    after arbitrarily many probes.  ``thread_pools`` is the BLAS/OpenMP
    pool sizing the worker runs with (see :mod:`repro.blas`).
    """
    state.check_open()
    return {
        "pid": os.getpid(),
        "init_ms": state.init_ms,
        "requests_served": state.requests_served,
        "active_layers": list(state.cache.active_layers),
        "view_backed_layers": state.cache.view_backed_layers(),
        "num_classes": state.cache.num_classes,
        "epoch": state.store.epoch,
        "thread_pools": {name: os.environ.get(name) for name in THREAD_POOL_VARS},
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


#: Buffers one ``sendmsg`` takes at most (Linux refuses more than 1024).
_MAX_PARTS = 512


def send_some(conn: socket.socket, parts: deque[memoryview]) -> None:
    """One ``sendmsg`` of the queued buffers; drop what went out.

    On a non-blocking socket that takes nothing this raises
    ``BlockingIOError`` and leaves ``parts`` as it was.
    """
    sent = conn.sendmsg(islice(parts, _MAX_PARTS))
    while parts and sent >= parts[0].nbytes:
        sent -= parts.popleft().nbytes
    if sent:
        parts[0] = parts[0][sent:]


def send_all(conn: socket.socket, parts: deque[memoryview]) -> None:
    """Write every queued buffer on a blocking socket."""
    while parts:
        send_some(conn, parts)


def check_tensor(vectors: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``vectors`` is a numeric array — the
    only kind a request tensor can be (an arena holds raw numbers, never
    object references)."""
    if not isinstance(vectors, np.ndarray) or vectors.dtype.kind not in "biufc":
        raise ValueError(
            "a request tensor must be a numeric numpy array, got "
            f"{getattr(vectors, 'dtype', type(vectors).__name__)}"
        )


#: Where one request tensor lies in its lane's arena:
#: ``(byte offset, shape, dtype string)``.
Slot = tuple[int, tuple[int, ...], str]

#: Byte boundary every tensor of an arena starts on.
_ALIGN = 64


class RequestArena:
    """The front-end's end of a lane's shared request memory.

    A growable ``memfd`` file: :meth:`put` copies a call's tensors into
    it, each in its own dtype, and returns their :data:`Slot` s, which
    are all the call's message carries; the lane's worker reads the
    tensors in place through an :class:`ArenaMap` of the same file.

    Allocation is a bump pointer.  A call's tensors lie back to back
    after those of the calls still live (sent and not yet answered), and
    the pointer restarts at 0 when none is; a lane's dispatcher has one
    call live at a time, so it restarts every call.  A call that does
    not fit grows the file: offsets never move, so live calls keep their
    bytes.  The front-end holds no view of the mapping between calls,
    which is what lets ``mmap.resize`` move it.
    """

    def __init__(self, size: int = 1 << 20) -> None:
        self.fd = os.memfd_create("repro-request-arena")
        os.ftruncate(self.fd, size)
        self.map = mmap.mmap(self.fd, size)
        self.top = 0
        #: ``(offset, bytes)`` reserved by each live call, oldest first.
        self.live: deque[tuple[int, int]] = deque()

    @property
    def size(self) -> int:
        return len(self.map)

    def put(self, chunks: Sequence[np.ndarray]) -> list[Slot]:
        """Reserve room for one call's tensors and copy them in.

        Raises ``ValueError`` for a tensor that is not numeric, before
        anything is reserved.  A call of no tensors reserves nothing.
        """
        for chunk in chunks:
            check_tensor(chunk)
        if not chunks:
            return []
        start = self.top if self.live else 0
        slots: list[Slot] = []
        top = start
        for chunk in chunks:
            slots.append((top, chunk.shape, chunk.dtype.str))
            top += -(-chunk.nbytes // _ALIGN) * _ALIGN
        if top > self.size:
            self.map.resize(max(top, 2 * self.size))
        for (offset, shape, dtype), chunk in zip(slots, chunks):
            if chunk.size:
                np.ndarray(shape, dtype, self.map, offset)[...] = chunk
        self.live.append((start, top - start))
        self.top = top
        return slots

    def release(self) -> None:
        """The oldest live call was answered: its bytes are free."""
        self.live.popleft()

    def close(self) -> None:
        """Unmap and close the file (idempotent)."""
        if not self.map.closed:
            self.map.close()
            os.close(self.fd)


class ArenaMap:
    """A worker's read-only mapping of its lane's :class:`RequestArena`."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.map: mmap.mmap | None = None

    def views(self, slots: Sequence[Slot]) -> list[np.ndarray]:
        """The tensors at ``slots``, as arrays over the shared bytes.

        Maps the file anew when a slot lies past the current mapping —
        the front-end grew it; an older mapping goes once its views do.
        """
        end = max(
            (offset + np.dtype(dtype).itemsize * math.prod(shape)
             for offset, shape, dtype in slots),
            default=0,
        )
        if self.map is None or end > len(self.map):
            self.map = mmap.mmap(self.fd, 0, access=mmap.ACCESS_READ)
        return [
            np.ndarray(shape, dtype, self.map, offset) for offset, shape, dtype in slots
        ]


#: What a front-end may ask of a worker, by function name.
_CALLS: dict[str, Callable[..., Any]] = {
    fn.__name__: fn for fn in (serve_requests, worker_info, shutdown_worker)
}


def answers(
    state: WorkerState, fn: Callable[..., Any], args: tuple[Any, ...]
) -> Iterator[tuple[bool, Any, float]]:
    """Run one call ``fn(state, *args)``: ``(True, value, due_s)`` or
    ``(False, exception, due_s)`` per answer it owes, in order.

    A :func:`serve_requests` call owes one answer per chunk, any other
    call one, due at once.  An exception the call raises answers
    everything still owed, due with the last answer given, so a caller
    always gets exactly that many.
    """
    owed = len(args[0]) if fn is serve_requests else 1
    due_s = 0.0
    try:
        if fn is serve_requests:
            for ok, value, due_s in serve_requests(state, *args):
                owed -= 1
                yield ok, value, due_s
        else:
            value = fn(state, *args)
            owed -= 1
            yield True, value, 0.0
    except Exception as error:
        for _ in range(owed):
            yield False, error, due_s


def worker_main(
    conn: socket.socket,
    arena_fd: int,
    snapshot_path: str,
    options: WorkerOptions,
    inherited: Iterable[socket.socket | RequestArena] = (),
) -> None:
    """Body of a process-mode shard worker: serve calls until shutdown.

    Reads ``(function name, args)`` messages from ``conn``, runs the
    named function on this worker's :class:`WorkerState`, and writes
    each of its :func:`answers` — ``(True, value)`` or ``(False,
    exception)`` — as one message once it is due; every answer due by
    then goes out in one ``sendmsg``, written before the worker sleeps
    until the next is due.  An exception is the caller's to handle, the
    worker keeps serving.  A :func:`serve_requests` call names its
    tensors by :data:`Slot` in the lane's arena, the file ``arena_fd``;
    the worker walks them in place.  Returns after answering
    ``shutdown_worker``, or when the front-end's end of ``conn`` closes
    (a front-end that died leaves no orphan).  A worker whose
    :class:`WorkerState` cannot be built (a truncated shard, a partially
    filled snapshot) answers its first call with that exception and
    returns, so the front-end sees the same typed error in either
    mode.  ``inherited`` are
    front-end ends of lane sockets, and other lanes' arenas, that a
    forked worker holds a copy of; they are closed first, or the copies
    would keep every lane's connection (and arena file) open after the
    front-end is gone.
    """
    for end in inherited:
        end.close()
    reader = MessageReader()
    try:
        state = WorkerState(snapshot_path, options)
    except Exception as error:
        try:
            name, args = reader.read(conn)
            owed = len(args[0]) if name == serve_requests.__name__ else 1
            send_all(conn, deque(pack_message((False, error)) * owed))
        except (EOFError, ConnectionError):
            pass  # the front-end is gone
        conn.close()
        return
    arena = ArenaMap(arena_fd)
    try:
        while True:
            name, args = reader.read(conn)
            if name == serve_requests.__name__:
                args = (arena.views(args[0]),)
            started = time.perf_counter()
            due: deque[memoryview] = deque()
            for ok, value, due_s in answers(state, _CALLS[name], args):
                remaining_s = started + due_s - time.perf_counter()
                if remaining_s > 0:
                    send_all(conn, due)
                    time.sleep(remaining_s)
                due.extend(pack_message((ok, value)))
            send_all(conn, due)
            if name == shutdown_worker.__name__:
                return
    except (EOFError, ConnectionError):
        return  # the front-end is gone
    finally:
        state.close()
        conn.close()
