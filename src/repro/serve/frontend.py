"""Asyncio serving front-end: admission control over per-shard workers.

The front-end owns one *lane* per shard: a worker (run on the
front-end's own event-loop thread, or a persistent process on a stream
socket the loop reads and writes itself, per :attr:`ServeConfig.mode`)
hosting the snapshot-backed serving path of :mod:`repro.serve.worker`, a
bounded admission queue, and a dispatcher.  Requests are routed to lanes with
the cluster's :class:`~repro.cluster.sharding.ClassShardRouter` — the
same class-to-shard hash the virtual-time cluster uses to place
clients — keyed on each request's *class hint* (the session's hot
class, which is what the cluster's region assignment keys on too).

**Dispatch.**  A lane's worker serves one call at a time.  A request
that finds the worker free is handed to it at once, as a call of one,
inside :meth:`ServeFrontend.submit`.  One that finds it busy waits in
the lane's queue; when the call in service has answered its last
request, the lane hands *every* waiting request to the worker, in FIFO
order, as one call (:func:`~repro.serve.worker.serve_requests`: one
cache walk over all their rows, then one reply per request, each
resolving its own request when its emulated service is due).
There is no wait timer and no batch cap: a call holds what queued while
the previous one was served, at most ``queue_depth`` requests.

Admission semantics, per attempt:

* **shed** — the lane's queue already holds ``queue_depth`` waiting
  requests (requests handed to the worker do not count); the request is
  rejected immediately with a retry-after hint (backpressure, never
  silent loss).
* **timeout** — the per-request deadline expired, either while queued
  (the request leaves the queue and is never sent) or during service.
  A service-side timeout resolves the *request* but not the *worker*:
  the worker still serves it with the rest of its call, and the reply
  is counted as ``late_responses``.
* **success** — the worker's reply arrived inside the deadline.

``ServeResult.wait_ms`` of a served request is the time until its own
service started: its wait for the worker, plus the services of the
requests ahead of it in its call.

**Deadlines.**  A lane keeps one expiry timer, not one per request.  The
loop-time deadlines of its unresolved requests wait in one FIFO (the
resolved ones at its front are dropped at every admission), and one
``loop.call_at`` timer is armed at the earliest of them — re-armed
earlier only when a shorter per-attempt ``deadline_ms`` arrives.  When
it fires it expires every request then due and arms itself at the next
deadline.  A request served before its deadline costs the timer nothing.

**What a request costs, what a call costs.**  Per request the front-end
does its bookkeeping only: admission, a deadline entry, the ledger and
one :class:`ServeResult` tuple.  The rest is paid once per call: one
cache walk, one owned copy of the walk's per-frame arrays (each reply
holds views of it) and one hit count over all the call's frames.

Every admitted request resolves with exactly one of the three —
:func:`repro.contracts.check_admission_invariants` asserts the
conservation law, per lane and in total, at every admission and
terminal event when contracts are armed (``REPRO_CONTRACTS=1``).

:meth:`ServeFrontend.submit_with_retry` adds the client half of the
protocol: bounded retries of shed requests with exponential backoff.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import socket
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from repro import contracts
from repro.cluster.sharding import ClassShardRouter
from repro.serve.worker import (
    MessageReader,
    RequestArena,
    Slot,
    WorkerOptions,
    WorkerReply,
    WorkerState,
    answers,
    check_tensor,
    pack_message,
    send_some,
    serve_requests,
    shutdown_worker,
    worker_info,
    worker_main,
)
from repro.store import MappedTableStore

#: Terminal outcomes of one admission attempt (the contract's universe).
OUTCOME_SUCCESS = "success"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_SHED = "shed"

SERVE_MODES = ("thread", "process")

#: Backpressure hint (ms) returned with a shed response.
RETRY_AFTER_MS = 5.0


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one serving front-end.

    Attributes:
        snapshot_path: snapshot directory every worker warm-starts from.
        num_workers: shard (= lane = worker) count.
        mode: ``"process"`` for one persistent OS process per shard
            (real parallelism; a call's tensors are copied into the
            lane's shared-memory arena, only their offsets cross the
            lane's socket, and the replies are read back by the event
            loop — two process wake-ups, no helper thread) or
            ``"thread"`` for every shard's worker on the front-end's own
            event-loop thread (no hand-off at all: a call runs where it
            is dispatched, and emulated service floors are loop timers).
        queue_depth: per-lane admission bound — waiting requests beyond
            it are shed with a retry-after hint.
        deadline_ms: per-request deadline covering queueing + service.
        max_retries: client-side retries of *shed* attempts in
            :meth:`ServeFrontend.submit_with_retry`.
        backoff_base_ms: first retry backoff; doubles per attempt.
        router_salt: seed of the class-to-shard permutation.
        worker: knobs forwarded to every shard worker.
    """

    snapshot_path: str
    num_workers: int = 2
    mode: str = "thread"
    queue_depth: int = 32
    deadline_ms: float = 250.0
    max_retries: int = 3
    backoff_base_ms: float = 4.0
    router_salt: int = 0
    worker: WorkerOptions = WorkerOptions()

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.mode not in SERVE_MODES:
            raise ValueError(f"mode must be one of {SERVE_MODES}, got {self.mode!r}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        _check_deadline(self.deadline_ms)
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (math.isfinite(self.backoff_base_ms) and self.backoff_base_ms >= 0):
            raise ValueError(
                f"backoff_base_ms must be finite and >= 0, got {self.backoff_base_ms}"
            )
        options = self.worker
        for name in ("alpha", "theta"):
            if not math.isfinite(getattr(options, name)):
                raise ValueError(
                    f"worker {name} must be finite, got {getattr(options, name)}"
                )
        for name in ("service_floor_ms", "miss_ms"):
            value = getattr(options, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"worker {name} must be finite and >= 0, got {value}")


def _check_deadline(deadline_ms: float) -> None:
    """A deadline is a finite, positive number of milliseconds."""
    if not (math.isfinite(deadline_ms) and deadline_ms > 0):
        raise ValueError(f"deadline_ms must be finite and > 0, got {deadline_ms}")


class ServeResult(NamedTuple):
    """Resolution of one request as seen by the client (immutable).

    Attributes:
        outcome: ``"success"`` / ``"timeout"`` / ``"shed"``.
        shard: lane the request was routed to.
        attempts: admission attempts consumed (> 1 after shed retries).
        latency_ms: first admission attempt to final resolution.
        wait_ms: time from admission to the start of this request's own
            service — queue wait plus the services ahead of it in its
            worker call (NaN unless dispatched).
        service_ms: worker wall-clock service time of this request
            (NaN unless success).
        probe_ms: this request's share of its call's probe math (NaN
            unless success).
        frames: frames in the request chunk.
        hits: frames served from the cache (success only, else 0).
        retry_after_ms: backpressure hint (> 0 only when shed).
        worker_pid: serving worker's OS pid (success only, else 0).

    A success's ``hits`` come from its :class:`WorkerReply`, whose arrays
    are views of its call's own copy of the walk's results, never of a
    workspace; the worker counts every request's hits once per call.
    """

    outcome: str
    shard: int
    attempts: int = 1
    latency_ms: float = 0.0
    wait_ms: float = float("nan")
    service_ms: float = float("nan")
    probe_ms: float = float("nan")
    frames: int = 0
    hits: int = 0
    retry_after_ms: float = 0.0
    worker_pid: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome == OUTCOME_SUCCESS


class WorkerLost(RuntimeError):
    """A shard's worker process is gone; the lane serves nothing more."""

    def __init__(self, shard: int, pid: int | None) -> None:
        super().__init__(f"worker process {pid} of shard {shard} is gone")
        self.shard = shard
        self.pid = pid


#: Where a lane delivers one worker answer: ``sink(ok, value)``.
Sink = Callable[[bool, Any], None]


def _settle(future: asyncio.Future[Any], ok: bool, value: Any) -> None:
    """Resolve ``future`` with one worker answer, unless it is already done."""
    if future.done():
        return
    if ok:
        future.set_result(value)
    else:
        future.set_exception(value)


class _Request:
    """One admitted request: its chunk, when it was dispatched, and the
    future its caller awaits — resolved by the worker's answer, or with
    ``None`` by its deadline, whichever comes first."""

    __slots__ = ("vectors", "dispatched", "waiter", "late")

    def __init__(self, vectors: np.ndarray, late: Callable[[], None]) -> None:
        self.vectors = vectors
        self.dispatched: float | None = None
        self.waiter: asyncio.Future[WorkerReply | None] = (
            asyncio.get_running_loop().create_future()
        )
        self.late = late

    def answer(self, ok: bool, value: Any) -> None:
        """The worker's answer; one its deadline beat is counted late."""
        if self.waiter.done():
            if not self.waiter.cancelled():
                self.late()
            return
        _settle(self.waiter, ok, value)

    def expire(self) -> None:
        """The deadline passed."""
        if not self.waiter.done():
            self.waiter.set_result(None)


class _Lane:
    """One shard's worker, admission queue, dispatcher and expiry timer.

    :meth:`send` is the only way anything reaches the worker; requests
    reach it through :meth:`dispatch`, one call at a time.  Deadlines
    wait in :attr:`deadlines`, ``(loop time, request)`` in admission
    order, under one ``loop.call_at`` timer armed at the earliest.
    """

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.loop = asyncio.get_running_loop()
        self.waiting: deque[_Request] = deque()
        self.busy = False
        self.in_flight = 0
        self.served = 0
        self.deadlines: deque[tuple[float, _Request]] = deque()
        self._expiry: asyncio.TimerHandle | None = None

    @property
    def queued(self) -> int:
        return len(self.waiting)

    def admit(self, request: _Request, deadline_s: float) -> None:
        """Dispatch ``request`` to the free worker or queue it for the
        next call, and expire it ``deadline_s`` on unless it is answered
        by then."""
        if self.busy:
            self.waiting.append(request)
        else:
            self.dispatch([request])
        deadlines = self.deadlines
        while deadlines and deadlines[0][1].waiter.done():
            deadlines.popleft()
        if request.waiter.done():
            return
        due = self.loop.time() + deadline_s
        deadlines.append((due, request))
        expiry = self._expiry
        if expiry is None or due < expiry.when():
            if expiry is not None:
                expiry.cancel()
            self._expiry = self.loop.call_at(due, self._on_expiry, due)

    def _on_expiry(self, due: float) -> None:
        """Expire every request due by now; time the next deadline."""
        self._expiry = None
        # The loop may run a timer a clock tick before ``due``.
        now = max(self.loop.time(), due)
        pending: deque[tuple[float, _Request]] = deque()
        for deadline, request in self.deadlines:
            if request.waiter.done():
                continue
            if deadline <= now:
                request.expire()
            else:
                pending.append((deadline, request))
        self.deadlines = pending
        if pending:
            due = min(deadline for deadline, _ in pending)
            self._expiry = self.loop.call_at(due, self._on_expiry, due)

    def send(self, fn: Callable[..., Any], args: tuple[Any, ...], sinks: list[Sink]) -> None:
        """Run ``fn(state, *args)`` on the worker; its answers go to
        ``sinks``, in order, on the loop, each when it is due (see
        :func:`~repro.serve.worker.answers`).  Never raises."""
        raise NotImplementedError

    def call(self, fn: Callable[..., Any], *args: Any) -> asyncio.Future[Any]:
        """Run a one-answer ``fn(state, *args)`` on the worker."""
        future = self.loop.create_future()
        self.send(fn, args, [partial(_settle, future)])
        return future

    def dispatch(self, batch: list[_Request]) -> None:
        """Hand ``batch`` to the free worker as one call."""
        self.busy = True
        now = time.perf_counter()
        for request in batch:
            request.dispatched = now
        self.in_flight += len(batch)
        last = batch[-1]

        def last_answer(ok: bool, value: Any) -> None:
            self.served += len(batch)
            last.answer(ok, value)
            # After the callers the call's answers woke: what they submit
            # next joins the next call.
            self.loop.call_soon(self._call_done)

        sinks: list[Sink] = [request.answer for request in batch[:-1]]
        sinks.append(last_answer)
        self.send(serve_requests, ([request.vectors for request in batch],), sinks)

    def _call_done(self) -> None:
        """The worker answered its call's last request: hand it everything
        that queued meanwhile."""
        self.busy = False
        if self.waiting:
            batch = list(self.waiting)
            self.waiting.clear()
            self.dispatch(batch)

    def stop(self) -> None:
        """Join the worker; call after its ``shutdown_worker`` resolved,
        which answered every request the lane still held."""
        if self._expiry is not None:
            self._expiry.cancel()
            self._expiry = None


class _LoopLane(_Lane):
    """A worker on the front-end's own event-loop thread.

    The lane holds the worker's :class:`~repro.serve.worker.WorkerState`
    and runs each call's answers where it is sent.  An answer is handed
    over when it is due — at once if it already is, else from a
    ``loop.call_at`` timer — in call order and never before an earlier
    call's last answer, as a worker serving one call after another would.
    """

    def __init__(self, shard: int, config: ServeConfig) -> None:
        super().__init__(shard)
        self.state = WorkerState(str(config.snapshot_path), config.worker)
        #: Answers not yet due: ``(loop time due, sink, ok, value)``.
        self._due: deque[tuple[float, Sink, bool, Any]] = deque()
        self._timer: asyncio.TimerHandle | None = None

    def send(self, fn: Callable[..., Any], args: tuple[Any, ...], sinks: list[Sink]) -> None:
        started = self.loop.time()
        for sink, (ok, value, due_s) in zip(sinks, answers(self.state, fn, args)):
            due = started + due_s
            if self._due:
                due = max(due, self._due[-1][0])
            self._due.append((due, sink, ok, value))
        self._release(self.loop.time())

    def _release(self, now: float) -> None:
        """Hand over every answer due by ``now``; time the next one."""
        while self._due and self._due[0][0] <= now:
            _, sink, ok, value = self._due.popleft()
            sink(ok, value)
        if self._due and self._timer is None:
            due = self._due[0][0]
            self._timer = self.loop.call_at(due, self._on_timer, due)

    def _on_timer(self, due: float) -> None:
        # The loop may run a timer a clock tick before ``due``.
        self._timer = None
        self._release(max(self.loop.time(), due))


class _ProcessLane(_Lane):
    """A persistent worker process on the far end of a stream socket.

    A call is written to the socket and its answers' sinks queued; the
    worker writes each answer as one message, in order (all those due
    together in one write), so a reader on the loop hands each message
    to the oldest pending sink, reading until the socket runs dry — two
    process wake-ups per request and no helper thread.  A call's tensors
    do not go through the socket: they are copied into the lane's
    :class:`~repro.serve.worker.RequestArena`, which the worker maps,
    and held there until the call's last answer.  The front-end's end
    is non-blocking: what the socket buffer does not take at once goes
    out when it is writable.
    """

    def __init__(
        self,
        shard: int,
        config: ServeConfig,
        inherited: list[socket.socket | RequestArena],
    ) -> None:
        super().__init__(shard)
        self.sock, worker_end = socket.socketpair()
        self.arena = RequestArena()
        # Forked, whatever the default start method: the worker inherits
        # the arena's descriptor by number, and the other lanes' ends it
        # must close (see worker_main).
        self.process = multiprocessing.get_context("fork").Process(
            target=worker_main,
            args=(
                worker_end,
                self.arena.fd,
                str(config.snapshot_path),
                config.worker,
                [*inherited, self.sock],
            ),
            name=f"repro-serve-{shard}",
            daemon=True,
        )
        self.process.start()
        self.pid = self.process.pid
        worker_end.close()
        self.sock.setblocking(False)
        self.lost = False
        self._reader = MessageReader()
        self._pending: deque[Sink] = deque()
        self._outbox: deque[memoryview] = deque()
        self.loop.add_reader(self.sock, self._on_readable)

    def send(self, fn: Callable[..., Any], args: tuple[Any, ...], sinks: list[Sink]) -> None:
        if self.lost:
            for sink in sinks:
                sink(False, WorkerLost(self.shard, self.pid))
            return
        if fn is serve_requests:
            try:
                args = (self._put(args[0]),)
            except (ValueError, contracts.ContractViolation) as error:
                for sink in sinks:
                    sink(False, error)
                return
            if sinks:
                sinks = [*sinks[:-1], partial(self._last_answer, sinks[-1])]
        self._pending.extend(sinks)
        # A non-empty outbox already has its writer registered.
        idle = not self._outbox
        self._outbox.extend(pack_message((fn.__name__, args)))
        if idle and not self._flush():
            self.loop.add_writer(self.sock, self._on_writable)

    def _flush(self) -> bool:
        """Write what the socket takes now; true once the outbox is empty."""
        try:
            while self._outbox:
                send_some(self.sock, self._outbox)
        except BlockingIOError:
            return False
        except OSError:
            self._lose()
        return True

    def _on_writable(self) -> None:
        if self._flush():
            self.loop.remove_writer(self.sock)

    def _put(self, chunks: list[np.ndarray]) -> list[Slot]:
        """Copy a call's tensors into the arena, under its contract: an
        idle lane holds no reservation, and the new one fits beside the
        live ones."""
        arena = self.arena
        if contracts.ENABLED:
            contracts.check_request_arena(arena.live, arena.size, idle=not self._pending)
        slots = arena.put(chunks)
        if contracts.ENABLED:
            contracts.check_request_arena(arena.live, arena.size, idle=False)
        return slots

    def _last_answer(self, sink: Sink, ok: bool, value: Any) -> None:
        """A serve call's last answer: its arena bytes are free."""
        self.arena.release()
        sink(ok, value)

    def _on_readable(self) -> None:
        """Hand every complete message to its sink, until the socket runs
        dry."""
        while not self.lost:
            try:
                ok, value = self._reader.read(self.sock)
            except BlockingIOError:
                return
            except (EOFError, OSError):
                self._lose()
                return
            self._pending.popleft()(ok, value)

    def _lose(self) -> None:
        """The worker is gone: fail what is pending, refuse what comes."""
        self.lost = True
        self.loop.remove_reader(self.sock)
        self.loop.remove_writer(self.sock)
        self._outbox.clear()
        while self._pending:
            self._pending.popleft()(False, WorkerLost(self.shard, self.pid))

    def stop(self) -> None:
        super().stop()
        # Closing the socket ends a worker that is still reading it.
        self._lose()
        self.sock.close()
        self.arena.close()
        self.process.join()
        self.process.close()


class ServeFrontend:
    """Admission-controlled front door over per-shard snapshot workers.

    Usage::

        async with ServeFrontend(config) as frontend:
            result = await frontend.submit_with_retry(class_hint, vectors)

    ``async with`` starts the workers (warm — every worker builds its
    serving cache from the snapshot before the first request) and shuts
    them down on exit, closing each worker's workspace and mmap and
    reaping every worker process.  A worker process that dies fails its
    lane's requests with :class:`WorkerLost`; the other lanes serve on.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        with MappedTableStore(config.snapshot_path) as store:
            self.num_classes = store.num_classes
            self.num_layers = store.num_layers
            self.dim = store.dim
        self.router = ClassShardRouter(
            self.num_classes,
            num_shards=config.num_workers,
            salt=config.router_salt,
        )
        self._lanes: list[_Lane] = []
        self._started = False
        self.worker_infos: list[dict[str, Any]] = []
        # Admission ledger (the contract's inputs).
        self.submitted = 0
        self.outcomes: dict[str, int] = {
            OUTCOME_SUCCESS: 0,
            OUTCOME_TIMEOUT: 0,
            OUTCOME_SHED: 0,
        }
        self.retries = 0
        self.late_responses = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spin up one warm worker per shard (idempotent)."""
        if self._started:
            return
        # A forked worker inherits the front-end ends opened before it.
        ends: list[socket.socket | RequestArena] = []
        try:
            for shard in range(self.config.num_workers):
                if self.config.mode == "process":
                    lane = _ProcessLane(shard, self.config, ends)
                    ends += (lane.sock, lane.arena)
                    self._lanes.append(lane)
                else:
                    self._lanes.append(_LoopLane(shard, self.config))
            self.worker_infos = list(
                await asyncio.gather(*(lane.call(worker_info) for lane in self._lanes))
            )
        except BaseException:
            await self.close()
            raise
        self._started = True

    async def close(self) -> None:
        """Shut the lanes down: worker teardown call, then worker join."""
        if not self._lanes:
            return
        await asyncio.gather(
            *(lane.call(shutdown_worker) for lane in self._lanes),
            return_exceptions=True,
        )
        for lane in self._lanes:
            lane.stop()
        self._lanes = []
        self._started = False

    async def __aenter__(self) -> "ServeFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _check(self, lane: _Lane) -> None:
        """Arm the admission contract at one bookkeeping event."""
        if contracts.ENABLED:
            contracts.check_admission_invariants(
                queue_depth=lane.queued,
                queue_bound=self.config.queue_depth,
                submitted=self.submitted,
                in_flight=sum(x.in_flight for x in self._lanes),
                outcomes=dict(self.outcomes),
                total_queued=self._total_queued(),
                lanes=[(x.queued, x.in_flight, x.busy) for x in self._lanes],
            )

    def _total_queued(self) -> int:
        return sum(lane.queued for lane in self._lanes)

    def _resolve(self, lane: _Lane, outcome: str) -> None:
        self.outcomes[outcome] += 1
        self._check(lane)

    def shard_of(self, class_hint: int) -> int:
        """Lane a request with this class hint is routed to."""
        return int(self.router.shard_of(int(class_hint)))

    async def submit(
        self,
        class_hint: int,
        vectors: np.ndarray,
        deadline_ms: float | None = None,
    ) -> ServeResult:
        """One admission attempt: route, queue, serve — or shed/timeout.

        ``vectors`` is the request chunk, shape ``(B, L+1, d)``, any
        numeric dtype (cast to the snapshot dtype; anything else raises
        ``ValueError`` here).  ``deadline_ms`` overrides the configured
        deadline for this attempt.
        """
        if not self._started:
            raise RuntimeError("frontend not started; use `async with` or start()")
        check_tensor(vectors)
        if deadline_ms is None:
            deadline_ms = self.config.deadline_ms
        else:
            _check_deadline(deadline_ms)
        lane = self._lanes[self.shard_of(class_hint)]
        started = time.perf_counter()
        frames = int(vectors.shape[0])

        # Conservation note: `submitted` counts queued + in-service +
        # resolved; the books stay balanced because every path below
        # records exactly one terminal outcome (see check_admission_
        # invariants).  Admission and dispatch happen before the first
        # await, so no other request sees them half done.
        self.submitted += 1
        if lane.queued >= self.config.queue_depth:
            self._resolve(lane, OUTCOME_SHED)
            return ServeResult(
                outcome=OUTCOME_SHED,
                shard=lane.shard,
                latency_ms=1e3 * (time.perf_counter() - started),
                frames=frames,
                retry_after_ms=RETRY_AFTER_MS,
            )
        request = _Request(vectors, self._count_late)
        lane.admit(request, deadline_ms / 1e3)
        self._check(lane)

        try:
            reply = await request.waiter
        except BaseException:
            # A worker exception is a bug, not a load condition (and a
            # cancelled caller is not an outcome): balance the ledger —
            # this attempt never happened — and re-raise loud.
            if request.dispatched is None:
                lane.waiting.remove(request)
            else:
                lane.in_flight -= 1
            self.submitted -= 1
            self._check(lane)
            raise
        if reply is None:
            if request.dispatched is None:
                lane.waiting.remove(request)  # never sent
            else:
                lane.in_flight -= 1  # its answer will count as late
            self._resolve(lane, OUTCOME_TIMEOUT)
            return ServeResult(
                outcome=OUTCOME_TIMEOUT,
                shard=lane.shard,
                latency_ms=1e3 * (time.perf_counter() - started),
                wait_ms=(
                    float("nan")
                    if request.dispatched is None
                    else 1e3 * (request.dispatched - started)
                ),
                frames=frames,
            )
        assert request.dispatched is not None
        lane.in_flight -= 1
        self._resolve(lane, OUTCOME_SUCCESS)
        return ServeResult(
            outcome=OUTCOME_SUCCESS,
            shard=lane.shard,
            latency_ms=1e3 * (time.perf_counter() - started),
            wait_ms=1e3 * (request.dispatched - started) + reply.behind_ms,
            service_ms=reply.service_ms,
            probe_ms=reply.probe_ms,
            frames=frames,
            hits=reply.hits,
            worker_pid=reply.worker_pid,
        )

    def _count_late(self) -> None:
        """The worker answered a request its deadline already resolved."""
        self.late_responses += 1

    async def submit_with_retry(
        self,
        class_hint: int,
        vectors: np.ndarray,
        deadline_ms: float | None = None,
    ) -> ServeResult:
        """Client protocol: retry shed attempts with exponential backoff.

        Up to ``max_retries`` re-submissions after an initial shed, each
        preceded by a ``backoff_base_ms * 2**attempt`` sleep.  Timeouts
        are *not* retried — the deadline is the client's own budget.
        Returns the final attempt's result with ``attempts`` and the
        all-attempt ``latency_ms`` filled in.
        """
        started = time.perf_counter()
        attempts = 0
        while True:
            result = await self.submit(class_hint, vectors, deadline_ms)
            attempts += 1
            if result.outcome != OUTCOME_SHED or attempts > self.config.max_retries:
                return result._replace(
                    attempts=attempts,
                    latency_ms=1e3 * (time.perf_counter() - started),
                )
            self.retries += 1
            backoff_ms = self.config.backoff_base_ms * (2 ** (attempts - 1))
            await asyncio.sleep(max(backoff_ms, result.retry_after_ms) / 1e3)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Ledger snapshot: totals, per-outcome counts, lane depths."""
        return {
            "submitted": self.submitted,
            "success": self.outcomes[OUTCOME_SUCCESS],
            "timeout": self.outcomes[OUTCOME_TIMEOUT],
            "shed": self.outcomes[OUTCOME_SHED],
            "retries": self.retries,
            "late_responses": self.late_responses,
            "queued": self._total_queued(),
            "in_flight": sum(lane.in_flight for lane in self._lanes),
            "lanes": [
                {
                    "shard": lane.shard,
                    "queued": lane.queued,
                    "served": lane.served,
                    "worker": (
                        self.worker_infos[lane.shard]
                        if lane.shard < len(self.worker_infos)
                        else {}
                    ),
                }
                for lane in self._lanes
            ],
        }
