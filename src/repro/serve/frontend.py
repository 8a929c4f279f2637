"""Asyncio serving front-end: admission control over per-shard workers.

The front-end owns one *lane* per shard: a worker (a thread behind a
single-worker executor, or a persistent process on a stream socket the
loop reads and writes itself, per :attr:`ServeConfig.mode`) hosting the
snapshot-backed serving path of :mod:`repro.serve.worker`, a bounded
admission queue, and a service slot.  Requests are routed to lanes with
the cluster's :class:`~repro.cluster.sharding.ClassShardRouter` — the
same class-to-shard hash the virtual-time cluster uses to place
clients — keyed on each request's *class hint* (the session's hot
class, which is what the cluster's region assignment keys on too).

Admission semantics, per attempt:

* **shed** — the lane's queue already holds ``queue_depth`` waiting
  requests; the request is rejected immediately with a retry-after
  hint (backpressure, never silent loss).
* **timeout** — the per-request deadline expired, either while queued
  or during service.  A service-side timeout resolves the *request*
  but not the *worker*: the slot stays occupied until the worker
  finishes, and the completion is counted as ``late_responses``.
* **success** — the worker's reply arrived inside the deadline.

Every admitted request resolves with exactly one of the three —
:func:`repro.contracts.check_admission_invariants` asserts the
conservation law at every admission and terminal event when contracts
are armed (``REPRO_CONTRACTS=1``).

:meth:`ServeFrontend.submit_with_retry` adds the client half of the
protocol: bounded retries of shed requests with exponential backoff.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro import contracts
from repro.cluster.sharding import ClassShardRouter
from repro.serve.worker import (
    MessageReader,
    WorkerOptions,
    WorkerReply,
    initialize_worker,
    pack_message,
    probe_chunk,
    send_some,
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
            (real parallelism; a request is pickled onto the lane's
            socket and the reply read back by the event loop — two
            process wake-ups, no helper thread) or ``"thread"`` for one
            thread per shard (lower dispatch overhead; the mmap is
            trivially shared).
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
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass(frozen=True)
class ServeResult:
    """Resolution of one request as seen by the client.

    Attributes:
        outcome: ``"success"`` / ``"timeout"`` / ``"shed"``.
        shard: lane the request was routed to.
        attempts: admission attempts consumed (> 1 after shed retries).
        latency_ms: first admission attempt to final resolution.
        wait_ms: queue wait of the served attempt (NaN unless served).
        service_ms: worker wall-clock service time (NaN unless success).
        probe_ms: real probe-math portion of service (NaN unless success).
        frames: frames in the request chunk.
        hits: frames served from the cache (success only, else 0).
        retry_after_ms: backpressure hint (> 0 only when shed).
        worker_pid: serving worker's OS pid (success only, else 0).
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


class _Lane:
    """One shard's worker, service slot and admission bookkeeping.

    :meth:`call` is the only way anything reaches the worker.
    """

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.slot = asyncio.Semaphore(1)
        self.queued = 0
        self.in_flight = 0
        self.served = 0

    def call(self, fn: Callable[..., Any], *args: Any) -> asyncio.Future[Any]:
        """Run ``fn(*args)`` on the worker; never raises, the future does."""
        raise NotImplementedError

    def stop(self) -> None:
        """Join the worker; call after its ``shutdown_worker`` resolved."""
        raise NotImplementedError


class _ThreadLane(_Lane):
    """A worker thread in this process, behind a single-worker executor."""

    def __init__(self, shard: int, config: ServeConfig) -> None:
        super().__init__(shard)
        self.executor = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"repro-serve-{shard}",
            initializer=initialize_worker,
            initargs=(str(config.snapshot_path), config.worker),
        )

    def call(self, fn: Callable[..., Any], *args: Any) -> asyncio.Future[Any]:
        return asyncio.get_running_loop().run_in_executor(self.executor, fn, *args)

    def stop(self) -> None:
        self.executor.shutdown(wait=True)


class _ProcessLane(_Lane):
    """A persistent worker process on the far end of a stream socket.

    A call is written to the socket and its future queued; the worker
    answers in order, so a reader on the loop resolves the oldest
    pending future with each reply — two process wake-ups per call and
    no helper thread.  The front-end's end is non-blocking: what the
    socket buffer does not take at once goes out when it is writable.
    """

    def __init__(
        self, shard: int, config: ServeConfig, inherited: list[socket.socket]
    ) -> None:
        super().__init__(shard)
        self.sock, worker_end = socket.socketpair()
        self.process = multiprocessing.Process(
            target=worker_main,
            args=(
                worker_end,
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
        self._pending: deque[asyncio.Future[Any]] = deque()
        self._outbox: deque[memoryview] = deque()
        self._loop = asyncio.get_running_loop()
        self._loop.add_reader(self.sock, self._on_readable)

    def call(self, fn: Callable[..., Any], *args: Any) -> asyncio.Future[Any]:
        future = self._loop.create_future()
        if self.lost:
            future.set_exception(WorkerLost(self.shard, self.pid))
            return future
        self._pending.append(future)
        # A non-empty outbox already has its writer registered.
        idle = not self._outbox
        self._outbox.extend(pack_message((fn.__name__, args)))
        if idle and not self._flush():
            self._loop.add_writer(self.sock, self._on_writable)
        return future

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
            self._loop.remove_writer(self.sock)

    def _on_readable(self) -> None:
        try:
            ok, value = self._reader.read(self.sock)
        except BlockingIOError:
            return
        except (EOFError, OSError):
            self._lose()
            return
        future = self._pending.popleft()
        if future.done():  # cancelled by its caller
            return
        if ok:
            future.set_result(value)
        else:
            future.set_exception(value)

    def _lose(self) -> None:
        """The worker is gone: fail what is pending, refuse what comes."""
        self.lost = True
        self._loop.remove_reader(self.sock)
        self._loop.remove_writer(self.sock)
        self._outbox.clear()
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(WorkerLost(self.shard, self.pid))

    def stop(self) -> None:
        # Closing the socket ends a worker that is still reading it.
        self._lose()
        self.sock.close()
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
        ends: list[socket.socket] = []
        try:
            for shard in range(self.config.num_workers):
                if self.config.mode == "process":
                    lane = _ProcessLane(shard, self.config, ends)
                    ends.append(lane.sock)
                    self._lanes.append(lane)
                else:
                    self._lanes.append(_ThreadLane(shard, self.config))
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

        ``vectors`` is the request chunk, shape ``(B, L+1, d)``, dtype
        anything castable to the snapshot dtype.
        """
        if not self._started:
            raise RuntimeError("frontend not started; use `async with` or start()")
        deadline = self.config.deadline_ms if deadline_ms is None else deadline_ms
        lane = self._lanes[self.shard_of(class_hint)]
        started = time.perf_counter()
        frames = int(vectors.shape[0])

        # Conservation note: `submitted` counts queued + in-service +
        # resolved; the books stay balanced because every path below
        # records exactly one terminal outcome (see check_admission_
        # invariants).  The submitted/queued increments must be atomic
        # with respect to awaits — both happen before the first one.
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
        lane.queued += 1
        self._check(lane)

        try:
            await asyncio.wait_for(lane.slot.acquire(), timeout=deadline / 1e3)
        except TimeoutError:
            lane.queued -= 1
            self._resolve(lane, OUTCOME_TIMEOUT)
            return ServeResult(
                outcome=OUTCOME_TIMEOUT,
                shard=lane.shard,
                latency_ms=1e3 * (time.perf_counter() - started),
                frames=frames,
            )
        wait_ms = 1e3 * (time.perf_counter() - started)
        lane.queued -= 1
        lane.in_flight += 1
        self._check(lane)

        future: asyncio.Future[WorkerReply] = lane.call(probe_chunk, vectors)
        resolved_late = [False]

        def _on_worker_done(done: asyncio.Future[WorkerReply]) -> None:
            # Free the service slot only when the worker truly finished:
            # a deadline that fires mid-service resolves the request,
            # not the worker.
            lane.slot.release()
            lane.served += 1
            if resolved_late[0]:
                self.late_responses += 1
                done.exception()  # retrieve, the reply is discarded

        future.add_done_callback(_on_worker_done)
        remaining_s = max(deadline / 1e3 - (time.perf_counter() - started), 1e-4)
        try:
            reply = await asyncio.wait_for(asyncio.shield(future), remaining_s)
        except TimeoutError:
            resolved_late[0] = True
            lane.in_flight -= 1
            self._resolve(lane, OUTCOME_TIMEOUT)
            return ServeResult(
                outcome=OUTCOME_TIMEOUT,
                shard=lane.shard,
                latency_ms=1e3 * (time.perf_counter() - started),
                wait_ms=wait_ms,
                frames=frames,
            )
        except BaseException:
            # A worker exception is a bug, not a load condition: balance
            # the ledger (this attempt never happened) and re-raise loud.
            resolved_late[0] = True
            lane.in_flight -= 1
            self.submitted -= 1
            self._check(lane)
            raise
        lane.in_flight -= 1
        self._resolve(lane, OUTCOME_SUCCESS)
        return ServeResult(
            outcome=OUTCOME_SUCCESS,
            shard=lane.shard,
            latency_ms=1e3 * (time.perf_counter() - started),
            wait_ms=wait_ms,
            service_ms=reply.service_ms,
            probe_ms=reply.probe_ms,
            frames=frames,
            hits=reply.hits,
            worker_pid=reply.worker_pid,
        )

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
                return replace(
                    result,
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
