"""Tests for the real-concurrency serving front-end (:mod:`repro.serve`).

Covers the pure cache-walk kernel the workers run, worker lifecycle
(initialize / probe / shutdown over a snapshot path), the asyncio
admission path (success, shed, timeout, retry, conservation ledger,
armed contracts), the load generator and its analytic cross-check, and
the process-mode transport (replies equal the in-process probe, FIFO
reply matching, relayed worker exceptions, a loop that never blocks on a
large write, a killed worker), its shared-memory request arena (every
dtype, growth and remapping, pointer restart, no leaked descriptor) and
its batched reply writes, and the ``repro serve`` / ``repro loadgen``
CLI round-trip in both modes, with single-threaded BLAS in the workers.

Everything here runs wall-clock (this is the one package where that is
the point); floors and durations are kept to tens of milliseconds so
the suite stays fast on one core.
"""

from __future__ import annotations

import asyncio
import gc
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import contracts
from repro.blas import THREAD_POOL_VARS
from repro.cli import main as cli_main
from repro.contracts import ContractViolation
from repro.core.cache import LookupWorkspace
from repro.core.probe import walk_cache_batch
from repro.core.server import GlobalCacheTable
from repro.serve import (
    LoadgenConfig,
    ServeConfig,
    ServeFrontend,
    WorkerLost,
    WorkerOptions,
    WorkerState,
    analytic_wait_ms,
    run_loadgen,
    serve_requests,
    shutdown_worker,
    synthesize_requests,
    worker_info,
)
from repro.serve.frontend import RETRY_AFTER_MS
from repro.store import (
    MappedTableStore,
    SnapshotFormatError,
    SnapshotIntegrityError,
    write_snapshot,
)

NUM_CLASSES, NUM_LAYERS, DIM = 24, 10, 8


def unit_rows(shape: tuple[int, ...], seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal(shape)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


@pytest.fixture
def snapshot(tmp_path) -> str:
    table = GlobalCacheTable(NUM_CLASSES, NUM_LAYERS, DIM)
    table.entries = unit_rows((NUM_CLASSES, NUM_LAYERS, DIM), seed=0)
    table.filled[:] = True
    table.class_freq = np.full(NUM_CLASSES, 4.0)
    write_snapshot(tmp_path / "snap", table, epoch=1)
    return str(tmp_path / "snap")


def serve_one(state: WorkerState, vectors: np.ndarray):
    """One request through the worker's batch entry point."""
    [(ok, value, _)] = serve_requests(state, [vectors])
    if not ok:
        raise value
    return value


def centroid_queries(snapshot: str, classes: list[int]) -> np.ndarray:
    """Exact stored centroids as queries: guaranteed first-layer hits."""
    with MappedTableStore(snapshot) as store:
        vectors = np.empty(
            (len(classes), store.num_layers, store.dim), dtype=store.dtype
        )
        for layer in range(store.num_layers):
            vectors[:, layer, :] = store.layer_view(layer)[classes]
    return vectors


# ----------------------------------------------------------------------
# Pure walk kernel (what the workers run)
# ----------------------------------------------------------------------


class TestWalkCacheBatch:
    def test_exact_centroids_hit_their_class(self, snapshot):
        classes = [0, 5, 11, 23]
        vectors = centroid_queries(snapshot, classes)
        with MappedTableStore(snapshot) as store:
            cache = store.serving_cache()
            with LookupWorkspace() as workspace:
                walk = walk_cache_batch(cache, vectors, workspace)
                assert walk.hit.all()
                assert np.array_equal(walk.predicted, classes)
                assert (walk.layers_probed >= 1).all()

    def test_impossible_theta_misses_everywhere(self, snapshot):
        vectors = centroid_queries(snapshot, [3, 7])
        with MappedTableStore(snapshot) as store:
            # An unreachable theta: no Eq. 2 score can ever early-exit.
            cache = store.serving_cache(theta=1e6)
            with LookupWorkspace() as workspace:
                walk = walk_cache_batch(cache, vectors, workspace)
                assert not walk.hit.any()
                assert (walk.hit_layer == -1).all()
                assert np.isnan(walk.hit_score).all()
                # Misses still carry the deepest layer's best guess.
                assert (walk.predicted >= 0).all()
                assert (walk.layers_probed == len(cache.active_layers)).all()

    def test_empty_batch(self, snapshot):
        with MappedTableStore(snapshot) as store:
            cache = store.serving_cache()
            with LookupWorkspace() as workspace:
                empty = np.empty((0, NUM_LAYERS, DIM))
                walk = walk_cache_batch(cache, empty, workspace)
                assert walk.predicted.shape == (0,)


# ----------------------------------------------------------------------
# Worker lifecycle
# ----------------------------------------------------------------------


class TestWorker:
    def test_probe_after_shutdown_raises(self, snapshot):
        state = WorkerState(snapshot, WorkerOptions())
        shutdown_worker(state)
        with pytest.raises(RuntimeError, match="shut down"):
            serve_one(state, np.zeros((1, NUM_LAYERS, DIM)))
        with pytest.raises(RuntimeError, match="shut down"):
            worker_info(state)

    def test_serve_cycle(self, snapshot):
        floor_ms = 1000.0
        state = WorkerState(snapshot, WorkerOptions(service_floor_ms=floor_ms))
        try:
            vectors = centroid_queries(snapshot, [1, 2, 3])
            started = time.perf_counter()
            [(ok, reply, due_s)] = serve_requests(state, [vectors])
            assert ok
            # Nothing sleeps: the reply is made at once, due one floor on.
            assert time.perf_counter() - started < due_s
            assert 1e3 * due_s == pytest.approx(reply.service_ms)
            assert np.array_equal(reply.predicted, [1, 2, 3])
            assert reply.hits == 3
            assert reply.worker_pid == os.getpid()
            # Replies are owned copies, not workspace views.
            assert reply.predicted.base is None
            assert reply.hit_layer.base is None
            # The emulated device floor dominates the service time.
            assert reply.service_ms >= floor_ms
            assert reply.probe_ms <= reply.service_ms
            info = worker_info(state)
            assert info["requests_served"] == 1
            assert info["epoch"] == 1
            assert info["view_backed_layers"] == info["active_layers"]
        finally:
            shutdown_worker(state)
        with pytest.raises(RuntimeError):
            serve_one(state, vectors)

    def test_shutdown_is_idempotent_and_drops_probe_buffers(self, snapshot):
        state = WorkerState(snapshot, WorkerOptions())
        serve_one(state, centroid_queries(snapshot, [3]))  # fill the pools
        assert state.workspace._pools
        shutdown_worker(state)
        shutdown_worker(state)
        assert state.workspace._pools == {}


# ----------------------------------------------------------------------
# Admission front-end
# ----------------------------------------------------------------------


def drive(coro):
    return asyncio.run(coro)


class TestFrontend:
    #: Worker mode the admission cases run under; the process-mode
    #: subclass below runs every one of them again.
    mode = "thread"

    def test_round_trip_and_routing(self, snapshot):
        async def scenario():
            config = ServeConfig(
                snapshot_path=snapshot, num_workers=2, mode=self.mode
            )
            async with ServeFrontend(config) as frontend:
                vectors = centroid_queries(snapshot, [4])
                result = await frontend.submit(4, vectors)
                assert result.ok
                assert result.shard == frontend.shard_of(4)
                assert result.hits == 1
                assert result.frames == 1
                with pytest.raises(AttributeError):
                    result.hits = 2  # a result is immutable
                stats = frontend.stats()
                assert stats["submitted"] == 1
                assert stats["success"] == 1
                assert stats["lanes"][result.shard]["served"] == 1
                assert stats["lanes"][result.shard]["worker"]["pid"] > 0
            return frontend.stats()

        stats = drive(scenario())
        assert stats["queued"] == 0 and stats["in_flight"] == 0

    def test_overload_sheds_and_conserves(self, snapshot):
        async def scenario():
            config = ServeConfig(
                snapshot_path=snapshot,
                num_workers=1,
                mode=self.mode,
                queue_depth=1,
                deadline_ms=2000.0,
                worker=WorkerOptions(service_floor_ms=30.0),
            )
            async with ServeFrontend(config) as frontend:
                vectors = centroid_queries(snapshot, [0])
                results = await asyncio.gather(
                    *(frontend.submit(0, vectors) for _ in range(6))
                )
                stats = frontend.stats()
            return results, stats

        results, stats = drive(scenario())
        outcomes = [r.outcome for r in results]
        assert outcomes.count("shed") >= 1
        shed = next(r for r in results if r.outcome == "shed")
        assert shed.retry_after_ms > 0
        # Every request got exactly one terminal outcome.
        assert stats["submitted"] == 6
        assert stats["success"] + stats["timeout"] + stats["shed"] == 6

    def test_deadline_timeout_and_late_response(self, snapshot):
        async def scenario():
            config = ServeConfig(
                snapshot_path=snapshot,
                num_workers=1,
                mode=self.mode,
                deadline_ms=10.0,
                worker=WorkerOptions(service_floor_ms=80.0),
            )
            async with ServeFrontend(config) as frontend:
                vectors = centroid_queries(snapshot, [0])
                result = await frontend.submit(0, vectors)
                assert result.outcome == "timeout"
                assert result.latency_ms < 80.0
            # close() joined the worker, so the late completion landed.
            return frontend.stats()

        stats = drive(scenario())
        assert stats["timeout"] == 1
        assert stats["late_responses"] == 1
        assert stats["submitted"] == 1

    def test_retry_turns_shed_into_success(self, snapshot):
        async def scenario():
            config = ServeConfig(
                snapshot_path=snapshot,
                num_workers=1,
                mode=self.mode,
                queue_depth=1,
                deadline_ms=2000.0,
                max_retries=8,
                backoff_base_ms=2.0,
                worker=WorkerOptions(service_floor_ms=30.0),
            )
            async with ServeFrontend(config) as frontend:
                vectors = centroid_queries(snapshot, [0])
                # Stagger the fillers so one holds the worker and the
                # other holds the single queue seat — a third
                # arrival must shed until the lane drains.
                in_service = asyncio.create_task(frontend.submit(0, vectors))
                await asyncio.sleep(0.015)
                waiter = asyncio.create_task(frontend.submit(0, vectors))
                await asyncio.sleep(0.005)
                started = time.perf_counter()
                retried = await frontend.submit_with_retry(0, vectors)
                elapsed_ms = 1e3 * (time.perf_counter() - started)
                await asyncio.gather(in_service, waiter)
                stats = frontend.stats()
            return retried, elapsed_ms, stats

        retried, elapsed_ms, stats = drive(scenario())
        assert retried.ok
        assert retried.attempts >= 2
        assert stats["retries"] == retried.attempts - 1
        # The latency spans every attempt: each retry first slept at least
        # the shed's retry-after hint.
        assert RETRY_AFTER_MS * (retried.attempts - 1) <= retried.latency_ms <= elapsed_ms

    def test_admission_contract_armed_and_fires(self, snapshot):
        async def scenario():
            config = ServeConfig(
                snapshot_path=snapshot, num_workers=1, mode=self.mode
            )
            async with ServeFrontend(config) as frontend:
                vectors = centroid_queries(snapshot, [0])
                with contracts.activated():
                    # Clean traffic passes under the armed contract.
                    result = await frontend.submit(0, vectors)
                    assert result.ok
                    # A cooked ledger (a lost response) must fire it.
                    frontend.submitted += 1
                    with pytest.raises(ContractViolation):
                        await frontend.submit(0, vectors)

        drive(scenario())

    def test_non_numeric_tensor_is_refused_at_submit(self, snapshot):
        refused = np.empty((1, NUM_LAYERS, DIM), dtype=object)
        refused[...] = 0.5

        async def scenario():
            config = ServeConfig(snapshot_path=snapshot, num_workers=1, mode=self.mode)
            async with ServeFrontend(config) as frontend:
                with contracts.activated():
                    with pytest.raises(ValueError, match="numeric"):
                        await frontend.submit(0, refused)
                    result = await frontend.submit(0, centroid_queries(snapshot, [0]))
                return result, frontend.stats()

        result, stats = drive(scenario())
        assert result.ok
        assert stats["submitted"] == stats["success"] == 1

    def test_process_mode_uses_distinct_processes(self, snapshot):
        async def scenario():
            config = ServeConfig(
                snapshot_path=snapshot, num_workers=2, mode="process"
            )
            async with ServeFrontend(config) as frontend:
                pids = {
                    info["pid"] for info in frontend.worker_infos
                }
                # Both shards answer, from their own processes.
                results = await asyncio.gather(
                    *(
                        frontend.submit(c, centroid_queries(snapshot, [c]))
                        for c in range(6)
                    )
                )
            return pids, results

        pids, results = drive(scenario())
        assert len(pids) == 2
        assert os.getpid() not in pids
        assert all(r.ok for r in results)
        assert {r.worker_pid for r in results} == pids


class TestFrontendProcessMode(TestFrontend):
    """Every admission case above, with the workers in their own processes."""

    mode = "process"
    # Already process-mode in the base class; not run a second time.
    test_process_mode_uses_distinct_processes = None


# ----------------------------------------------------------------------
# Process-mode transport
# ----------------------------------------------------------------------


def mixed_queries(snapshot: str, batch: int, seed: int = 0) -> np.ndarray:
    """Exact centroids (hits) interleaved with unit noise (mostly misses)."""
    vectors = centroid_queries(snapshot, [i % NUM_CLASSES for i in range(batch)])
    vectors[1::2] = unit_rows(vectors[1::2].shape, seed=seed)
    return vectors


def process_config(snapshot: str, **settings) -> ServeConfig:
    return ServeConfig(snapshot_path=snapshot, mode="process", **settings)


def is_gone(pid: int) -> bool:
    """No such process, or only its unreaped remains."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] == b"Z"
    except FileNotFoundError:
        return True


def reaped(pid: int) -> bool:
    """True once this process has waited for its child ``pid``."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def shard_hints(frontend: ServeFrontend) -> dict[int, int]:
    """One class hint per shard."""
    hints: dict[int, int] = {}
    for class_id in range(NUM_CLASSES):
        hints.setdefault(frontend.shard_of(class_id), class_id)
    return hints


class TestProcessTransport:
    # 1 frame, a clip, and a chunk far larger than any socket buffer.
    @pytest.mark.parametrize("batch", [1, 64, 4096])
    def test_replies_equal_the_in_process_probe(self, snapshot, batch):
        vectors = mixed_queries(snapshot, batch)
        assert batch < 4096 or vectors.nbytes >= 2 << 20
        # A threshold the noise rows mostly miss: NaN scores and -1
        # layers cross the boundary too.
        options = WorkerOptions(theta=1.0)

        async def scenario():
            config = process_config(snapshot, num_workers=1, worker=options)
            async with ServeFrontend(config) as frontend:
                return await frontend._lanes[0].call(serve_requests, [vectors])

        reply = drive(scenario())
        state = WorkerState(snapshot, options)
        try:
            expected = serve_one(state, vectors)
        finally:
            shutdown_worker(state)
        assert 0 < expected.hits < batch or batch == 1
        for name in ("predicted", "hit_layer", "hit_score"):
            got, want = getattr(reply, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert reply.worker_pid != os.getpid()

    def test_concurrent_sessions_receive_their_own_replies(self, snapshot):
        sessions, requests = 8, 50

        async def session(frontend, class_id):
            lane = frontend._lanes[frontend.shard_of(class_id)]
            vectors = centroid_queries(snapshot, [class_id])
            for _ in range(requests):
                # Straight to the lane: with no dispatcher in between,
                # several calls of one lane are pending at once.
                reply = await lane.call(serve_requests, [vectors])
                assert reply.predicted.tolist() == [class_id]

        async def scenario():
            async with ServeFrontend(process_config(snapshot, num_workers=2)) as frontend:
                await asyncio.gather(
                    *(session(frontend, 3 * index) for index in range(sessions))
                )
                return [await lane.call(worker_info) for lane in frontend._lanes]

        infos = drive(scenario())
        assert sum(info["requests_served"] for info in infos) == sessions * requests

    def test_worker_exception_reaches_the_caller_and_the_worker_serves_on(
        self, snapshot
    ):
        async def scenario():
            async with ServeFrontend(process_config(snapshot, num_workers=1)) as frontend:
                with contracts.activated():
                    with pytest.raises(ValueError, match="does not fit the cache"):
                        await frontend.submit(0, np.zeros((1, NUM_LAYERS, DIM + 1)))
                    assert frontend.stats()["in_flight"] == 0
                    result = await frontend.submit(0, centroid_queries(snapshot, [0]))
                assert result.ok
                assert result.worker_pid == frontend.worker_infos[0]["pid"]
                return frontend.stats()

        stats = drive(scenario())
        assert stats["submitted"] == 1 and stats["success"] == 1

    def test_loop_keeps_running_while_a_large_call_is_pending(self, snapshot):
        small = centroid_queries(snapshot, [2])
        large = mixed_queries(snapshot, 4096)
        ticks = 0

        async def ticker():
            nonlocal ticks
            while True:
                await asyncio.sleep(0.001)
                ticks += 1

        async def scenario():
            config = process_config(
                snapshot, num_workers=1, worker=WorkerOptions(service_floor_ms=50.0)
            )
            async with ServeFrontend(config) as frontend:
                lane = frontend._lanes[0]
                # The worker sleeps in the first call's floor; the second,
                # a 4096-frame chunk, waits in the arena meanwhile.
                first = lane.call(serve_requests, [small])
                second = lane.call(serve_requests, [large])
                ticking = asyncio.create_task(ticker())
                replies = await asyncio.gather(first, second)
                ticking.cancel()
                assert not lane._outbox
                return replies

        first, second = drive(scenario())
        assert ticks >= 5
        assert first.predicted.tolist() == [2]
        assert second.predicted.shape == (4096,)
        assert second.predicted[0::2].tolist() == [i % NUM_CLASSES for i in range(0, 4096, 2)]

    def test_a_call_larger_than_the_socket_buffer_is_written_in_parts(self, snapshot):
        # 1024 one-frame requests: their slots alone make a call message
        # of tens of kilobytes, past the shrunken send buffer below.
        frames = [centroid_queries(snapshot, [c % NUM_CLASSES]) for c in range(1024)]
        ticks = 0

        async def ticker():
            nonlocal ticks
            while True:
                await asyncio.sleep(0.001)
                ticks += 1

        async def scenario():
            async with ServeFrontend(process_config(snapshot, num_workers=1)) as frontend:
                lane = frontend._lanes[0]
                lane.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                loop = asyncio.get_running_loop()
                answers = [loop.create_future() for _ in frames]
                pid = frontend.worker_infos[0]["pid"]
                # A stopped worker reads nothing: the call cannot be
                # written in one go, and the loop runs on meanwhile.
                os.kill(pid, signal.SIGSTOP)
                try:
                    lane.send(
                        serve_requests,
                        (frames,),
                        [lambda ok, value, f=f: f.set_result((ok, value)) for f in answers],
                    )
                    assert lane._outbox
                    ticking = asyncio.create_task(ticker())
                    await asyncio.sleep(0.05)
                    assert lane._outbox
                finally:
                    os.kill(pid, signal.SIGCONT)
                replies = await asyncio.gather(*answers)
                ticking.cancel()
                assert not lane._outbox
                return replies

        answers = drive(scenario())
        assert ticks >= 5
        assert [ok for ok, _ in answers] == [True] * len(frames)
        assert [reply.predicted.tolist() for _, reply in answers] == [
            [c % NUM_CLASSES] for c in range(len(frames))
        ]


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestRequestArena:
    """A process lane's call carries slots in a shared-memory arena, not
    tensors: the worker walks the front-end's bytes in place."""

    @staticmethod
    def record_slots(lane) -> list:
        """Wrap ``lane.arena.put``: every call's slots."""
        slots: list = []
        put = lane.arena.put

        def recording(chunks):
            slots.append(put(chunks))
            return slots[-1]

        lane.arena.put = recording
        return slots

    def test_replies_equal_the_in_process_walk_for_every_dtype(self, snapshot):
        clip = mixed_queries(snapshot, 64, seed=1)
        chunks = [
            mixed_queries(snapshot, 2, seed=2)[1:],  # a frame
            clip,  # a clip
            clip.astype(np.float32),
            centroid_queries(snapshot, [7]).astype(np.float16),
            np.asfortranarray(clip[::2]),  # strided, in another order
            np.concatenate([clip, clip[:, :3]], axis=1),  # taller
        ]
        options = WorkerOptions(theta=1.0)

        async def scenario():
            config = process_config(snapshot, num_workers=1, worker=options)
            async with ServeFrontend(config) as frontend:
                lane = frontend._lanes[0]
                alone = [await lane.call(serve_requests, [chunk]) for chunk in chunks]
                loop = asyncio.get_running_loop()
                together = [loop.create_future() for _ in chunks]
                lane.send(
                    serve_requests,
                    (chunks,),
                    [lambda ok, value, f=f: f.set_result((ok, value)) for f in together],
                )
                return alone, await asyncio.gather(*together)

        alone, together = drive(scenario())
        assert len({chunk.dtype for chunk in chunks}) == 3
        with MappedTableStore(snapshot) as store:
            cache = store.serving_cache(theta=1.0)
            with LookupWorkspace() as workspace:
                for chunk, reply, (ok, mixed) in zip(chunks, alone, together):
                    want = walk_cache_batch(cache, chunk, workspace)
                    assert ok
                    for got in (reply, mixed):
                        for name in ("predicted", "hit_layer", "hit_score"):
                            have, expected = getattr(got, name), getattr(want, name)
                            assert have.dtype == expected.dtype, name
                            assert have.tobytes() == expected.tobytes(), name

    def test_misfit_is_refused_alone(self, snapshot):
        good = centroid_queries(snapshot, [5])
        chunks = [good, np.zeros((3, NUM_LAYERS, DIM + 1), dtype=np.float32), good]

        async def scenario():
            async with ServeFrontend(process_config(snapshot, num_workers=1)) as frontend:
                lane = frontend._lanes[0]
                loop = asyncio.get_running_loop()
                answers = [loop.create_future() for _ in chunks]
                with contracts.activated():
                    lane.send(
                        serve_requests,
                        (chunks,),
                        [lambda ok, value, f=f: f.set_result((ok, value)) for f in answers],
                    )
                    return await asyncio.gather(*answers)

        (ok0, first), (ok1, refused), (ok2, last) = drive(scenario())
        assert (ok0, ok1, ok2) == (True, False, True)
        assert isinstance(refused, ValueError)
        assert "does not fit the cache" in str(refused)
        assert first.predicted.tolist() == last.predicted.tolist() == [5]

    def test_pointer_restarts_when_the_lane_is_idle(self, snapshot):
        frame = centroid_queries(snapshot, [3])
        clip = mixed_queries(snapshot, 64)

        async def scenario():
            async with ServeFrontend(process_config(snapshot, num_workers=1)) as frontend:
                lane = frontend._lanes[0]
                slots = self.record_slots(lane)
                with contracts.activated():
                    await lane.call(serve_requests, [clip])
                    assert not lane.arena.live
                    await lane.call(serve_requests, [frame])
                    # Two calls live at once: the second lies after the first.
                    await asyncio.gather(
                        lane.call(serve_requests, [clip]),
                        lane.call(serve_requests, [frame]),
                    )
                    assert not lane.arena.live
                    await frontend.submit(3, frame)
                return slots

        slots = drive(scenario())
        offsets = [[offset for offset, _, _ in call] for call in slots]
        assert offsets[:2] == [[0], [0]]
        assert offsets[2] == [0] and offsets[3][0] >= clip.nbytes
        assert offsets[4] == [0]

    def test_arena_grows_and_the_worker_remaps(self, snapshot):
        frame = centroid_queries(snapshot, [4])
        big = mixed_queries(snapshot, 8192).astype(np.float64)

        async def scenario():
            async with ServeFrontend(process_config(snapshot, num_workers=1)) as frontend:
                lane = frontend._lanes[0]
                size = lane.arena.size
                with contracts.activated():
                    # The worker maps the arena at its first call, then
                    # must map it again for a call past that mapping.
                    first = await lane.call(serve_requests, [frame])
                    assert big.nbytes > size
                    grown = await lane.call(serve_requests, [big])
                    assert lane.arena.size >= big.nbytes > size
                    after = await lane.call(serve_requests, [big[:5], frame])
                return size, lane.arena.size, first, grown

        size, grown_size, first, grown = drive(scenario())
        assert first.predicted.tolist() == [4]
        assert grown.predicted[0::2].tolist() == [i % NUM_CLASSES for i in range(0, 8192, 2)]
        assert grown_size > size

    def test_arena_contract_armed_and_fires(self, snapshot):
        frame = centroid_queries(snapshot, [6])

        async def scenario():
            async with ServeFrontend(process_config(snapshot, num_workers=1)) as frontend:
                lane = frontend._lanes[0]
                with contracts.activated():
                    assert (await lane.call(serve_requests, [frame])).predicted.tolist() == [6]
                    # A call that never frees its bytes: the lane goes idle
                    # holding a reservation, and the next call is refused.
                    lane.arena.release = lambda: None
                    await lane.call(serve_requests, [frame])
                    with pytest.raises(ContractViolation, match="idle lane"):
                        await lane.call(serve_requests, [frame])

        drive(scenario())

    def test_no_descriptor_is_left_open(self, snapshot):
        async def scenario(kill: bool):
            frontend = ServeFrontend(process_config(snapshot, num_workers=2))
            await frontend.start()
            assert (await frontend.submit(0, mixed_queries(snapshot, 64))).ok
            if kill:
                os.kill(frontend.worker_infos[0]["pid"], signal.SIGKILL)
                await asyncio.sleep(0.05)
            await frontend.close()

        drive(scenario(kill=False))  # imports and first-use state
        for kill in (False, True):
            before = open_fds()
            drive(scenario(kill))
            gc.collect()
            assert open_fds() == before, kill
        assert multiprocessing.active_children() == []


class TestBatchedReplies:
    """A process worker writes every answer already due in one
    ``sendmsg``, and the front-end's reader takes all of them in one
    wake-up — yet no answer leaves before it is due."""

    @staticmethod
    def send_call(lane, chunks) -> list:
        """Send one call of ``chunks``; its answers' futures and arrival
        times, and the number of the reader wake-up that took each."""
        loop = asyncio.get_running_loop()
        wakeups = [0]
        read = lane._on_readable

        def counting():
            wakeups[0] += 1
            read()

        loop.remove_reader(lane.sock)
        loop.add_reader(lane.sock, counting)
        futures = [loop.create_future() for _ in chunks]

        def sink(future):
            return lambda ok, value: future.set_result(
                (ok, value, time.perf_counter(), wakeups[0])
            )

        lane.send(serve_requests, (chunks,), [sink(f) for f in futures])
        return futures

    def test_each_reply_leaves_no_earlier_than_its_floors(self, snapshot):
        floor_ms, k = 15.0, 4
        chunks = [centroid_queries(snapshot, [c]) for c in range(k)]

        async def scenario():
            config = process_config(
                snapshot, num_workers=1, worker=WorkerOptions(service_floor_ms=floor_ms)
            )
            async with ServeFrontend(config) as frontend:
                started = time.perf_counter()
                futures = self.send_call(frontend._lanes[0], chunks)
                return started, await asyncio.gather(*futures)

        started, answers = drive(scenario())
        for i, (ok, reply, arrived, _) in enumerate(answers):
            assert ok and reply.predicted.tolist() == [i]
            assert 1e3 * (arrived - started) >= (i + 1) * floor_ms

    def test_replies_due_at_once_arrive_in_order_in_one_read(self, snapshot):
        k = 12
        chunks = [centroid_queries(snapshot, [c]) for c in range(k)]

        async def scenario():
            async with ServeFrontend(process_config(snapshot, num_workers=1)) as frontend:
                lane = frontend._lanes[0]
                futures = self.send_call(lane, chunks)
                order: list[int] = []
                for i, future in enumerate(futures):
                    future.add_done_callback(lambda _, i=i: order.append(i))
                return order, await asyncio.gather(*futures)

        order, answers = drive(scenario())
        assert order == list(range(k))
        assert [reply.predicted.tolist() for _, reply, _, _ in answers] == [
            [c] for c in range(k)
        ]
        assert len({wakeup for _, _, _, wakeup in answers}) == 1

    def test_call_replies_contract_stays_armed(self, snapshot, monkeypatch):
        check = contracts.check_call_replies

        def checked(rows, replies, busy_ms):
            check(rows, replies, busy_ms)
            raise ContractViolation(f"checked a call of {len(rows)}")

        # Patched before the worker forks, so the worker runs it.
        monkeypatch.setattr(contracts, "check_call_replies", checked)
        chunks = [centroid_queries(snapshot, [c]) for c in range(3)]

        async def scenario():
            with contracts.activated():
                async with ServeFrontend(process_config(snapshot, num_workers=1)) as frontend:
                    futures = self.send_call(frontend._lanes[0], chunks)
                    return await asyncio.gather(*futures)

        answers = drive(scenario())
        assert [ok for ok, *_ in answers] == [True, True, False]
        assert isinstance(answers[2][1], ContractViolation)
        assert str(answers[2][1]) == "checked a call of 3"


class TestWorkerLoss:
    """A worker process that dies resolves to a typed error, a balanced
    ledger and a clean shutdown — never a hang or a dead slot."""

    @staticmethod
    def watch(loop_errors: list) -> None:
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )

    def test_killed_worker_fails_its_lane_only(self, snapshot):
        loop_errors: list = []

        async def scenario():
            self.watch(loop_errors)
            config = process_config(
                snapshot,
                num_workers=2,
                deadline_ms=60_000.0,
                worker=WorkerOptions(service_floor_ms=100.0),
            )
            frontend = ServeFrontend(config)
            await frontend.start()
            pids = [info["pid"] for info in frontend.worker_infos]
            hints = shard_hints(frontend)
            vectors = {s: centroid_queries(snapshot, [c]) for s, c in hints.items()}
            with contracts.activated():
                # One request in service and one queued on shard 0 when
                # its worker is killed: both fail with the typed error.
                doomed = [
                    asyncio.create_task(frontend.submit(hints[0], vectors[0]))
                    for _ in range(2)
                ]
                await asyncio.sleep(0.02)
                os.kill(pids[0], signal.SIGKILL)
                for task in doomed:
                    with pytest.raises(WorkerLost) as lost:
                        await asyncio.wait_for(task, timeout=10.0)
                    assert (lost.value.shard, lost.value.pid) == (0, pids[0])
                # Later submits fail at once (the deadline is a minute).
                with pytest.raises(WorkerLost):
                    await asyncio.wait_for(
                        frontend.submit(hints[0], vectors[0]), timeout=10.0
                    )
                assert frontend.stats()["in_flight"] == 0
                assert frontend.stats()["queued"] == 0
                served = await frontend.submit(hints[1], vectors[1])
            assert served.ok and served.worker_pid == pids[1]
            stats = frontend.stats()
            await frontend.close()
            await frontend.close()  # idempotent
            return frontend, pids, stats

        frontend, pids, stats = drive(scenario())
        assert stats["submitted"] == stats["success"] == 1
        assert stats["timeout"] == stats["shed"] == stats["in_flight"] == 0
        assert frontend._lanes == []
        assert all(reaped(pid) for pid in pids)
        assert multiprocessing.active_children() == []
        gc.collect()
        assert loop_errors == []

    def test_close_reaps_every_worker_when_one_is_dead(self, snapshot):
        loop_errors: list = []

        async def scenario():
            self.watch(loop_errors)
            frontend = ServeFrontend(process_config(snapshot, num_workers=2))
            await frontend.start()
            pids = [info["pid"] for info in frontend.worker_infos]
            os.kill(pids[0], signal.SIGKILL)
            await frontend.close()
            await asyncio.sleep(0)
            return frontend, pids

        frontend, pids = drive(scenario())
        assert frontend._lanes == []
        assert all(reaped(pid) for pid in pids)
        assert multiprocessing.active_children() == []
        gc.collect()
        assert loop_errors == []

    def test_normal_shutdown_is_silent(self, snapshot, capfd):
        loop_errors: list = []

        async def scenario():
            self.watch(loop_errors)
            async with ServeFrontend(process_config(snapshot, num_workers=2)) as frontend:
                pids = [info["pid"] for info in frontend.worker_infos]
                assert (await frontend.submit(0, centroid_queries(snapshot, [0]))).ok
            # Let the loop see the end-of-file the exited workers left.
            await asyncio.sleep(0.01)
            return pids

        pids = drive(scenario())
        assert all(reaped(pid) for pid in pids)
        gc.collect()
        assert loop_errors == []
        assert capfd.readouterr().err == ""

    def test_workers_exit_when_the_frontend_dies_without_close(self, snapshot):
        script = (
            "import asyncio, os, signal, sys\n"
            "from repro.serve import ServeConfig, ServeFrontend\n"
            "async def main():\n"
            "    frontend = ServeFrontend(ServeConfig(\n"
            "        snapshot_path=sys.argv[1], num_workers=2, mode='process'))\n"
            "    await frontend.start()\n"
            "    print(*(info['pid'] for info in frontend.worker_infos), flush=True)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "asyncio.run(main())\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, snapshot],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == -signal.SIGKILL, done.stderr
        pids = [int(word) for word in done.stdout.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while not all(is_gone(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        orphans = [pid for pid in pids if not is_gone(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert orphans == []


# ----------------------------------------------------------------------
# Coalesced calls: everything waiting on a lane goes to its worker as one
# ----------------------------------------------------------------------


class TestStartErrors:
    """A snapshot a worker cannot serve fails ``start()`` with the
    store's own typed error in either mode — a process worker answers
    its first call with it instead of dying — and leaves no process."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("fault", ["truncated_shard", "partially_filled"])
    def test_start_raises_the_typed_error(self, tmp_path, mode, fault):
        table = GlobalCacheTable(NUM_CLASSES, NUM_LAYERS, DIM)
        table.entries = unit_rows((NUM_CLASSES, NUM_LAYERS, DIM), seed=0)
        table.filled[:] = True
        table.class_freq = np.full(NUM_CLASSES, 4.0)
        if fault == "partially_filled":
            table.filled[3, 7] = False
            error, match = SnapshotFormatError, "layer 7 has 1 of 24 classes unfilled"
        else:
            error, match = SnapshotIntegrityError, "truncated or corrupt"
        manifest = write_snapshot(tmp_path / "snap", table, epoch=1, layers_per_shard=4)
        if fault == "truncated_shard":
            shard = tmp_path / "snap" / manifest.shards[1].file
            shard.write_bytes(shard.read_bytes()[: shard.stat().st_size // 2])

        async def scenario():
            frontend = ServeFrontend(
                ServeConfig(snapshot_path=str(tmp_path / "snap"), mode=mode)
            )
            try:
                await frontend.start()
            finally:
                assert frontend._lanes == []

        with pytest.raises(error, match=match):
            drive(scenario())
        assert multiprocessing.active_children() == []


def record_calls(lane) -> list:
    """Wrap ``lane.send``: every call's function, chunks and answers."""
    calls: list = []
    send = lane.send

    def recording(fn, args, sinks):
        call = {"fn": fn, "args": args, "sent": time.perf_counter(),
                "answers": [None] * len(sinks)}
        calls.append(call)

        def keep(index, sink):
            def answer(ok, value):
                call["answers"][index] = (ok, value)
                sink(ok, value)
            return answer

        send(fn, args, [keep(index, sink) for index, sink in enumerate(sinks)])

    lane.send = recording
    return calls


def coalesced(calls: list) -> list:
    """The recorded request calls that carried more than one request."""
    return [c for c in calls if c["fn"] is serve_requests and len(c["args"][0]) > 1]


class TestCoalescing:
    """A free worker takes every request waiting on its lane as one call:
    one walk over all their rows, then one reply per request, each in
    its own time.  A first request holds the worker for one service
    floor while the others queue behind it."""

    mode = "thread"

    def config(self, snapshot: str, **settings) -> ServeConfig:
        settings.setdefault("deadline_ms", 10_000.0)
        settings.setdefault("num_workers", 1)
        return ServeConfig(snapshot_path=snapshot, mode=self.mode, **settings)

    def test_coalesced_walk_equals_each_request_alone(self, tmp_path):
        table = GlobalCacheTable(NUM_CLASSES, NUM_LAYERS, DIM)
        table.entries = unit_rows((NUM_CLASSES, NUM_LAYERS, DIM), seed=0)
        table.filled[:] = True
        table.class_freq = np.full(NUM_CLASSES, 4.0)
        snapshot = str(tmp_path / "snap32")
        write_snapshot(snapshot, table, epoch=1, dtype="float32")
        options = WorkerOptions(theta=1.0, service_floor_ms=20.0)
        clip = mixed_queries(snapshot, 64, seed=1)
        singles = [mixed_queries(snapshot, 2, seed=seed)[1:] for seed in range(2, 6)]
        chunks = [
            singles[0].astype(np.float64),
            clip.astype(np.float32),
            singles[1].astype(np.float32),
            np.concatenate([clip, clip[:, :3]], axis=1).astype(np.float64),  # taller
            centroid_queries(snapshot, [7]).astype(np.float64),
            singles[2].astype(np.float32),
        ]

        async def scenario():
            async with ServeFrontend(self.config(snapshot, worker=options)) as frontend:
                calls = record_calls(frontend._lanes[0])
                holder = asyncio.create_task(frontend.submit(0, singles[3]))
                await asyncio.sleep(0)  # the holder is dispatched
                results = await asyncio.gather(
                    *(frontend.submit(0, chunk) for chunk in chunks)
                )
                await holder
                # The next call's walk reuses the workspace the first one
                # walked in; the first call's replies must not change.
                assert all(r.ok for r in await asyncio.gather(
                    *(frontend.submit(0, chunk[::-1].copy()) for chunk in chunks[:3])
                ))
                return calls, results

        calls, results = drive(scenario())
        [call, *_] = coalesced(calls)
        assert [c is chunk for c, chunk in zip(call["args"][0], chunks)] == [True] * 6
        with MappedTableStore(snapshot) as store:
            cache = store.serving_cache(theta=1.0)
            with LookupWorkspace() as workspace:
                for chunk, (ok, reply), result in zip(chunks, call["answers"], results):
                    alone = walk_cache_batch(cache, chunk, workspace)
                    assert ok and result.ok
                    assert np.array_equal(reply.predicted, alone.predicted)
                    assert np.array_equal(reply.hit_layer, alone.hit_layer)
                    # Scores agree to float32 rounding: BLAS may sum a
                    # product of the call's rows in another order.
                    np.testing.assert_allclose(reply.hit_score, alone.hit_score, rtol=1e-5)
                    assert reply.hits == result.hits == int(alone.hit.sum())
                    assert result.frames == chunk.shape[0]
        assert 0 < sum(r.hits for r in results) < sum(r.frames for r in results)

    def test_misfit_is_refused_alone(self, snapshot):
        good = centroid_queries(snapshot, [5])
        misfit = np.zeros((1, NUM_LAYERS, DIM + 1))
        options = WorkerOptions(service_floor_ms=20.0)

        async def scenario():
            async with ServeFrontend(self.config(snapshot, worker=options)) as frontend:
                calls = record_calls(frontend._lanes[0])
                with contracts.activated():
                    holder = asyncio.create_task(frontend.submit(5, good))
                    await asyncio.sleep(0)  # the holder is dispatched
                    results = await asyncio.gather(
                        frontend.submit(5, good),
                        frontend.submit(5, misfit),
                        frontend.submit(5, good),
                        return_exceptions=True,
                    )
                    assert (await holder).ok
                    stats = frontend.stats()
                return calls, results, stats

        calls, results, stats = drive(scenario())
        assert len(coalesced(calls)) == 1
        first, refused, last = results
        assert isinstance(refused, ValueError)
        assert "does not fit the cache" in str(refused)
        assert first.ok and last.ok
        assert first.hits == last.hits == 1
        assert stats["in_flight"] == 0 and stats["queued"] == 0
        assert stats["submitted"] == stats["success"] == 3

    def test_queued_request_that_times_out_is_never_sent(self, snapshot):
        vectors = centroid_queries(snapshot, [2])
        options = WorkerOptions(service_floor_ms=60.0)

        async def scenario():
            async with ServeFrontend(self.config(snapshot, worker=options)) as frontend:
                calls = record_calls(frontend._lanes[0])
                with contracts.activated():
                    holder = asyncio.create_task(frontend.submit(2, vectors))
                    await asyncio.sleep(0)  # the holder is dispatched
                    doomed = vectors.copy()
                    expired = await frontend.submit(2, doomed, deadline_ms=15.0)
                    assert frontend.stats()["queued"] == 0
                    assert (await holder).ok
                stats = frontend.stats()
            return calls, doomed, expired, stats

        calls, doomed, expired, stats = drive(scenario())
        assert expired.outcome == "timeout"
        assert np.isnan(expired.wait_ms)
        sent = [c for call in calls if call["fn"] is serve_requests for c in call["args"][0]]
        assert len(sent) == 1 and all(c is not doomed for c in sent)
        assert stats["late_responses"] == 0
        assert stats["timeout"] == stats["success"] == 1

    def test_member_timing_out_mid_call_is_counted_late(self, snapshot):
        vectors = centroid_queries(snapshot, [3])
        options = WorkerOptions(service_floor_ms=30.0)

        async def scenario():
            async with ServeFrontend(self.config(snapshot, worker=options)) as frontend:
                calls = record_calls(frontend._lanes[0])
                holder = asyncio.create_task(frontend.submit(3, vectors))
                await asyncio.sleep(0)  # the holder is dispatched
                # Dispatched at ~30 ms behind the holder; served ~30-60 ms
                # and ~60-90 ms after that: the second misses 70 ms.
                results = await asyncio.gather(
                    frontend.submit(3, vectors),
                    frontend.submit(3, vectors, deadline_ms=70.0),
                )
                await holder
            return calls, results, frontend.stats()

        calls, (kept, late), stats = drive(scenario())
        assert len(coalesced(calls)) == 1
        assert kept.ok
        assert late.outcome == "timeout"
        assert late.wait_ms > 0  # it was dispatched: its queue wait is known
        assert stats["late_responses"] == 1
        assert stats["timeout"] == 1 and stats["success"] == 2

    def test_worker_exception_fails_every_member(self, snapshot, monkeypatch):
        import repro.serve.worker as worker_module

        walk = worker_module._walk_fitted

        def walk_one_row_only(cache, pack, vectors, workspace):
            if vectors.shape[0] > 1:
                raise RuntimeError("walk failed")
            return walk(cache, pack, vectors, workspace)

        # Patched before the workers start, so a forked worker has it too.
        monkeypatch.setattr(worker_module, "_walk_fitted", walk_one_row_only)
        vectors = centroid_queries(snapshot, [4])
        options = WorkerOptions(service_floor_ms=20.0)

        async def scenario():
            async with ServeFrontend(self.config(snapshot, worker=options)) as frontend:
                with contracts.activated():
                    holder = asyncio.create_task(frontend.submit(4, vectors))
                    await asyncio.sleep(0)  # the holder is dispatched
                    results = await asyncio.gather(
                        *(frontend.submit(4, vectors) for _ in range(3)),
                        return_exceptions=True,
                    )
                    assert (await holder).ok
                    stats = frontend.stats()
                    # The lane serves on.
                    assert (await frontend.submit(4, vectors)).ok
            return results, stats

        results, stats = drive(scenario())
        assert all(isinstance(r, RuntimeError) for r in results), results
        assert all("walk failed" in str(r) for r in results)
        assert stats["in_flight"] == 0 and stats["queued"] == 0
        assert stats["submitted"] == stats["success"] == 1

    def test_replies_leave_one_floor_apart(self, snapshot):
        floor_ms, k = 20.0, 4
        vectors = centroid_queries(snapshot, [6])
        options = WorkerOptions(service_floor_ms=floor_ms)

        async def scenario():
            async with ServeFrontend(self.config(snapshot, worker=options)) as frontend:
                calls = record_calls(frontend._lanes[0])
                holder = asyncio.create_task(frontend.submit(6, vectors))
                await asyncio.sleep(0)  # the holder is dispatched

                async def timed():
                    submitted = time.perf_counter()
                    result = await frontend.submit(6, vectors)
                    return submitted, result, time.perf_counter()

                done = await asyncio.gather(*(timed() for _ in range(k)))
                await holder
            return calls, done

        calls, done = drive(scenario())
        [call] = coalesced(calls)
        for i, (submitted, result, arrived) in enumerate(done):
            assert result.ok
            # No reply leaves before its own floor and those ahead of it.
            assert 1e3 * (arrived - call["sent"]) >= (i + 1) * floor_ms * 0.9
            # Queue wait plus service, past the wait for the call, is that
            # of a serial server: its own floor and one per request ahead.
            in_call = result.wait_ms + result.service_ms - 1e3 * (call["sent"] - submitted)
            assert (i + 1) * floor_ms - 1.0 <= in_call <= (i + 1) * floor_ms + 40.0


    def test_many_sessions_each_get_their_own_replies(self, snapshot):
        # More lanes than cores, many sessions, no floor: calls of every
        # size, replies split back per request.  Session j's chunk has
        # j % 3 exact centroids (hits) then zero rows (certain misses),
        # so a reply handed to the wrong request shows in its hits.
        sessions, rounds = 24, 25
        chunks = []
        for j in range(sessions):
            chunk = np.zeros((j % 5 + 3, NUM_LAYERS, DIM))
            chunk[: j % 3] = centroid_queries(snapshot, [j % NUM_CLASSES] * (j % 3))
            chunks.append(chunk)

        async def session(frontend, j):
            for _ in range(rounds):
                result = await frontend.submit(j, chunks[j])
                assert result.ok and result.hits == j % 3, (j, result)

        async def scenario():
            config = self.config(snapshot, num_workers=3, queue_depth=sessions)
            async with ServeFrontend(config) as frontend:
                calls = [record_calls(lane) for lane in frontend._lanes]
                # Only around the traffic: worker start-up parses snapshot
                # headers, and CPython 3.11's parser is not safe under
                # concurrent threads at this switch interval.
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)
                try:
                    with contracts.activated():
                        await asyncio.wait_for(
                            asyncio.gather(*(session(frontend, j) for j in range(sessions))),
                            timeout=60.0,
                        )
                finally:
                    sys.setswitchinterval(interval)
                return calls, frontend.stats()

        calls, stats = drive(scenario())
        assert stats["submitted"] == stats["success"] == sessions * rounds
        assert stats["in_flight"] == 0 and stats["queued"] == 0
        assert sum(lane["served"] for lane in stats["lanes"]) == sessions * rounds
        assert any(coalesced(lane_calls) for lane_calls in calls)


class TestCoalescingProcessMode(TestCoalescing):
    """Every coalescing case above, with the worker in its own process."""

    mode = "process"

    def test_worker_lost_fails_every_member(self, snapshot):
        vectors = centroid_queries(snapshot, [1])
        options = WorkerOptions(service_floor_ms=40.0)

        async def scenario():
            async with ServeFrontend(self.config(snapshot, worker=options)) as frontend:
                calls = record_calls(frontend._lanes[0])
                with contracts.activated():
                    holder = asyncio.create_task(frontend.submit(1, vectors))
                    await asyncio.sleep(0)  # the holder is dispatched
                    members = [
                        asyncio.create_task(frontend.submit(1, vectors)) for _ in range(3)
                    ]
                    assert (await holder).ok
                    await asyncio.sleep(0.01)  # the three are in service now
                    assert len(coalesced(calls)) == 1
                    os.kill(frontend.worker_infos[0]["pid"], signal.SIGKILL)
                    results = await asyncio.gather(*members, return_exceptions=True)
                    stats = frontend.stats()
            return results, stats

        results, stats = drive(scenario())
        assert all(isinstance(r, WorkerLost) for r in results), results
        assert stats["in_flight"] == 0 and stats["queued"] == 0
        assert stats["submitted"] == stats["success"] == 1
        assert multiprocessing.active_children() == []


class TimerLog:
    """Wrap a running loop's ``call_at`` / ``call_later``: every timer
    handle scheduled through them, and the ids of those whose callback
    ran."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.handles: list[asyncio.TimerHandle] = []
        self.ran: set[int] = set()
        call_at = loop.call_at

        def at(when, callback, *args, **kwargs):
            def run(*a):
                self.ran.add(id(handle))
                callback(*a)

            handle = call_at(when, run, *args, **kwargs)
            self.handles.append(handle)
            return handle

        loop.call_at = at
        loop.call_later = lambda delay, callback, *args, **kwargs: at(
            loop.time() + delay, callback, *args, **kwargs
        )

    def pending(self) -> list[asyncio.TimerHandle]:
        """Handles still on the loop: neither run nor cancelled."""
        return [h for h in self.handles if not h.cancelled() and id(h) not in self.ran]


class TestLaneExpiry:
    """A lane times its requests out with one expiry timer over a FIFO
    of deadlines, not a timer per request.  Counts and outcomes only."""

    mode = "thread"

    def config(self, snapshot: str, **settings) -> ServeConfig:
        settings.setdefault("deadline_ms", 10_000.0)
        return ServeConfig(snapshot_path=snapshot, num_workers=1, mode=self.mode, **settings)

    def test_sequential_submits_schedule_a_constant_number_of_timers(self, snapshot):
        vectors = centroid_queries(snapshot, [0])

        async def scenario():
            config = self.config(snapshot, queue_depth=2)
            async with ServeFrontend(config) as frontend:
                lane = frontend._lanes[0]
                timers = TimerLog(asyncio.get_running_loop())
                with contracts.activated():
                    for _ in range(1000):
                        assert (await frontend.submit(0, vectors)).ok
                scheduled = len(timers.handles)
                # Resolved deadlines at the front go at every admission.
                assert len(lane.deadlines) <= config.queue_depth + lane.in_flight
                return scheduled, frontend.stats()

        scheduled, stats = drive(scenario())
        assert scheduled <= 2
        assert stats["submitted"] == stats["success"] == 1000

    def test_short_override_behind_long_deadlines_times_out(self, snapshot):
        vectors = centroid_queries(snapshot, [2])
        options = WorkerOptions(service_floor_ms=100.0)

        async def scenario():
            async with ServeFrontend(self.config(snapshot, worker=options)) as frontend:
                calls = record_calls(frontend._lanes[0])
                with contracts.activated():
                    long = [asyncio.create_task(frontend.submit(2, vectors))]
                    await asyncio.sleep(0)  # the first is dispatched
                    long += [asyncio.create_task(frontend.submit(2, vectors)) for _ in range(2)]
                    await asyncio.sleep(0)  # the others queue behind it
                    doomed = vectors.copy()
                    expired = await frontend.submit(2, doomed, deadline_ms=15.0)
                    # Expired while the 10 s requests ahead still waited.
                    assert frontend.stats()["queued"] == 2
                    assert not any(task.done() for task in long)
                    served = await asyncio.gather(*long)
                stats = frontend.stats()
            return calls, doomed, expired, served, stats

        calls, doomed, expired, served, stats = drive(scenario())
        assert expired.outcome == "timeout"
        assert all(r.ok for r in served)
        sent = [c for call in calls if call["fn"] is serve_requests for c in call["args"][0]]
        assert len(sent) == 3 and all(c is not doomed for c in sent)
        assert stats["submitted"] == 4
        assert stats["success"] == 3 and stats["timeout"] == 1 and stats["shed"] == 0
        assert stats["queued"] == stats["in_flight"] == stats["late_responses"] == 0

    def test_close_leaves_no_timer_on_the_loop(self, snapshot):
        vectors = centroid_queries(snapshot, [1])
        options = WorkerOptions(service_floor_ms=20.0)

        async def scenario():
            timers = TimerLog(asyncio.get_running_loop())
            async with ServeFrontend(self.config(snapshot, worker=options)) as frontend:
                holder = asyncio.create_task(frontend.submit(1, vectors))
                await asyncio.sleep(0)  # the holder is dispatched
                results = await asyncio.gather(
                    *(frontend.submit(1, vectors) for _ in range(3)),
                    frontend.submit(1, vectors, deadline_ms=5_000.0),
                )
                results.append(await holder)
                lane = frontend._lanes[0]
                armed = lane._expiry is not None
            return timers, armed, results

        timers, armed, results = drive(scenario())
        assert all(r.ok for r in results)
        assert armed  # the 5 s deadline's timer outlived its request
        assert timers.pending() == []


class TestLaneExpiryProcessMode(TestLaneExpiry):
    """The same lane timer, with the worker in its own process."""

    mode = "process"


class TestInLoopLanes:
    """Thread-mode lanes run their worker on the front-end's own loop:
    floors are loop timers, so lanes overlap and nothing waits on them."""

    def test_two_lanes_overlap_their_floors(self, snapshot):
        floor_ms = 30.0

        async def scenario():
            config = ServeConfig(
                snapshot_path=snapshot,
                num_workers=2,
                worker=WorkerOptions(service_floor_ms=floor_ms),
            )
            async with ServeFrontend(config) as frontend:
                hints = shard_hints(frontend)
                started = time.perf_counter()
                results = await asyncio.gather(
                    *(
                        frontend.submit(hint, centroid_queries(snapshot, [hint]))
                        for hint in hints.values()
                    )
                )
                return results, 1e3 * (time.perf_counter() - started)

        results, elapsed_ms = drive(scenario())
        assert [r.shard for r in results] == [0, 1]
        assert all(r.ok and r.service_ms >= floor_ms for r in results)
        # One floor for both; one after the other would take two.
        assert floor_ms <= elapsed_ms < 1.75 * floor_ms

    def test_shed_and_timeout_resolve_during_another_lanes_floor(self, snapshot):
        async def scenario():
            config = ServeConfig(
                snapshot_path=snapshot,
                num_workers=2,
                queue_depth=1,
                deadline_ms=10_000.0,
                worker=WorkerOptions(service_floor_ms=150.0),
            )
            async with ServeFrontend(config) as frontend:
                hints = shard_hints(frontend)
                vectors = {s: centroid_queries(snapshot, [c]) for s, c in hints.items()}
                other = asyncio.create_task(frontend.submit(hints[1], vectors[1]))
                holder = asyncio.create_task(frontend.submit(hints[0], vectors[0]))
                await asyncio.sleep(0)  # both are in service
                started = time.perf_counter()
                expired = await frontend.submit(hints[0], vectors[0], deadline_ms=20.0)
                timed_out_ms = 1e3 * (time.perf_counter() - started)
                assert not other.done()
                seat = asyncio.create_task(frontend.submit(hints[0], vectors[0]))
                await asyncio.sleep(0)  # it holds the lane's one queue seat
                shed = await frontend.submit(hints[0], vectors[0])
                assert not other.done()
                done = await asyncio.gather(other, holder, seat)
                return expired, timed_out_ms, shed, done, frontend.stats()

        expired, timed_out_ms, shed, done, stats = drive(scenario())
        assert expired.outcome == "timeout"
        assert 20.0 <= timed_out_ms < 100.0
        assert shed.outcome == "shed"
        assert all(r.ok for r in done)
        assert stats["submitted"] == 5 and stats["success"] == 3

    def test_call_replies_contract_holds_with_floors_and_miss_penalties(
        self, snapshot, monkeypatch
    ):
        floor_ms, miss_ms = 4.0, 3.0
        calls: list = []
        check = contracts.check_call_replies
        monkeypatch.setattr(
            contracts, "check_call_replies", lambda *a: (calls.append(a), check(*a))
        )
        # Hits and noise rows (misses at this theta) in every request.
        chunks = [mixed_queries(snapshot, rows, seed=rows) for rows in (1, 2, 3, 4, 5)]

        async def scenario():
            config = ServeConfig(
                snapshot_path=snapshot,
                num_workers=1,
                deadline_ms=10_000.0,
                worker=WorkerOptions(theta=1.0, service_floor_ms=floor_ms, miss_ms=miss_ms),
            )
            async with ServeFrontend(config) as frontend:
                with contracts.activated():
                    holder = asyncio.create_task(frontend.submit(0, chunks[0]))
                    await asyncio.sleep(0)  # the holder is dispatched
                    results = await asyncio.gather(
                        *(frontend.submit(0, chunk) for chunk in chunks[1:])
                    )
                    return [await holder, *results]

        results = drive(scenario())
        assert [len(rows) for rows, _, _ in calls] == [1, 4]
        assert sum(r.frames - r.hits for r in results) > 0
        for result in results:
            owed = floor_ms + miss_ms * (result.frames - result.hits)
            assert result.ok and result.service_ms >= owed - 1e-9

    def test_lanes_on_one_loop_never_share_probe_buffers(self, snapshot):
        async def scenario():
            config = ServeConfig(snapshot_path=snapshot, num_workers=2)
            async with ServeFrontend(config) as frontend:
                hints = shard_hints(frontend)
                # Interleaved, so each lane walks between the other's walks.
                for _ in range(3):
                    for hint in hints.values():
                        result = await frontend.submit(hint, mixed_queries(snapshot, 8))
                        assert result.ok and result.frames == 8
                states = [lane.state for lane in frontend._lanes]
                pools = [list(state.workspace._pools.values()) for state in states]
                layouts = [dict(state.workspace._layouts) for state in states]
            return states, pools, layouts

        (first, second), (mine, theirs), layouts = drive(scenario())
        assert first is not second and first.workspace is not second.workspace
        assert mine and theirs and all(layouts)
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)


class TestServeConfigValidation:
    """Values that would silently change behaviour are refused."""

    @pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf"), 0.0, -1.0])
    def test_deadline_must_be_finite_and_positive(self, snapshot, deadline_ms):
        with pytest.raises(ValueError, match="deadline_ms"):
            ServeConfig(snapshot_path=snapshot, deadline_ms=deadline_ms)

    @pytest.mark.parametrize("floor_ms", [-5.0, float("nan"), float("inf")])
    def test_service_floor_must_be_finite_and_non_negative(self, snapshot, floor_ms):
        with pytest.raises(ValueError, match="service_floor_ms"):
            ServeConfig(
                snapshot_path=snapshot, worker=WorkerOptions(service_floor_ms=floor_ms)
            )

    @pytest.mark.parametrize("miss_ms", [float("nan"), -1.0])
    def test_miss_penalty_must_be_finite_and_non_negative(self, snapshot, miss_ms):
        with pytest.raises(ValueError, match="miss_ms"):
            ServeConfig(snapshot_path=snapshot, worker=WorkerOptions(miss_ms=miss_ms))

    @pytest.mark.parametrize("backoff_ms", [-1.0, float("nan")])
    def test_backoff_must_be_finite_and_non_negative(self, snapshot, backoff_ms):
        with pytest.raises(ValueError, match="backoff_base_ms"):
            ServeConfig(snapshot_path=snapshot, backoff_base_ms=backoff_ms)

    @pytest.mark.parametrize(
        "name, value",
        [("alpha", float("nan")), ("alpha", float("inf")), ("theta", float("nan"))],
    )
    def test_alpha_and_theta_must_be_finite(self, snapshot, name, value):
        with pytest.raises(ValueError, match=name):
            ServeConfig(snapshot_path=snapshot, worker=WorkerOptions(**{name: value}))

    def test_defaults_are_accepted(self, snapshot):
        config = ServeConfig(snapshot_path=snapshot, backoff_base_ms=0.0)
        assert config.deadline_ms > 0

    @pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf"), 0.0, -3.0])
    def test_submit_refuses_a_bad_deadline_override(self, snapshot, deadline_ms):
        async def scenario():
            config = ServeConfig(snapshot_path=snapshot, num_workers=1)
            async with ServeFrontend(config) as frontend:
                with pytest.raises(ValueError, match="deadline_ms"):
                    await frontend.submit(0, centroid_queries(snapshot, [0]), deadline_ms)
                return frontend.stats()

        stats = drive(scenario())
        assert stats["submitted"] == 0


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------


class TestLoadgen:
    def test_synthesized_requests_are_deterministic_units(self, snapshot):
        a = synthesize_requests(snapshot, num_requests=5, batch=4, seed=7)
        b = synthesize_requests(snapshot, num_requests=5, batch=4, seed=7)
        assert len(a) == 5
        for ra, rb in zip(a, b):
            assert ra.class_hint == rb.class_hint
            assert np.array_equal(ra.vectors, rb.vectors)
            norms = np.linalg.norm(ra.vectors, axis=2)
            assert np.allclose(norms, 1.0)

    def test_open_loop_resolves_every_request(self, snapshot):
        config = ServeConfig(
            snapshot_path=snapshot,
            num_workers=1,
            deadline_ms=2000.0,
            worker=WorkerOptions(service_floor_ms=2.0),
        )
        load = LoadgenConfig(rate_per_s=400.0, num_requests=40, batch=4, seed=3)
        report = run_loadgen(config, load)
        assert report.offered == 40
        assert report.resolved == 40
        assert report.latency is not None
        assert report.latency.count == report.success
        assert report.hit_ratio > 0.9  # low-noise traffic mostly hits

    def test_closed_loop_saturates_and_conserves(self, snapshot):
        config = ServeConfig(
            snapshot_path=snapshot,
            num_workers=2,
            deadline_ms=2000.0,
            worker=WorkerOptions(service_floor_ms=3.0),
        )
        load = LoadgenConfig(
            rate_per_s=None,
            concurrency=4,
            duration_s=0.15,
            num_requests=16,
            batch=4,
            seed=5,
        )
        report = run_loadgen(config, load)
        assert report.mode == "closed-loop"
        assert report.offered > 0
        assert report.resolved == report.offered
        assert report.throughput_rps > 0

    def test_analytic_wait_matches_md1_closed_form(self):
        # rho = 100/s * 5ms = 0.5; M/D/1 wait = rho*s / (2*(1-rho)).
        rho, wait = analytic_wait_ms(100.0, 5.0)
        assert rho == pytest.approx(0.5)
        assert wait == pytest.approx(2.5)
        with pytest.raises(ValueError):
            analytic_wait_ms(0.0, 5.0)


# ----------------------------------------------------------------------
# CLI round-trip
# ----------------------------------------------------------------------


class TestServeCli:
    def test_serve_smoke_json(self, snapshot, capsys):
        rc = cli_main(
            ["serve", snapshot, "--workers", "2", "--requests", "8", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == 2
        assert payload["smoke"]["success"] == 8
        assert len(payload["lanes"]) == 2
        assert all(l["worker"]["pid"] > 0 for l in payload["lanes"])

    def test_loadgen_open_loop_json_with_analytic(self, snapshot, capsys):
        rc = cli_main(
            [
                "loadgen", snapshot,
                "--workers", "1",
                "--rate", "300",
                "--requests", "30",
                "--service-floor-ms", "2",
                "--deadline-ms", "2000",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["offered"] == 30
        assert payload["success"] + payload["timeout"] + payload["shed"] == 30
        assert payload["latency_ms"]["count"] == payload["success"]
        assert "analytic" in payload
        assert payload["analytic"]["utilization"] is not None

    def test_serve_and_loadgen_text_report(self, snapshot, capsys):
        assert cli_main(["serve", snapshot, "--workers", "2", "--requests", "8"]) == 0
        out = capsys.readouterr().out
        assert "outcomes: 8/8 ok" in out
        assert out.count("warm start") == 2
        rc = cli_main(
            [
                "loadgen", snapshot,
                "--workers", "1",
                "--rate", "300",
                "--requests", "20",
                "--service-floor-ms", "2",
                "--deadline-ms", "2000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "open-loop over 1 thread worker(s)" in out
        assert "queue wait:" in out and "M/D/1" in out

    def test_serve_smoke_json_process_mode(self, snapshot, capsys):
        rc = cli_main(
            [
                "serve", snapshot,
                "--workers", "2",
                "--mode", "process",
                "--requests", "8",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["smoke"]["success"] == 8
        pids = {lane["worker"]["pid"] for lane in payload["lanes"]}
        assert len(pids) == 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("user_set", [None, "3"])
    def test_process_workers_run_single_threaded_blas(self, snapshot, user_set):
        env = {k: v for k, v in os.environ.items() if k not in THREAD_POOL_VARS}
        if user_set is not None:
            env["OPENBLAS_NUM_THREADS"] = user_set
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", snapshot,
                "--workers", "1", "--mode", "process", "--requests", "2", "--json",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        [lane] = json.loads(done.stdout)["lanes"]
        pools = lane["worker"]["thread_pools"]
        assert lane["worker"]["pid"] != os.getpid()
        assert pools.pop("OPENBLAS_NUM_THREADS") == (user_set or "1")
        assert pools == {name: "1" for name in pools} and len(pools) == 4

    def test_importing_the_package_loads_no_numpy(self):
        # What lets `python -m repro` size the pools before BLAS loads:
        # the package is imported before its __main__ runs.
        done = subprocess.run(
            [sys.executable, "-c", "import sys, repro; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout.strip()) == (0, "False"), done.stderr

    def test_loadgen_closed_loop_process_mode(self, snapshot, capsys):
        rc = cli_main(
            [
                "loadgen", snapshot,
                "--workers", "2",
                "--mode", "process",
                "--concurrency", "4",
                "--duration", "0.2",
                "--service-floor-ms", "2",
                "--deadline-ms", "2000",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["offered"] > 0
        assert payload["success"] + payload["timeout"] + payload["shed"] == payload["offered"]
        assert multiprocessing.active_children() == []
