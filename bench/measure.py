"""The one place time is summarised.

Identical code measured on a shared 2-vCPU VM moves in three ways, and
each has its countermeasure here:

* **Host states** (0.1 s to minutes, 1.2-1.65x slower).  A short block
  of a program-independent *host reference* runs beside every few
  operations, and every operation's time is divided by the reference
  measured right before and after it (:meth:`Reference.factors`): the
  reported times are those of a host whose reference runs at its nominal
  speed, whatever state each operation was measured in.
* **Bursts and stalls** (milliseconds).  The normalised operations are
  cut, in issue order, into *windows* of ``W`` consecutive operations;
  each statistic is computed per window; the value is the **median over
  the windows** (:func:`pw`).  Operation counts never depend on elapsed
  time, so two runs cut the same operations into the same windows.
* **Cross-vCPU hand-offs.**  A run pins itself and its workers to one
  CPU (:func:`one_cpu`).

The pooled value, the un-normalised value and :func:`quiet_share` are
kept beside every reported value: a stall the *program* produces
periodically leaves the reference untouched, so it stays in the
normalised series and shows as a low quiet share with pooled far from
the reported value.
"""

from __future__ import annotations

import asyncio
import math
import os
import resource
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

#: Operations per window: requests on the serve path, rounds on the
#: round path (a round is ~300x more work than a request).
REQUEST_WINDOW = 256
ROUND_WINDOW = 10
#: Requests issued between two host-reference blocks; a window of
#: requests starts at every piece.
REQUEST_PIECE = 64

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


@contextmanager
def one_cpu() -> Iterator[int]:
    """Run the calling process — and every worker it forks meanwhile — on
    one CPU; the previous affinity is restored on exit.

    Every workload is serialised by the GIL (thread mode) or by the
    lane's service slot, which is held across the whole round trip
    (process mode): a second core buys no throughput.  What it does buy
    on a shared VM is a hand-off that has to wake a halted vCPU through
    a contended hypervisor — unpinned, the thread-mode median moved
    0.95 -> 1.5 ms between runs of identical code.  The highest CPU is
    used; CPU 0 takes most interrupts.
    """
    allowed = os.sched_getaffinity(0)
    chosen = max(allowed)
    os.sched_setaffinity(0, {chosen})
    try:
        yield chosen
    finally:
        os.sched_setaffinity(0, allowed)


def windows(values: Sequence[float], size: int, stride: int | None = None) -> np.ndarray:
    """Cut a series into ``(n_windows, size)`` in issue order.

    By default windows are disjoint.  With a smaller ``stride`` they
    overlap — every run of ten consecutive rounds, every 256 requests
    starting at a piece boundary: a run has only a dozen disjoint
    windows.
    """
    series = np.asarray(values, dtype=float)
    if series.size < size:
        raise ValueError(f"{series.size} operations do not fill a window of {size}")
    return np.lib.stride_tricks.sliding_window_view(series, size)[:: stride or size]


def across(per_window: Sequence[float]) -> float:
    """The reported value of a per-window statistic: its median."""
    values = np.asarray(per_window, dtype=float)
    if values.size == 0:
        raise ValueError("no windows to summarise")
    return float(np.median(values))


def pw(
    values: Sequence[float],
    size: int,
    stat: Callable[[np.ndarray], np.ndarray],
    stride: int | None = None,
) -> float:
    """Paired-window estimate of ``stat`` over windows of ``size``
    operations.  ``values`` are already carried to the nominal host
    (:meth:`Reference.factors`); ``stat`` maps the ``(n_windows, size)``
    matrix to one value per window."""
    return across(stat(windows(values, size, stride)))


def quiet_share(per_window: Sequence[float], estimate: float) -> float:
    """Share of windows within 10% of the reported estimate."""
    values = np.asarray(per_window, dtype=float)
    return float((np.abs(values - estimate) <= 0.10 * abs(estimate)).mean())


def best_fifth(values: Sequence[float]) -> float:
    """Mean over the lowest fifth: the quiet level of a reference."""
    ordered = np.sort(np.asarray(values, dtype=float))
    if ordered.size == 0:
        raise ValueError("nothing to summarise")
    return float(ordered[: max(1, math.ceil(0.2 * ordered.size))].mean())


def median_of(matrix: np.ndarray) -> np.ndarray:
    return np.median(matrix, axis=1)


def mean_of(matrix: np.ndarray) -> np.ndarray:
    return matrix.mean(axis=1)


def sum_of(matrix: np.ndarray) -> np.ndarray:
    return matrix.sum(axis=1)


def percentile_of(q: float) -> Callable[[np.ndarray], np.ndarray]:
    def stat(matrix: np.ndarray) -> np.ndarray:
        return np.percentile(matrix, q, axis=1)

    return stat


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # Fields after the command name: state is index 0, utime 11, stime 12.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


def cpu_seconds(worker_pids: Sequence[int]) -> float:
    """CPU seconds consumed so far by the driver and its worker processes.

    Thread-mode workers report the driver's own pid and are already in
    ``process_time``.
    """
    own = os.getpid()
    total = time.process_time()
    for pid in set(worker_pids) - {own}:
        total += process_cpu_s(pid)
    return total


def peak_rss_mb() -> float:
    """Peak resident set: this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Reference:
    """How fast is the host *right now*?  A fixed piece of work that
    imports nothing from the program, run in short blocks beside the
    measured operations.

    The host's states last from a tenth of a second to minutes and slow
    interpreter-bound code by 1.2-1.65x; no selection inside a run
    removes one that outlasts the run, and a selection made separately
    on the program's windows and on the reference's blocks picks
    different moments (a 7 ms block finds a quiet gap that ten
    consecutive rounds never do).  So the pairing is local: the
    operations between block ``i`` and block ``i + 1`` are multiplied by
    ``nominal / mean(block i, block i + 1)``.
    """

    #: Quiet-state block value on the host the bounds were sized on; a
    #: different host shifts every normalised time alike.
    nominal_us: float

    def __init__(self) -> None:
        #: Value (microseconds) of every block run so far.
        self.blocks: list[float] = []

    def factors(self, first: int, count: int) -> np.ndarray:
        """Factor per gap for the ``count`` gaps that start at block
        ``first``: gap ``k`` lies between blocks ``first + k`` and
        ``first + k + 1``."""
        blocks = np.asarray(self.blocks[first : first + count + 1])
        if blocks.size != count + 1:
            raise ValueError(f"{count} gaps need {count + 1} blocks from {first}")
        return self.nominal_us / (0.5 * (blocks[:-1] + blocks[1:]))

    def floor_us(self, since: int = 0) -> float:
        """Quiet-state block value: lowest fifth of the blocks from ``since``."""
        return best_fifth(self.blocks[since:])

    def quiet_share(self, since: int = 0) -> float:
        return quiet_share(self.blocks[since:], self.floor_us(since))


class _ProbeSteps:
    """A miniature of one cache-layer probe, over 16 rotating tables: a
    ``(B, 48) @ (48, 50)`` product into a pooled buffer, an Eq. 1-style
    fold, a top-2 selection, a hit mask and some interpreter glue.  A
    tighter loop (one matmul and a Python ``for``) was tried first and
    did not move when the program did."""

    def __init__(self, batch: int) -> None:
        rng = np.random.default_rng(0)
        self._tables = [rng.standard_normal((50, 48)) for _ in range(16)]
        self._query = rng.standard_normal((batch, 48))
        self._acc = np.zeros((batch, 50))
        self._out = np.empty((batch, 50))
        self._counts: dict[int, int] = {}

    def step(self, k: int) -> None:
        acc, out = self._acc, self._out
        np.matmul(self._query, self._tables[k & 15].T, out=out)
        acc *= 0.5
        acc += out
        top = np.argpartition(acc, -2, axis=1)[:, -2:]
        values = np.take_along_axis(acc, top, axis=1)
        high, low = values.max(axis=1), values.min(axis=1)
        hit = (high - low) / np.maximum(np.abs(high), 1e-9) > 0.5
        key = int(top[0, 1])
        self._counts[key] = self._counts.get(key, 0) + 1
        np.flatnonzero(~hit)


class RoundReference(Reference):
    """Probe-shaped steps at the batch size a round probes at (300):
    interpreter-bound and kernel-bound code do not slow by the same
    factor.  A block is the median of 50 steps (~7 ms)."""

    nominal_us = 150.0
    STEPS = 50

    def __init__(self) -> None:
        super().__init__()
        self._steps = _ProbeSteps(batch=300)

    def block(self) -> float:
        """Run one block; returns (and records) its median step time."""
        samples = np.empty(self.STEPS)
        clock = time.perf_counter
        step = self._steps.step
        for k in range(self.STEPS):
            started = clock()
            step(k)
            samples[k] = clock() - started
        value = 1e6 * float(np.median(samples))
        self.blocks.append(value)
        return value


class ServeReference(Reference):
    """The skeleton of one served request: the event loop hands a job to
    an executor thread, the thread walks 12 probe-shaped steps at batch
    size 1 and the result comes back through the loop.  A block is the
    median of 24 such round trips (~6 ms).

    The steps alone stayed flat while requests slowed by 5-10% for tens
    of seconds: what a request adds to them — interpreter and event-loop
    code, a thread wake-up each way — has a larger footprint and slows
    more.  Over 26 twenty-second stretches of one recording, request
    time over a steps-only reference spread 2.4% (range 6.2%), over this
    one 1.5% (range 5.1%).
    """

    nominal_us = 250.0
    DEPTH = 12
    TRIPS = 24

    def __init__(self) -> None:
        super().__init__()
        self._steps = _ProbeSteps(batch=1)
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="bench-reference")

    def _walk(self) -> None:
        for layer in range(self.DEPTH):
            self._steps.step(layer)

    async def block(self) -> float:
        """Run one block on the running loop; returns (and records) its
        median round-trip time."""
        loop = asyncio.get_running_loop()
        samples = np.empty(self.TRIPS)
        clock = time.perf_counter
        for k in range(self.TRIPS):
            started = clock()
            await loop.run_in_executor(self._pool, self._walk)
            samples[k] = clock() - started
        value = 1e6 * float(np.median(samples))
        self.blocks.append(value)
        return value

    def close(self) -> None:
        self._pool.shutdown()
