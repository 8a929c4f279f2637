"""Real-concurrency serving front-end for the sharded cache cluster.

Everything else in this reproduction runs on virtual time; ``repro.serve``
is the one place wall-clock concurrency is real.  An asyncio front-end
(:class:`~repro.serve.frontend.ServeFrontend`) admits requests behind
bounded per-shard queues, routes them with the cluster's
:class:`~repro.cluster.sharding.ClassShardRouter`, and dispatches to one
worker per shard — run on the front-end's own event-loop thread, or a
persistent process reached over a stream socket that the event loop
itself reads and writes, selectable — where each worker serves from a
shared read-only :class:`~repro.store.MappedTableStore` snapshot.  The load generator
(:mod:`repro.serve.loadgen`) replays synthetic sessions at a target rate
and reports measured wall-clock percentiles next to the analytic
:class:`~repro.sim.network.ServerLoadModel` prediction.

See ``src/repro/serve/README.md`` for the architecture sketch.
"""

from repro.serve.frontend import (
    OUTCOME_SHED,
    OUTCOME_SUCCESS,
    OUTCOME_TIMEOUT,
    SERVE_MODES,
    ServeConfig,
    ServeFrontend,
    ServeResult,
    WorkerLost,
)
from repro.serve.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    Request,
    analytic_wait_ms,
    run_closed_loop,
    run_loadgen,
    run_loadgen_async,
    run_open_loop,
    synthesize_requests,
)
from repro.serve.worker import (
    WorkerOptions,
    WorkerReply,
    WorkerState,
    serve_requests,
    shutdown_worker,
    worker_info,
)

__all__ = [
    "OUTCOME_SHED",
    "OUTCOME_SUCCESS",
    "OUTCOME_TIMEOUT",
    "SERVE_MODES",
    "LoadgenConfig",
    "LoadgenReport",
    "Request",
    "ServeConfig",
    "ServeFrontend",
    "ServeResult",
    "WorkerLost",
    "WorkerOptions",
    "WorkerReply",
    "WorkerState",
    "analytic_wait_ms",
    "run_closed_loop",
    "run_loadgen",
    "run_loadgen_async",
    "run_open_loop",
    "serve_requests",
    "shutdown_worker",
    "synthesize_requests",
    "worker_info",
]
