"""Concurrent inference serving (the ROADMAP's "heavy traffic" layer).

Two servers, one bit-identity contract:

* :class:`InferenceServer` — in-process thread pool that coalesces
  single-image requests into dynamic, shape-bucketed micro-batches over
  :class:`~repro.nn.inference.Predictor` workers, with bounded-queue
  backpressure, graceful shutdown and latency/throughput stats.
* :class:`ShardedInferenceServer` — a spawn-backed worker *process*
  pool (one Predictor replica per process, shared-memory tensor
  transport via :mod:`~repro.comms.shm`, shape-affine routing,
  admission control and crash recovery) for workloads where the GIL is
  the bottleneck.

Both share one front end (:mod:`~repro.serving.frontend`): the same
input checks, ``overload`` admission (block / reject; the cluster adds
degrade), ``predict``/``pending``/``stats`` and one
:class:`ServerStats` schema and accounting rule.

Every served output — threaded, sharded, compiled or degraded-tile for
in-tile requests — is bit-identical to a serial Predictor call on the
same bytes.  :mod:`~repro.serving.loadgen` drives either server with
deterministic closed-loop or open-loop Poisson load;
:mod:`~repro.serving.bench` is the harness behind
``python -m repro serve-bench``.
"""

from .bench import (
    ServeBenchConfig,
    ServeBenchReport,
    ShardedBenchConfig,
    ShardedBenchReport,
    make_bench_model,
    run_serve_bench,
    run_sharded_bench,
)
from .cluster import ShardedInferenceServer, WorkerCrashed
from .frontend import OVERLOAD_POLICIES, ServerClosed, ServerOverloaded, ServerStats
from .loadgen import (
    ArrivalTrace,
    LoadResult,
    OpenLoopResult,
    Workload,
    make_poisson_trace,
    make_workload,
    run_closed_loop,
    run_open_loop,
    serial_reference,
)
from .server import InferenceServer

__all__ = [
    "InferenceServer",
    "ServerClosed",
    "ServerOverloaded",
    "ServerStats",
    "ShardedInferenceServer",
    "WorkerCrashed",
    "OVERLOAD_POLICIES",
    "LoadResult",
    "Workload",
    "ArrivalTrace",
    "OpenLoopResult",
    "make_workload",
    "make_poisson_trace",
    "run_closed_loop",
    "run_open_loop",
    "serial_reference",
    "ServeBenchConfig",
    "ServeBenchReport",
    "ShardedBenchConfig",
    "ShardedBenchReport",
    "make_bench_model",
    "run_serve_bench",
    "run_sharded_bench",
]
