"""The client-facing half both servers share.

:class:`~repro.serving.server.InferenceServer` (worker threads with
shape-bucketed micro-batching) and
:class:`~repro.serving.cluster.ShardedInferenceServer` (spawned worker
processes over shared memory) differ only in how they execute an
admitted request.  Everything a client touches lives here, once: input
normalisation and the ``(C, H, W)`` check, admission under the
``overload`` policy, ``predict`` / ``pending`` / ``stats`` and the
context manager, and the one :class:`ServerStats` schema with its
accounting rule:

* a served request counts in ``requests`` and adds a latency sample;
* a failed request (model error, crash-retry budget spent, aborted by
  ``close(drain=False)``) counts in ``requests`` and ``failed``, stays
  out of the latency percentiles and is an SLO miss;
* a request its client cancelled before service is not counted;
* a submit refused by admission counts in ``rejected`` only.

Each executor says what ``queue_depth`` bounds (``_occupancy_locked``):
queued requests on the thread server, in-flight ones on the cluster.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np

__all__ = [
    "OVERLOAD_POLICIES",
    "ServerClosed",
    "ServerOverloaded",
    "ServerStats",
    "latency_summary",
]

#: Admission policies for a full server: wait for room, refuse, or —
#: on the cluster, which has a cheaper fallback predictor — degrade.
OVERLOAD_POLICIES = ("block", "reject", "degrade")


class ServerClosed(RuntimeError):
    """Raised by submissions to (and pending work cancelled by) a closed server."""


class ServerOverloaded(RuntimeError):
    """Raised when a full server refuses a submission."""


@dataclasses.dataclass(frozen=True)
class ServerStats:
    """Aggregate snapshot of either server's request accounting.

    Latency percentiles cover served requests only; ``slo_attainment``
    counts failed requests as misses.  The batch fields describe the
    thread server's micro-batches (the cluster runs one request per
    forward and leaves them at 0/nan); ``degraded``, ``retried`` and
    ``respawns`` are the cluster's and stay 0 on the thread server.
    """

    requests: int
    batches: int
    rejected: int
    failed: int
    degraded: int
    retried: int
    respawns: int
    mean_batch_size: float
    max_batch_size: int
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    latency_ms_max: float
    slo_ms: float
    slo_attainment: float
    batch_ms_mean: float
    wall_s: float
    throughput_rps: float

    def format(self) -> str:
        """One-line human rendering of the snapshot."""
        return (
            f"{self.requests} requests in {self.batches} batches "
            f"(mean {self.mean_batch_size:.2f}, max {self.max_batch_size}); "
            f"{self.rejected} rejected, {self.failed} failed, {self.degraded} degraded, "
            f"{self.retried} retried, {self.respawns} respawns; "
            f"{self.throughput_rps:.1f} req/s; latency ms "
            f"mean {self.latency_ms_mean:.2f} p50 {self.latency_ms_p50:.2f} "
            f"p95 {self.latency_ms_p95:.2f} p99 {self.latency_ms_p99:.2f} "
            f"max {self.latency_ms_max:.2f}; "
            f"SLO {self.slo_ms:.0f}ms attainment {self.slo_attainment:.3f}"
        )


def latency_summary(samples_ms, slo_ms: float) -> dict[str, float]:
    """The latency fields of the stats schema over ``samples_ms``.

    A NaN sample is a failed request: outside the percentiles, an SLO
    miss.  Every field is NaN when there are no samples.
    """
    samples = np.asarray(samples_ms, dtype=np.float64)
    served = np.sort(samples[~np.isnan(samples)])
    mean, p50, p95, p99, top = (
        (served.mean(), *np.percentile(served, [50, 95, 99]), served[-1])
        if served.size
        else [math.nan] * 5
    )
    return {
        "latency_ms_mean": float(mean),
        "latency_ms_p50": float(p50),
        "latency_ms_p95": float(p95),
        "latency_ms_p99": float(p99),
        "latency_ms_max": float(top),
        "slo_attainment": float((samples <= slo_ms).mean()) if samples.size else math.nan,
    }


class _Accounting:
    """Thread-safe counters and latency window behind ``stats()``.

    Counters are running totals, so a long-lived server's memory stays
    flat.  The latency window holds the newest MAX_SAMPLES finished
    requests (the deque's ``maxlen`` evicts the oldest in O(1)), so
    percentiles track current behaviour; a failed request's sample is
    NaN.
    """

    MAX_SAMPLES = 100_000
    COUNTERS = ("requests", "batches", "rejected", "failed", "degraded", "retried", "respawns")

    def __init__(self, slo_ms: float) -> None:
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self.slo_ms = slo_ms
        self._latencies: deque[float] = deque(maxlen=self.MAX_SAMPLES)
        self._counts = dict.fromkeys(self.COUNTERS, 0)
        self._batched = 0
        self._batch_max = 0
        self._batch_s = 0.0

    def count(self, counter: str) -> None:
        with self._lock:
            self._counts[counter] += 1

    def record(
        self, latencies: list[float], failed: bool = False, batch_s: float | None = None
    ) -> None:
        """Account finished requests; ``batch_s`` marks them as one batch."""
        with self._lock:
            self._counts["requests"] += len(latencies)
            if failed:
                self._counts["failed"] += len(latencies)
                latencies = [math.nan] * len(latencies)
            self._latencies.extend(latencies)
            if batch_s is not None:
                self._counts["batches"] += 1
                self._batched += len(latencies)
                self._batch_max = max(self._batch_max, len(latencies))
                self._batch_s += batch_s

    def snapshot(self) -> ServerStats:
        with self._lock:
            window_ms = np.asarray(self._latencies) * 1e3
            counts = dict(self._counts)
            batched, batch_max, batch_s = self._batched, self._batch_max, self._batch_s
            wall = time.perf_counter() - self._started
        batches = counts["batches"]
        return ServerStats(
            **counts,
            **latency_summary(window_ms, self.slo_ms),
            mean_batch_size=batched / batches if batches else math.nan,
            max_batch_size=batch_max,
            slo_ms=self.slo_ms,
            batch_ms_mean=batch_s / batches * 1e3 if batches else math.nan,
            wall_s=wall,
            throughput_rps=counts["requests"] / wall if wall > 0 else math.nan,
        )


class _FrontEnd:
    """Admission, request lifecycle and accounting shared by both servers."""

    def __init__(
        self, *, queue_depth: int, overload: str, slo_ms: float, tuned: bool | None
    ) -> None:
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if overload not in OVERLOAD_POLICIES:
            raise ValueError(f"overload must be one of {OVERLOAD_POLICIES}, got {overload!r}")
        if tuned is None:
            from ..tune.cache import tuned_enabled

            tuned = tuned_enabled()
        self.queue_depth = queue_depth
        self.overload = overload
        self.tuned = tuned
        self._stats = _Accounting(slo_ms)
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._closing = False

    # ------------------------------------------------------------------
    # executor hooks
    # ------------------------------------------------------------------
    def _validate(self, image: np.ndarray) -> None:
        """Executor-specific request checks, run before admission."""

    def _occupancy_locked(self) -> int:
        """The load ``queue_depth`` bounds (caller holds the lock)."""
        raise NotImplementedError

    def _enqueue_locked(self, image: np.ndarray, occupancy: int) -> Future:
        """Hand one admitted request to the executor; returns its future."""
        raise NotImplementedError

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work and shut the executor down."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, image: np.ndarray, timeout: float | None = None) -> Future:
        """Enqueue one (C, H, W) image; returns a future for its output.

        On a full server, ``overload="block"`` waits for room and raises
        :class:`ServerOverloaded` only if ``timeout`` elapses first;
        ``"reject"`` raises it at once.
        """
        image = np.asarray(getattr(image, "data", image), dtype=np.float64)
        if image.ndim != 3:
            raise ValueError(f"expected one (C, H, W) image, got shape {image.shape}")
        self._validate(image)
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._lock:
            while True:
                if self._closing:
                    raise ServerClosed("server is shutting down")
                occupancy = self._occupancy_locked()
                if occupancy < self.queue_depth:
                    return self._enqueue_locked(image, occupancy)
                remaining = None if deadline is None else deadline - time.perf_counter()
                if self.overload != "block" or (remaining is not None and remaining <= 0):
                    self._stats.count("rejected")
                    raise ServerOverloaded(f"server full (queue_depth={self.queue_depth})")
                self._space.wait(remaining)

    def predict(self, image: np.ndarray, timeout: float | None = None) -> np.ndarray:
        """Blocking convenience: submit one image and wait for its output.

        ``timeout`` bounds the whole call — admission wait *and* serving.
        On expiry the request is cancelled, which sheds it if no worker
        has claimed it (retry loops under overload leave no zombies).
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        future = self.submit(image, timeout=timeout)
        remaining = None if deadline is None else max(0.0, deadline - time.perf_counter())
        try:
            return future.result(remaining)
        except FutureTimeoutError:
            future.cancel()
            raise

    def pending(self) -> int:
        """Requests counted against ``queue_depth`` right now."""
        with self._lock:
            return self._occupancy_locked()

    def stats(self) -> ServerStats:
        """Aggregate latency/throughput/overload snapshot since construction."""
        return self._stats.snapshot()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=True)

    # ------------------------------------------------------------------
    # request lifecycle
    # ------------------------------------------------------------------
    def _settle(self, request, output=None, error: BaseException | None = None) -> None:
        """Resolve one request's future and account it.

        A future its client already cancelled is left alone and not
        counted (``set_running_or_notify_cancel`` returns False, and
        setting a result on it would raise).
        """
        if not request.future.set_running_or_notify_cancel():
            return
        self._stats.record([time.perf_counter() - request.enqueued_at], failed=error is not None)
        if error is None:
            request.future.set_result(output)
        else:
            request.future.set_exception(error)
