"""In-process concurrent inference service with dynamic micro-batching.

:class:`InferenceServer` sits between many client threads and a pool of
:class:`~repro.nn.inference.Predictor` workers.  Clients submit single
images through the shared :mod:`~repro.serving.frontend` and get a
future back; a bounded queue applies backpressure (``overload``: block
or reject); workers coalesce queued requests into dense micro-batches —
flushing when ``max_batch`` requests of one shape are ready or when the
oldest has waited ``max_wait_ms`` — and run them through a per-worker
Predictor sharing one model.

Heterogeneous request sizes are handled by *shape bucketing*: a worker
batches only requests whose (C, H, W) match, so every micro-batch stays
one dense array; mixed-shape traffic simply forms per-shape batches.

Because batching work along the batch axis runs the very same per-slice
GEMMs (see :mod:`repro.nn.inference`), a served result is bit-identical
to calling the Predictor serially on that request alone — micro-batching
changes throughput, never bits.  The tests pin this under 100+
concurrent clients.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from ..nn.backend import Backend
from ..nn.inference import Predictor, TilingPlan
from ..nn.module import Module
from .frontend import ServerClosed, _FrontEnd

__all__ = ["InferenceServer"]


class _Request:
    __slots__ = ("image", "shape", "future", "enqueued_at")

    def __init__(self, image: np.ndarray) -> None:
        self.image = image
        self.shape = image.shape
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()


class InferenceServer(_FrontEnd):
    """Concurrent single-image inference with dynamic micro-batching.

    Args:
        model: Trained model; switched to eval mode once, up front, so
            worker threads share read-only weights (and lock-protected
            eval weight caches).
        workers: Worker threads, each with its own cheap Predictor clone.
        max_batch: Micro-batch flush threshold (and the per-worker
            Predictor's forward batch size).
        max_wait_ms: How long a worker holds an under-full batch open for
            same-shape stragglers before flushing.  0 flushes immediately
            (pure per-request dispatch).
        queue_depth: Bound on queued (not yet batched) requests — the
            backpressure knob.
        overload: What a submit against a full queue does: ``"block"``
            (default) waits for room, ``"reject"`` raises
            :class:`~repro.serving.frontend.ServerOverloaded` at once.
            ``"degrade"`` is the sharded server's; it needs a fallback
            predictor this server does not have.
        backend: Kernel backend (instance or spec string) pinned to every
            worker's forwards, via the Predictor.
        plan / tile / batch_size: Forwarded to the prototype
            :class:`~repro.nn.inference.Predictor`.
        slo_ms: Latency objective used for the ``slo_attainment``
            statistic (reporting only; never changes scheduling).
        compiled: Serve through :meth:`Predictor.compile` — workers share
            one execution-plan cache (plans build once per request shape
            under the compile lock, then replay lock-free).  Replay is
            bit-identical to eager, so this changes latency, never bytes.
        tuned: Consult the :mod:`repro.tune` cache per shape bucket —
            worker Predictors serve through the cached winning schedule,
            and the micro-batch *flush threshold* follows the winner's
            tuned batch size per shape (so batches flush exactly at the
            size the tuned forward wants).  Cache misses fall back to
            ``max_batch`` and the untuned configuration; served bytes
            are identical either way.  When omitted, follows the
            ``REPRO_TUNED`` environment flag.

    The server starts serving on construction and is a context manager;
    leaving the ``with`` block drains the queue and joins the workers.
    """

    def __init__(
        self,
        model: Module,
        *,
        workers: int = 2,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        queue_depth: int = 64,
        overload: str = "block",
        backend: Backend | str | None = None,
        plan: TilingPlan | None = None,
        tile: int | None = None,
        compiled: bool = False,
        slo_ms: float = 100.0,
        tuned: bool | None = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if overload == "degrade":
            raise ValueError(
                "overload='degrade' needs a fallback predictor; "
                "InferenceServer takes 'block' or 'reject'"
            )
        super().__init__(queue_depth=queue_depth, overload=overload, slo_ms=slo_ms, tuned=tuned)
        model.eval()  # once, before any worker runs: no eval/forward race
        prototype = Predictor(
            model, batch_size=max_batch, plan=plan, tile=tile, backend=backend, tuned=self.tuned
        )
        if compiled:
            # Clones of a CompiledPredictor share its plan cache, so the
            # trace cost is paid once per shape across all workers.
            prototype = prototype.compile()
        self.compiled = compiled
        self._model = model
        # Per-shape tuned flush thresholds (resolved lazily, under the
        # server lock, once per shape).  Keyed like the Predictor's
        # delegate cache: the shape bucket plus the configured max_batch.
        self._flush_thresholds: dict[tuple[int, ...], int] = {}
        self.max_batch = max_batch
        self.max_wait_s = max_wait_ms / 1e3
        self._has_work = threading.Condition(self._lock)
        self._pending: deque[_Request] = deque()
        self._waiting_idle = 0  # workers blocked waiting for any request
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(prototype.clone() if i else prototype,),
                name=f"repro-serving-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(cls, path, **kwargs) -> "InferenceServer":
        """Serve a trained checkpoint directly (see
        :meth:`Predictor.from_checkpoint` for the spec requirements);
        ``kwargs`` are the regular constructor options."""
        from ..train.checkpoint import Checkpoint

        return cls(Checkpoint.load(path).build_model(), **kwargs)

    # ------------------------------------------------------------------
    # front-end hooks (caller holds self._lock)
    # ------------------------------------------------------------------
    def _occupancy_locked(self) -> int:
        return len(self._pending)

    def _enqueue_locked(self, image: np.ndarray, occupancy: int) -> Future:
        request = _Request(image)
        self._pending.append(request)
        # notify_all, not notify: a worker holding an under-full batch
        # open for stragglers also waits on this condition, and a single
        # notify could land on it for a request of another shape —
        # leaving an idle worker asleep until some deadline.
        self._has_work.notify_all()
        return request.future

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work and join the workers.

        Args:
            drain: Serve the queued requests first (default); when False,
                fail them with :class:`~repro.serving.frontend.ServerClosed`
                instead.
            timeout: Per-worker join timeout.
        """
        with self._lock:
            self._closing = True
            aborted = [] if drain else list(self._pending)
            if not drain:
                self._pending.clear()
            self._has_work.notify_all()
            self._space.notify_all()
        for request in aborted:
            self._settle(request, error=ServerClosed("server closed"))
        for thread in self._workers:
            thread.join(timeout)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _flush_threshold(self, shape: tuple[int, ...]) -> int:
        """The micro-batch flush size for one shape bucket.

        ``max_batch`` untuned; with ``tuned=True`` the cached winner's
        batch size for this shape (clamped to ``max_batch`` — the queue
        contract is that no batch ever exceeds it).  Resolved once per
        shape; called with the server lock held, so the one-time cache
        read happens at most once per shape per server.
        """
        if not self.tuned:
            return self.max_batch
        threshold = self._flush_thresholds.get(shape)
        if threshold is None:
            from ..tune import lookup

            entry = lookup(self._model, shape, self.max_batch)
            threshold = (
                min(entry.winner.batch_size, self.max_batch)
                if entry is not None
                else self.max_batch
            )
            self._flush_thresholds[shape] = threshold
        return threshold

    def _take_batch(self) -> list[_Request] | None:
        """Claim the next shape-bucketed micro-batch (None: shut down).

        Called without the lock held.  Takes the oldest request, gathers
        queued requests of the same shape, and — if still under-full —
        waits out the oldest request's ``max_wait_ms`` budget for
        same-shape stragglers.  Other shapes stay queued for idle
        workers; when no worker is idle, the under-full batch flushes
        immediately instead, so one straggling bucket never blocks
        other-shape traffic for the wait budget.
        """
        with self._lock:
            while not self._pending:
                if self._closing:
                    return None
                self._waiting_idle += 1
                try:
                    self._has_work.wait()
                finally:
                    self._waiting_idle -= 1
            batch = [self._pending.popleft()]
            shape = batch[0].shape
            flush_at = self._flush_threshold(shape)
            deadline = batch[0].enqueued_at + self.max_wait_s
            while True:
                index = 0
                while len(batch) < flush_at and index < len(self._pending):
                    if self._pending[index].shape == shape:
                        batch.append(self._pending[index])
                        del self._pending[index]
                    else:
                        index += 1
                self._space.notify_all()
                if len(batch) >= flush_at or self._closing:
                    break
                if self._pending and self._waiting_idle == 0:
                    # Whatever is still queued is another shape (all
                    # same-shape requests were just scooped) and every
                    # other worker is busy — holding this batch open for
                    # stragglers would leave those requests unservable
                    # for up to max_wait_ms.  Flush under-full instead.
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                # Wakes on new arrivals; re-scan for same-shape requests.
                self._has_work.wait(remaining)
            return batch

    def _worker_loop(self, predictor: Predictor) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            # Transition every claimed future to RUNNING; a client may
            # have cancelled while its request was queued, in which case
            # this returns False and the request is dropped here — a
            # later set_result on it would raise InvalidStateError and
            # kill the worker, hanging the rest of the batch.
            batch = [
                request
                for request in batch
                if request.future.set_running_or_notify_cancel()
            ]
            if not batch:
                continue
            started = time.perf_counter()
            error: BaseException | None = None
            try:
                outputs = predictor.predict(
                    np.stack([request.image for request in batch])
                )
            except BaseException as exc:  # propagate to the waiting clients
                error = exc
            finished = time.perf_counter()
            self._stats.record(
                [finished - request.enqueued_at for request in batch],
                failed=error is not None,
                batch_s=finished - started,
            )
            for position, request in enumerate(batch):
                if error is not None:
                    request.future.set_exception(error)
                else:
                    # Copy: outputs[position] is a view into the stacked
                    # batch result, and handing it out would let one
                    # retained response pin all its batchmates' memory.
                    request.future.set_result(outputs[position].copy())
