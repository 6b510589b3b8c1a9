"""Process-sharded inference serving with shared-memory tensor transport.

:class:`ShardedInferenceServer` is the multi-core sibling of the
thread-based :class:`~repro.serving.server.InferenceServer`: a pool of
**spawned worker processes** (PR 2's spawn discipline, via
:mod:`repro.experiments.spawn`), each hosting its own
:class:`~repro.nn.inference.Predictor` — or
:class:`~repro.nn.inference.CompiledPredictor` — replica of one model,
so GEMM-bound requests run on separate interpreters instead of
contending for one GIL.

**Transport.**  Request and response arrays never cross a pipe: the
router writes each request into a :class:`~repro.comms.shm.ShmRing`
slot and sends only a tiny descriptor ``(request id, slot, shape,
degraded)`` over the worker's task queue; the worker copies the array
out of shared memory, predicts, writes the response into the same
slot *after* the request payload, and answers with another descriptor.
Slots are sized and counted so "a request was admitted" and "a slot is
free" are the same event.

**Shape-affine routing.**  The first request of a given (C, H, W)
shape pins that shape to a replica group of ``replicas_per_shape``
workers (chosen least-loaded); later requests of the same shape stay
inside the group, each to its least-outstanding member.  Compiled
execution plans are per-shape, so affinity keeps a shape's traffic on
workers that have already paid that shape's trace cost instead of
re-tracing it on all ``procs`` workers.

**Admission control** is the shared front end's
(:mod:`~repro.serving.frontend`), bounding requests in flight.  Beyond
``"block"`` and ``"reject"``, ``overload="degrade"`` serves new
requests through a cheaper fallback predictor (eager, coarser tiling —
no plan builds, less halo overlap) once ``degrade_at`` requests are in
flight, then rejects at the full ``queue_depth``.  Under open-loop
overload the server therefore sheds or cheapens load with a bounded p99
instead of letting the queue collapse.  Degraded service keeps bit-identity for any request that
fits one tile (the batched path does not depend on tile size); only
larger-than-tile requests may differ from the serial reference by
float reassociation on BLAS backends.

**Crash recovery.**  A collector thread watches worker liveness.  When
a worker dies, its task queue is abandoned (never drained by the
replacement, so stale descriptors cannot be served twice), a fresh
worker is spawned at the same rank — inheriting the rank's shape
affinity — and every accepted-but-unresolved request assigned to the
dead worker is re-dispatched under a **fresh request id**.  Responses
carrying a retired id are ignored, and a slot is released exactly once
by the response matching the id currently in flight; because the
request payload in the slot outlives the crash (responses are written
after it), the retry computes on byte-identical input and no accepted
request is ever dropped.

Every served output is produced by the same ``Predictor.predict`` call
a serial reference would make, on the exact request bytes the client
submitted (float64 all the way through shared memory), so sharded
serving is bit-identical to serial inference — the tests pin this for
mixed-shape 100-request concurrent runs, including across an injected
worker crash.
"""

from __future__ import annotations

import itertools
import os
import queue as queue_module
import threading
import time
from collections.abc import Callable, Mapping
from concurrent.futures import Future
from typing import Any

import numpy as np

from ..comms.shm import RingClient, ShmRing
from ..nn.inference import DEFAULT_TILE, Predictor
from ..nn.module import Module
from .frontend import ServerClosed, _FrontEnd

__all__ = ["ShardedInferenceServer", "WorkerCrashed"]

_JOIN_TIMEOUT_S = 10.0
_COLLECT_TICK_S = 0.05


class WorkerCrashed(RuntimeError):
    """Raised to a client whose request ran out of crash-retry budget."""


class _Pending:
    __slots__ = ("request_id", "slot", "shape", "future", "enqueued_at",
                 "rank", "degraded", "retries_left")

    def __init__(self, request_id: int, slot: int, shape: tuple[int, ...],
                 degraded: bool, retries_left: int) -> None:
        self.request_id = request_id
        self.slot = slot
        self.shape = shape
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()
        self.rank = -1
        self.degraded = degraded
        self.retries_left = retries_left


class _Worker:
    __slots__ = ("rank", "process", "task_queue")

    def __init__(self, rank, process, task_queue) -> None:
        self.rank = rank
        self.process = process
        self.task_queue = task_queue


def _worker_main(
    rank: int,
    ring_name: str,
    slots: int,
    slot_bytes: int,
    factory: Callable[[], Module],
    state: Mapping[str, np.ndarray] | None,
    options: dict[str, Any],
    task_queue,
    response_queue,
) -> None:
    """Entry point of one spawned shard worker.

    Builds its own model replica (factory + optional broadcast
    state_dict — the one startup pickle; request tensors themselves
    only ever travel through shared memory), then serves descriptors
    until the ``None`` sentinel.  A ``("crash",)`` descriptor is the
    fault-injection hook: the worker dies via ``os._exit`` at a point
    where it holds no queue locks, which is what a segfault mid-GEMM
    looks like to the router.
    """
    client = RingClient(ring_name, slots, slot_bytes)
    model = factory()
    if state is not None:
        model.load_state_dict(dict(state))
    model.eval()
    base = Predictor(
        model,
        batch_size=options["batch_size"],
        tile=options["tile"],
        backend=options["backend"],
        tuned=options.get("tuned", False),
    )
    predictor = base.compile() if options["compiled"] else base
    # The degraded fallback stays untuned by design: it exists to shed
    # load cheaply and predictably, not to consult caches.
    degraded = Predictor(
        model,
        batch_size=options["batch_size"],
        tile=options["degraded_tile"],
        backend=options["backend"],
        tuned=False,
    )
    while True:
        item = task_queue.get()
        if item is None:
            break
        if item[0] == "crash":
            # Flush first: dying while the feeder thread holds the write
            # lock all workers share would wedge every other worker.
            response_queue.close()
            response_queue.join_thread()
            os._exit(17)
        _, request_id, slot, shape, serve_degraded = item
        try:
            request = client.get_array(slot, 0, shape)
            served_by = degraded if serve_degraded else predictor
            output = served_by.predict(request[None])[0]
            offset = client.response_offset(shape)
            if offset + output.nbytes > slot_bytes:
                raise ValueError(
                    f"response of {output.nbytes} bytes does not fit slot "
                    f"({slot_bytes} bytes, request {offset} bytes); raise slot_bytes"
                )
            client.put_array(slot, offset, output)
            response_queue.put(("ok", rank, request_id, slot, output.shape, None))
        except Exception as exc:  # worker faults become data, never hangs
            response_queue.put(
                ("err", rank, request_id, slot, None, f"{type(exc).__name__}: {exc}")
            )
    client.close()


class ShardedInferenceServer(_FrontEnd):
    """Multi-process sharded inference with shared-memory transport.

    Args:
        model_factory: Picklable zero-argument callable building the
            model in each worker (e.g. ``functools.partial(
            make_bench_model, seed)``).  Every worker must build the
            *same* weights for replicas to be interchangeable; pass
            ``state_dict`` to broadcast trained weights when the
            factory alone does not pin them.
        state_dict: Optional weights loaded into each worker's model
            after construction (pickled once at startup).
        procs: Worker process count (the shard count).
        replicas_per_shape: Size of the replica group a request shape
            is pinned to; larger groups trade plan-cache locality for
            load spreading.
        queue_depth: Maximum in-flight (admitted, unresolved) requests
            — also the shared-memory slot count.
        slot_bytes: Capacity of one transport slot; must hold one
            request plus its response (float64).
        overload: ``"block"`` / ``"reject"`` / ``"degrade"`` — see the
            module docstring.
        degrade_at: In-flight level where ``"degrade"`` starts serving
            through the fallback predictor (default ``queue_depth//2``).
        max_retries: Crash re-dispatch budget per request.
        batch_size / tile / backend / compiled: Forwarded to each
            worker's :class:`~repro.nn.inference.Predictor`.  ``backend``
            must be a spec string (backends carry thread pools and
            locks, which do not pickle).
        degraded_tile: Tile size of the degraded-mode predictor
            (default: twice the normal tile — coarser tiling, less halo
            recompute, and always eager).
        slo_ms: Latency objective used for the attainment statistic.
        tuned: Worker Predictors consult the :mod:`repro.tune` cache per
            request shape (spawned workers inherit ``REPRO_TUNING_DIR``
            through the environment); the degraded fallback stays
            untuned.  Cache misses serve the configured defaults; bytes
            are identical either way.  When omitted, follows the
            ``REPRO_TUNED`` environment flag at construction.

    The server starts serving on construction and is a context
    manager; leaving the ``with`` block drains in-flight requests,
    stops the workers and unlinks the shared-memory segment.
    """

    def __init__(
        self,
        model_factory: Callable[[], Module],
        *,
        state_dict: Mapping[str, np.ndarray] | None = None,
        procs: int = 2,
        replicas_per_shape: int = 1,
        queue_depth: int = 32,
        slot_bytes: int = 1 << 20,
        overload: str = "block",
        degrade_at: int | None = None,
        max_retries: int = 2,
        batch_size: int = 8,
        tile: int | None = None,
        backend: str | None = None,
        compiled: bool = False,
        degraded_tile: int | None = None,
        slo_ms: float = 100.0,
        tuned: bool | None = None,
    ) -> None:
        if procs <= 0:
            raise ValueError("procs must be positive")
        if replicas_per_shape <= 0:
            raise ValueError("replicas_per_shape must be positive")
        if backend is not None and not isinstance(backend, str):
            raise ValueError(
                "cluster workers take a backend spec string (e.g. 'threaded:2'); "
                "Backend instances hold thread pools and do not cross processes"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        super().__init__(queue_depth=queue_depth, overload=overload, slo_ms=slo_ms, tuned=tuned)
        # Deferred import: repro.experiments is heavier than the serving
        # stack; only cluster construction pays for it.
        from ..experiments.spawn import spawn_context

        self.procs = procs
        self.replicas_per_shape = min(replicas_per_shape, procs)
        self.degrade_at = degrade_at if degrade_at is not None else max(1, queue_depth // 2)
        self.max_retries = max_retries
        self._worker_options = {
            "batch_size": batch_size,
            "tile": tile,
            "backend": backend,
            "compiled": compiled,
            "tuned": self.tuned,
            "degraded_tile": (
                degraded_tile
                if degraded_tile is not None
                else 2 * (tile if tile is not None else DEFAULT_TILE)
            ),
        }
        self._factory = model_factory
        self._state = dict(state_dict) if state_dict is not None else None
        self._ring = ShmRing(slots=queue_depth, slot_bytes=slot_bytes)
        self._context = spawn_context()
        self._responses = self._context.Queue()
        self._drained = threading.Condition(self._lock)
        self._ids = itertools.count()
        self._inflight: dict[int, _Pending] = {}
        self._outstanding = [0] * procs
        self._shapes_pinned = [0] * procs
        self._affinity: dict[tuple[int, ...], list[int]] = {}
        self._stopping = False
        self._closed = False
        self._workers = [self._spawn_worker(rank) for rank in range(procs)]
        self._collector = threading.Thread(
            target=self._collector_loop, name="repro-cluster-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # front-end hooks
    # ------------------------------------------------------------------
    def _validate(self, image: np.ndarray) -> None:
        if 2 * image.nbytes > self._ring.slot_bytes:
            raise ValueError(
                f"request of {image.nbytes} bytes cannot share a "
                f"{self._ring.slot_bytes}-byte slot with its response; raise slot_bytes"
            )

    def _occupancy_locked(self) -> int:
        return len(self._inflight)

    def _enqueue_locked(self, image: np.ndarray, occupancy: int) -> Future:
        degraded = self.overload == "degrade" and occupancy >= self.degrade_at
        if degraded:
            self._stats.count("degraded")
        slot = self._ring.acquire(timeout=0.0)
        # Admission == slot availability by construction (slots ==
        # queue_depth == max in-flight), so this cannot be None.
        assert slot is not None
        pending = _Pending(
            request_id=next(self._ids),
            slot=slot,
            shape=image.shape,
            degraded=degraded,
            retries_left=self.max_retries,
        )
        self._inflight[pending.request_id] = pending
        # Payload before descriptor, descriptor under the lock: dispatch
        # must be atomic with routing so the crash handler (also under
        # the lock) sees every descriptor it may need to re-dispatch,
        # and stale queues are never fed.
        self._ring.put_array(slot, 0, image)
        self._dispatch_locked(pending)
        return pending.future

    def workers_alive(self) -> int:
        """Live worker processes (respawns keep this at ``procs``)."""
        with self._lock:
            return sum(1 for worker in self._workers if worker.process.is_alive())

    def inject_worker_crash(self, rank: int = 0) -> None:
        """Fault injection: make worker ``rank`` die at its next dequeue.

        The crash descriptor queues behind any work already dispatched
        to that worker, which is exactly the hard case recovery must
        handle: accepted requests queued behind (or running on) the
        dying worker get re-dispatched, never dropped.
        """
        with self._lock:
            if self._stopping:
                raise ServerClosed("server is shutting down")
            self._workers[rank].task_queue.put(("crash",))

    # ------------------------------------------------------------------
    # routing (callers hold self._lock)
    # ------------------------------------------------------------------
    def _route_locked(self, shape: tuple[int, ...]) -> int:
        """Shape-affine routing: pin a shape to a replica group once,
        then pick the group's least-outstanding live member."""
        group = self._affinity.get(shape)
        if group is None:
            by_load = sorted(
                range(self.procs),
                key=lambda rank: (self._shapes_pinned[rank], self._outstanding[rank], rank),
            )
            group = by_load[: self.replicas_per_shape]
            self._affinity[shape] = group
            for rank in group:
                self._shapes_pinned[rank] += 1
        live = [rank for rank in group if self._workers[rank].process.is_alive()]
        candidates = live or group  # a dead rank respawns at the same rank
        return min(candidates, key=lambda rank: (self._outstanding[rank], rank))

    def _dispatch_locked(self, pending: _Pending) -> None:
        rank = self._route_locked(pending.shape)
        pending.rank = rank
        self._outstanding[rank] += 1
        self._workers[rank].task_queue.put(
            ("req", pending.request_id, pending.slot, pending.shape, pending.degraded)
        )

    def _spawn_worker(self, rank: int) -> _Worker:
        task_queue = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(
                rank,
                self._ring.name,
                self._ring.slots,
                self._ring.slot_bytes,
                self._factory,
                self._state,
                self._worker_options,
                task_queue,
                self._responses,
            ),
            name=f"repro-shard-{rank}",
            daemon=True,
        )
        process.start()
        return _Worker(rank, process, task_queue)

    # ------------------------------------------------------------------
    # collector side
    # ------------------------------------------------------------------
    def _collector_loop(self) -> None:
        while True:
            try:
                item = self._responses.get(timeout=_COLLECT_TICK_S)
            except queue_module.Empty:
                item = None
            except (OSError, ValueError):  # queue torn down during close
                return
            if item is not None:
                self._handle_response(item)
                continue  # drain responses before liveness checks
            if self._stopping:
                return
            self._recover_dead_workers()

    def _handle_response(self, item: tuple) -> None:
        kind, rank, request_id, slot, out_shape, error = item
        with self._lock:
            pending = self._inflight.get(request_id)
            if pending is None:
                # Retired id: a crash-retry superseded this dispatch, or
                # the request was failed at abort.  The live retry's
                # response (same request bytes, same output bytes) is
                # the one that resolves and frees the slot.
                return
            if kind == "ok":
                offset = self._ring.response_offset(pending.shape)
                output = self._ring.get_array(slot, offset, out_shape)
            del self._inflight[request_id]
            self._outstanding[rank] = max(0, self._outstanding[rank] - 1)
            self._ring.release(slot)
            self._space.notify_all()
            if not self._inflight:
                self._drained.notify_all()
        if kind == "ok":
            self._settle(pending, output)
        else:
            self._settle(pending, error=RuntimeError(f"shard worker {rank}: {error}"))

    def _recover_dead_workers(self) -> None:
        crashed: list[_Pending] = []
        with self._lock:
            if self._stopping or self._closed:
                return
            for rank in range(self.procs):
                worker = self._workers[rank]
                if worker.process.is_alive() or worker.process.exitcode is None:
                    continue
                # Dead.  Abandon its queue (stale descriptors must never
                # be served twice), respawn at the same rank so shape
                # affinity keeps pointing somewhere live, re-dispatch
                # its accepted work under fresh ids.
                worker.task_queue.close()
                worker.task_queue.cancel_join_thread()
                self._stats.count("respawns")
                self._workers[rank] = self._spawn_worker(rank)
                self._outstanding[rank] = 0
                victims = [p for p in self._inflight.values() if p.rank == rank]
                for pending in victims:
                    del self._inflight[pending.request_id]
                    if pending.retries_left <= 0:
                        self._ring.release(pending.slot)
                        self._space.notify_all()
                        crashed.append(pending)
                        continue
                    pending.retries_left -= 1
                    pending.request_id = next(self._ids)
                    self._inflight[pending.request_id] = pending
                    self._stats.count("retried")
                    self._dispatch_locked(pending)
                if not self._inflight:
                    self._drained.notify_all()
        for pending in crashed:
            self._settle(
                pending,
                error=WorkerCrashed(
                    f"worker crashed {self.max_retries + 1} times serving this request"
                ),
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work, stop the workers, unlink shared memory.

        Args:
            drain: Resolve in-flight requests first (default); when
                False, fail them with :class:`ServerClosed`.
            timeout: Bound on the drain wait (then per-worker joins are
                separately bounded); ``None`` waits for the drain.
        """
        aborted: list[_Pending] = []
        with self._lock:
            if self._closed:
                return
            self._closing = True
            self._space.notify_all()
            if drain:
                self._drained.wait_for(lambda: not self._inflight, timeout=timeout)
            else:
                aborted = list(self._inflight.values())
                self._inflight.clear()
                for pending in aborted:
                    self._ring.release(pending.slot)
                self._drained.notify_all()
            self._stopping = True
            workers = list(self._workers)
        for pending in aborted:
            self._settle(pending, error=ServerClosed("server closed"))
        for worker in workers:
            try:
                worker.task_queue.put(None)
            except (OSError, ValueError):  # already torn down with its worker
                pass
        for worker in workers:
            worker.process.join(_JOIN_TIMEOUT_S)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(_JOIN_TIMEOUT_S)
        self._collector.join(_JOIN_TIMEOUT_S + 1.0)
        for worker in workers:
            worker.task_queue.close()
            worker.task_queue.cancel_join_thread()
        self._responses.close()
        self._responses.cancel_join_thread()
        self._ring.destroy()
        with self._lock:
            self._closed = True
