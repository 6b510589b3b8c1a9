"""The benchmark's own load generator for the serving workloads.

One process, one dispatcher thread.  Phase 1 replays a seeded open-loop
Poisson schedule at a fixed rate: each request is submitted at its due
time without waiting for earlier ones to complete, and timed from its
*due* time, so a stalled dispatcher or server shows up as latency.  When
the admission queue is full the dispatcher waits for space, for at most
``ADMIT_TIMEOUT_S``; only a request still not admitted then is refused.
Shedding at the first full queue would turn every brief stall of a
shared host into failed requests, a count that then differs from run to
run; waiting keeps the stall in the latencies (and in the generator's
lateness) instead.  Refused and failed requests count as misses of any
latency limit.  Phase 2 measures capacity: the dispatcher submits with
an unbounded blocking ``submit`` and so keeps the admission queue full.

Each response is checked against its reference as it completes and then
dropped, so memory does not grow with the number of requests served.
Only the servers' public ``submit`` and the returned futures are used;
the generator deliberately shares no code with ``repro.serving``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Callable

import numpy as np

#: Request edges carrying 90% of the traffic, and the 10% tail.
HOT_SIZES = (24, 32, 48)
TAIL_SIZES = (16, 20, 28, 40, 56)
HOT_SHARE = 0.9

#: Longest wait for admission in the open-loop phase before a request
#: is refused; far above any stall of a working server.
ADMIT_TIMEOUT_S = 5.0

#: Per-request outcome codes of :attr:`PhaseResult.status`.
PENDING, OK, MISMATCH, FAILED, REFUSED = range(5)


@dataclasses.dataclass
class Schedule:
    """A seeded request trace: due offsets (s) and pool image indices."""

    due: np.ndarray
    image: np.ndarray


def make_schedule(
    rng: np.random.Generator, sizes: list[int], pool: int, rate: float | None, count: int
) -> Schedule:
    """``count`` requests over the hot/tail size mix.

    ``sizes`` orders the pool by edge, ``pool`` images per edge; with a
    ``rate`` the due offsets are a Poisson process, otherwise all zero
    (send as fast as admission allows).
    """
    hot = rng.random(count) < HOT_SHARE
    edge = np.where(
        hot,
        rng.choice(np.array(HOT_SIZES), size=count),
        rng.choice(np.array(TAIL_SIZES), size=count),
    )
    index = np.array([sizes.index(int(e)) for e in edge]) * pool + rng.integers(0, pool, count)
    if rate is None:
        due = np.zeros(count)
    else:
        due = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return Schedule(due=due, image=index)


class PhaseResult:
    """What one phase observed, request by request (NaN = no completion).

    ``check(image_index, output) -> bool`` decides whether a response is
    correct; it runs in the thread that completes the request.
    """

    def __init__(self, schedule: Schedule, check: Callable[[int, np.ndarray], bool]) -> None:
        count = len(schedule.image)
        self.image = schedule.image
        self.check = check
        self.sent_at = np.zeros(count)  # perf_counter when submit was called
        self.admit_s = np.zeros(count)  # submit call duration
        self.due_at = np.zeros(count)
        self.done_at = np.full(count, np.nan)
        self.done_thread = np.zeros(count, dtype=np.uint64)  # thread that completed it
        self.pixels = np.zeros(count, dtype=np.int64)  # output pixels
        self.status = np.full(count, PENDING, dtype=np.int8)
        self.pending: dict[int, object] = {}
        self.count = 0  # requests attempted so far
        self.started = self.ended = 0.0

    def submit(self, server, image: np.ndarray, timeout: float | None) -> None:
        index = self.count
        self.count += 1
        sent = time.perf_counter()
        try:
            future = server.submit(image, timeout=timeout)
        except RuntimeError:  # ServerOverloaded: no admission in time
            self.status[index] = REFUSED
            future = None
        self.admit_s[index] = time.perf_counter() - sent
        self.sent_at[index] = sent
        if future is not None:
            self.pending[index] = future
            future.add_done_callback(lambda f, index=index: self._done(index, f))

    def _done(self, index: int, future) -> None:
        self.done_at[index] = time.perf_counter()
        self.done_thread[index] = threading.get_ident()
        if future.cancelled() or future.exception() is not None:
            self.status[index] = FAILED
        else:
            output = future.result()
            self.pixels[index] = output.shape[-1] * output.shape[-2]
            self.status[index] = OK if self.check(int(self.image[index]), output) else MISMATCH
        self.pending.pop(index, None)

    def trim(self) -> None:
        """Drop the unused tail of the preallocated arrays."""
        n = self.count
        for name in (
            "image", "sent_at", "admit_s", "due_at", "done_at", "done_thread", "pixels", "status"
        ):
            setattr(self, name, getattr(self, name)[:n])

    def wait(self, timeout: float = 120.0) -> None:
        """Wait until every admitted request has resolved and been checked."""
        deadline = time.perf_counter() + timeout
        while self.pending and time.perf_counter() < deadline:
            time.sleep(0.001)
        if self.pending:
            raise RuntimeError(f"{len(self.pending)} requests unresolved after {timeout:.0f}s")

    def tally(self, code: int) -> int:
        return int(np.count_nonzero(self.status == code))


def run_open_loop(server, images: list, schedule: Schedule, check) -> PhaseResult:
    """Submit each request at its due time; a full queue delays the
    dispatcher by at most ``ADMIT_TIMEOUT_S`` per request."""
    result = PhaseResult(schedule, check)
    result.started = time.perf_counter()
    result.due_at = result.started + schedule.due
    for i in range(len(schedule.due)):
        delay = result.due_at[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        result.submit(server, images[schedule.image[i]], timeout=ADMIT_TIMEOUT_S)
    result.ended = time.perf_counter()
    result.wait()
    return result


def run_saturated(server, images: list, schedule: Schedule, check, seconds: float) -> PhaseResult:
    """Keep the admission queue full for ``seconds`` with blocking submits."""
    result = PhaseResult(schedule, check)
    result.started = time.perf_counter()
    deadline = result.started + seconds
    while time.perf_counter() < deadline:
        if result.count == len(schedule.image):
            raise RuntimeError("saturation schedule ran out of requests; raise its length")
        result.submit(server, images[schedule.image[result.count]], timeout=None)
    result.ended = time.perf_counter()
    result.due_at = result.sent_at
    result.wait()
    result.trim()
    return result


def latencies_ms(result: PhaseResult, miss_ms: float) -> np.ndarray:
    """Per-request latency from the due time; misses read ``miss_ms``.

    A request misses when it was refused, failed or answered wrongly.
    """
    out = np.full(result.count, miss_ms)
    ok = result.status == OK
    out[ok] = (result.done_at[ok] - result.due_at[ok]) * 1e3
    return out
