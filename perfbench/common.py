"""Models, inputs and measuring helpers shared by the workloads.

Model constructors live at module level so spawned workers can unpickle
``functools.partial(build_denoiser, seed)`` by import path.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import multiprocessing.process
import resource
import time
from collections.abc import Callable

import numpy as np

import repro.nn.inference as inference_module
from repro.imaging.synthetic import random_image
from repro.models.ernet import dn_ernet_pu, sr4_ernet
from repro.models.factory import make_factory
from repro.nn.module import Module

from tracing import Recorder

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Noise level of the denoising inputs (on the [0, 1] scale).
SIGMA = 25 / 255


def _perturbed(model: Module, seed: int) -> Module:
    # ERNet tails are zero-initialised; perturbing every weight makes
    # outputs depend on the whole network.
    rng = np.random.default_rng(seed)
    for param in model.parameters():
        param.data[...] += 0.05 * rng.standard_normal(param.shape)
    return model


def build_denoiser(seed: int) -> Module:
    """DnERNet-PU-B2R2 with (R_I4, f_H), greyscale, perturbed weights."""
    model = dn_ernet_pu(blocks=2, ratio=2, factory=make_factory("ri4+fh"), seed=seed)
    return _perturbed(model, seed)


def build_upscaler(seed: int) -> Module:
    """SR4ERNet-B2R2 with (R_I2, f_H), greyscale, perturbed weights."""
    model = sr4_ernet(blocks=2, ratio=2, factory=make_factory("ri2+fh"), seed=seed)
    return _perturbed(model, seed)


def noisy_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """A (1, size, size) synthetic image with additive Gaussian noise."""
    return (random_image(size, rng) + SIGMA * rng.standard_normal((size, size)))[None]


@dataclasses.dataclass
class Context:
    """What a workload runner gets from the command line."""

    seed: int
    seconds: float
    trace: bool
    plant: bool  # corrupt one output before the check (self-test)
    recorder: Recorder
    cold: "ColdLog"


@dataclasses.dataclass
class Outcome:
    """What a workload runner hands back to ``run.py``."""

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    detail: dict


class ColdLog:
    """Plan builds and process starts, logged in every run.

    Both happen off the hot path, so logging them costs nothing in
    steady state; the log lets set-up verify that warm-up built every
    plan and lets runs assert that timed phases build and spawn nothing.
    """

    def __init__(self) -> None:
        self.builds: list[tuple[float, tuple, float]] = []  # (start, shape, seconds)
        self.spawns: list[float] = []

    def install(self, patches) -> None:
        build_plan = inference_module.build_plan
        start_process = multiprocessing.process.BaseProcess.start
        log = self

        def logged_build(model, arr, *args, **kwargs):
            start = time.perf_counter()
            try:
                return build_plan(model, arr, *args, **kwargs)
            finally:
                log.builds.append((start, tuple(np.shape(arr)), time.perf_counter() - start))

        def logged_start(process):
            log.spawns.append(time.perf_counter())
            return start_process(process)

        patches.replace(inference_module, "build_plan", logged_build)
        patches.replace(multiprocessing.process.BaseProcess, "start", logged_start)

    def builds_between(self, start: float, end: float) -> list[tuple]:
        return [b for b in self.builds if start <= b[0] < end]

    def spawns_between(self, start: float, end: float) -> int:
        return sum(1 for t in self.spawns if start <= t < end)


def repeated_setup(
    build: Callable, close: Callable, reps: int = SETUP_REPS, untimed: list[float] = ()
):
    """Run ``build`` ``reps`` times, closing all but the last result.

    ``build`` may append to ``untimed`` the seconds it spent redoing the
    benchmark's own warm-up steps; they are left out of that set-up's
    time.  Returns (last result, median seconds, start of the last build).
    """
    seconds, result, last_start = [], None, 0.0
    for _ in range(reps):
        if result is not None:
            close(result)
            result = None
            gc.collect()  # free the closed set-up before the next one peaks
        redone = sum(untimed)
        last_start = time.perf_counter()
        result = build()
        seconds.append(time.perf_counter() - last_start - (sum(untimed) - redone))
    # Timed phases then start from a collected heap, with the set-up's
    # long-lived objects out of the collector's way as in a long-running
    # process.
    gc.collect()
    gc.freeze()
    return result, float(np.median(seconds)), last_start


def peak_rss_mib(child_pids: list[int] = ()) -> float:
    """Peak resident memory of this process plus the given live children."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:  # no procfs: the children's peak is not counted
            pass
    return total_kib / 1024.0


def live_children() -> list[int]:
    return [child.pid for child in multiprocessing.active_children()]


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def same_bytes(output: np.ndarray, reference: np.ndarray) -> bool:
    return output.shape == reference.shape and output.tobytes() == reference.tobytes()


def planted(output: np.ndarray) -> np.ndarray:
    """A copy of ``output`` with one bit flipped (the self-test corruption)."""
    corrupt = np.array(output, copy=True)
    corrupt.reshape(-1).view(np.uint64)[0] ^= 1
    return corrupt


def spearman(a, b) -> float:
    """Rank correlation with tied ranks averaged; 0.0 when either side is constant."""

    def ranks(values):
        values = np.asarray(values, dtype=float)
        order = values.argsort(kind="stable")
        out = np.empty(len(values))
        out[order] = np.arange(len(values), dtype=float)
        for value in np.unique(values):
            tied = values == value
            out[tied] = out[tied].mean()
        return out

    ra, rb = ranks(a), ranks(b)
    if ra.std() == 0 or rb.std() == 0:
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])

