"""Out-of-program tracing for the benchmark's traced runs.

Every span is recorded from outside the program: a delegating kernel
:class:`~repro.nn.backend.Backend` handed to the program through its
public ``backend=`` argument or ``use_backend`` context, and wrappers
around public functions (``ExecutionPlan.run``, ``build_plan``,
``Predictor.predict``, ``Tensor.backward``, the optimizer step,
``clip_grad_norm``, ``ring_expand``, ``ShmRing.put_array/get_array``,
``tree_reduce``, the multiprocessing queue ``get``) that :class:`Patches`
installs for a traced phase and removes afterwards.  Nothing under ``src/`` is modified.

Spans stay in memory (:class:`Recorder`) and are aggregated and written
out when the run ends.  A span's *self* time is its duration minus the
durations of the spans nested inside it on the same thread; all spans
opened under one outermost span share its root id, so the spans of one
frame, request batch or training step can be grouped.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

from repro.nn.backend import NumpyBackend

#: Span names of the delegating backend, keyed by the kernel method.
_KERNEL_SPANS = {
    "conv2d": "nn.backend.conv",
    "conv2d_infer": "nn.backend.conv",
    "conv2d_grouped": "nn.backend.conv",
    "conv2d_grouped_infer": "nn.backend.conv",
    "matmul": "nn.backend.matmul",
    "conv2d_grad_weight": "nn.backend.grad",
    "conv2d_grad_input": "nn.backend.grad",
    "conv2d_grouped_grad_weight": "nn.backend.grad",
    "conv2d_grouped_grad_input": "nn.backend.grad",
    "avg_pool2d_grad": "nn.backend.grad",
}


class Recorder:
    """In-memory span and counter store shared by every wrapper.

    ``enabled`` gates recording; wrappers stay cheap pass-throughs while
    it is off.  Spans are ``(name, start, end, self_s, root_id, thread)``
    tuples appended under the GIL (``list.append`` is atomic).
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[str, float, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._roots = iter(range(1, 1 << 62))
        self._roots_lock = threading.Lock()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list | None:
        """Open a span on this thread; pass the result to :meth:`end`."""
        if not self.enabled:
            return None
        stack = self._stack()
        if stack:
            root = stack[0][2]
        else:
            with self._roots_lock:
                root = next(self._roots)
        frame = [name, 0.0, root, 0.0]  # name, child seconds, root id, start
        stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def end(self, frame: list | None) -> None:
        if frame is None:
            return
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][1] += duration
        self.spans.append(
            (frame[0], frame[3], end, duration - frame[1], frame[2], threading.get_ident())
        )

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        frame = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(frame)

    def in_span(self, prefix: str) -> bool:
        """Whether this thread is inside a span whose name starts with ``prefix``."""
        return any(frame[0].startswith(prefix) for frame in self._stack())

    def count(self, key: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[key] += value

    def between(self, start: float, end: float) -> list[tuple]:
        """Spans that began inside ``[start, end)``."""
        return [span for span in self.spans if start <= span[1] < end]


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per-name totals: calls, total ms, self ms and median duration."""
    groups: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        groups[span[0]].append(span)
    out = {}
    for name, items in groups.items():
        durations = np.array([end - start for _, start, end, _, _, _ in items])
        out[name] = {
            "calls": len(items),
            "ms": float(durations.sum() * 1e3),
            "self_ms": float(sum(item[3] for item in items) * 1e3),
            "ms_p50": float(np.median(durations) * 1e3),
        }
    return out


class TracingBackend(NumpyBackend):
    """A :class:`NumpyBackend` that records a span around each kernel.

    It runs the very same numpy calls as the reference backend, so the
    program's outputs keep every bit.  Nested kernel calls (the
    allocating inference path calls back into ``conv2d``) are recorded
    once, at the outermost call.  Convolutions also count work computed
    from their shapes: MACs executed, MACs against nonzero weights, and
    bytes of input, weights and output.
    """

    name = "numpy"  # the program sees the reference backend it delegates to

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self.recorder = recorder
        #: id(weights) -> [weights, nonzero count, conv seconds]; lets
        #: the benchmark attribute kernel time to model layers.
        self.by_weight: dict[int, list] = {}

    def _kernel(self, method: str, args: tuple, kwargs: dict):
        fn = getattr(NumpyBackend, method)
        recorder = self.recorder
        if not recorder.enabled or recorder.in_span("nn.backend."):
            return fn(self, *args, **kwargs)
        name = _KERNEL_SPANS[method]
        if name != "nn.backend.conv":
            return recorder.call(name, fn, self, *args, **kwargs)
        start = time.perf_counter()
        out = recorder.call(name, fn, self, *args, **kwargs)
        seconds = time.perf_counter() - start
        x, weights = args[0], args[1]
        entry = self.by_weight.get(id(weights))
        if entry is None or entry[0] is not weights:
            entry = self.by_weight[id(weights)] = [weights, int(np.count_nonzero(weights)), 0.0]
        entry[2] += seconds
        result = out[0] if isinstance(out, tuple) else out
        pixels = result.shape[-1] * result.shape[-2]
        batch = int(np.prod(result.shape[:-3]))  # N, or N*G when grouped
        groups = weights.shape[0] if weights.ndim == 3 else 1
        recorder.count("conv.macs", batch * pixels * weights.shape[-2] * weights.shape[-1])
        recorder.count("conv.useful_macs", batch * pixels * entry[1] // groups)
        recorder.count("conv.bytes", x.nbytes + weights.nbytes + result.nbytes)
        return out


def _kernel_method(method: str):
    def kernel(self, *args, **kwargs):
        return self._kernel(method, args, kwargs)

    kernel.__name__ = method
    return kernel


for _method in _KERNEL_SPANS:
    setattr(TracingBackend, _method, _kernel_method(_method))


class Patches:
    """Replaces attributes (of classes, modules or objects) and restores them."""

    def __init__(self, recorder: Recorder | None = None) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object, bool]] = []

    def replace(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``before(*args, **kwargs)``, when given, runs first while
        recording is enabled (for counters computed from the arguments).
        """
        target = getattr(owner, attr)
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            if before is not None and recorder.enabled:
                before(*args, **kwargs)
            return recorder.call(name, target, *args, **kwargs)

        wrapper.__name__ = getattr(target, "__name__", attr)
        wrapper.__doc__ = getattr(target, "__doc__", None)
        self.replace(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
