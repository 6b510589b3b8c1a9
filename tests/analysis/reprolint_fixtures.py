"""Paired good/bad source fixtures for the reprolint rule tests.

Each rule gets (at least) one BAD_* snippet it must fire on and one
GOOD_* twin it must stay silent on.  The snippets live as string
constants — not .py files — so scanning ``tests/`` with the analyzer
itself (the CI gate) never trips over them; the smoke test writes them
out to a tmp tree when it wants a real filesystem run.

Path constants name where each snippet pretends to live, since several
rules scope by location (backend-dispatch polices ``repro/nn`` and
``repro/serving``; determinism polices library code only).
"""

NN_PATH = "src/repro/nn/example.py"
SERVING_PATH = "src/repro/serving/example.py"
BACKEND_PATH = "src/repro/nn/backend.py"
LIB_PATH = "src/repro/train/example.py"
CHECKPOINT_PATH = "src/repro/train/checkpoint.py"
TEST_PATH = "tests/nn/test_example.py"

# ----------------------------------------------------------------------
# backend-dispatch
# ----------------------------------------------------------------------
BAD_DISPATCH = """\
import numpy as np
from scipy.signal import convolve2d

def forward(x, w):
    y = np.matmul(w, x)
    y = np.einsum("ij,jk->ik", y, x)
    y = np.dot(y, w)
    return convolve2d(y, w)
"""

GOOD_DISPATCH = """\
import numpy as np
from repro.nn.backend import current_backend

def forward(x, w):
    backend = current_backend()
    y = backend.matmul(w, x)
    return y + np.maximum(x, 0.0)  # elementwise numpy is fine
"""

BAD_DISPATCH_ALIASED = """\
import numpy
import scipy.linalg as sla

def forward(x, w):
    return sla.solve(numpy.dot(w, x), x)
"""

# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
BAD_DETERMINISM = """\
import numpy as np

def augment(x):
    np.random.seed(0)
    noise = np.random.rand(*x.shape)
    rng = np.random.default_rng()
    return x + noise + rng.standard_normal(x.shape)
"""

GOOD_DETERMINISM = """\
import numpy as np

def augment(x, rng: np.random.Generator):
    return x + rng.standard_normal(x.shape)

def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
"""

# get_state/set_state: sanctioned in repro/train/checkpoint.py only.
CHECKPOINT_EXCEPTION = """\
import numpy as np

def capture():
    return np.random.get_state()

def restore(state):
    np.random.set_state(state)
"""

# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
BAD_LOCKS = """\
import threading

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._cache = None

    def fill(self, value):
        with self._lock:
            self._cache = value

    def clear(self):
        self._cache = None  # race: write outside the lock
"""

GOOD_LOCKS = """\
import threading

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._cache = None

    def fill(self, value):
        with self._lock:
            self._cache = value

    def clear(self):
        with self._lock:
            self._cache = None

    def _evict_locked(self):
        self._cache = None  # caller holds the lock, per naming convention
"""

GOOD_LOCKS_CONDITION = """\
import threading

class Queue:
    def __init__(self):
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._items = []

    def put(self, item):
        with self._ready:
            self._items = self._items + [item]

    def drain(self):
        with self._lock:
            self._items = []
"""

#: The serving shape: a front-end base class in another module owns
#: ``self._lock``; the executor subclass only ever names it in ``with``.
BAD_LOCKS_FRONT_END_SUBCLASS = """\
from .frontend import _FrontEnd

class Server(_FrontEnd):
    def __init__(self):
        super().__init__()
        self._pending = []

    def _enqueue_locked(self, request):
        self._pending = self._pending + [request]

    def close(self):
        with self._lock:
            self._closing = True
            self._pending = []

    def reset(self):
        self._pending = []  # race: the front end's lock is not held
"""

# ----------------------------------------------------------------------
# state-dict-completeness
# ----------------------------------------------------------------------
# A mutated copy of Adam whose state_dict/load_state_dict forgot the
# step counter `t` — the exact regression class PR 5's resume
# bit-identity guarantee must be protected from.
BAD_STATE_DICT_ADAM = """\
import numpy as np
from repro.nn.optim import Optimizer

class ForgetfulAdam(Optimizer):
    def __init__(self, params, lr=1e-3):
        super().__init__(params, lr)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self):
        self._t += 1
        for p, m in zip(self.params, self._m):
            m += p.grad

    def state_dict(self):
        state = super().state_dict()
        state["m"] = [m.copy() for m in self._m]
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        for dst, src in zip(self._m, state["m"]):
            dst[...] = src
"""

GOOD_STATE_DICT_ADAM = """\
import numpy as np
from repro.nn.optim import Optimizer

class CarefulAdam(Optimizer):
    def __init__(self, params, lr=1e-3):
        super().__init__(params, lr)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self):
        self._t += 1
        for p, m in zip(self.params, self._m):
            m += p.grad

    def state_dict(self):
        state = super().state_dict()
        state["m"] = [m.copy() for m in self._m]
        state["t"] = self._t
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        for dst, src in zip(self._m, state["m"]):
            dst[...] = src
        self._t = int(state["t"])
"""

# A scheduler subclass that adds a buffer but inherits state_dict.
BAD_STATE_DICT_SCHED = """\
from repro.nn.optim import LRScheduler

class WarmupLR(LRScheduler):
    def __init__(self, optimizer, warmup):
        super().__init__(optimizer)
        self.warmup = warmup

    def step(self):
        self.seen = getattr(self, "seen", 0) + 1
        super().step()
"""

GOOD_STATE_DICT_SCHED = """\
from repro.nn.optim import LRScheduler

class PlainStepLR(LRScheduler):
    def __init__(self, optimizer, step_size, gamma=0.5):
        super().__init__(optimizer)
        self.step_size = step_size
        self.gamma = gamma

    def lr_at(self, epoch):
        return self.base_lr * self.gamma ** (epoch // self.step_size)
"""

# ----------------------------------------------------------------------
# public-api
# ----------------------------------------------------------------------
BAD_PUBLIC_API = """\
__all__ = ["exists", "ghost"]

def exists():
    \"\"\"Documented so only public-api fires here.\"\"\"
    return 1

def leaked():
    return 2
"""

GOOD_PUBLIC_API = """\
__all__ = ["exists", "lazy"]

def exists():
    \"\"\"Documented export.\"\"\"
    return 1

def _helper():
    return 2

def __getattr__(name):
    if name == "lazy":
        return object()
    raise AttributeError(name)
"""

# ----------------------------------------------------------------------
# public-docstring (warn-level)
# ----------------------------------------------------------------------
BAD_PUBLIC_DOCSTRING = """\
__all__ = ["LIMIT", "bare", "documented"]

LIMIT = 8

def documented():
    \"\"\"Has the contract written down.\"\"\"
    return 1

def bare():
    return 2
"""

GOOD_PUBLIC_DOCSTRING = """\
__all__ = ["LIMIT", "Widget", "documented"]

LIMIT = 8  # constants are exempt: assignments cannot carry docstrings

class Widget:
    \"\"\"A documented export.\"\"\"

def documented():
    \"\"\"Also documented.\"\"\"
    return 1

def _private_can_stay_bare():
    return 2
"""

# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
SUPPRESSED_DISPATCH = """\
import numpy as np

def forward(x, w):
    return np.matmul(w, x)  # reprolint: disable=backend-dispatch
"""

SUPPRESSED_WRONG_RULE = """\
import numpy as np

def forward(x, w):
    return np.matmul(w, x)  # reprolint: disable=determinism
"""

SUPPRESSED_ALL = """\
import numpy as np

def forward(x, w):
    return np.matmul(w, x)  # reprolint: disable=all
"""

SUPPRESSED_MULTILINE = """\
import numpy as np

def forward(x, w):
    return np.matmul(  # reprolint: disable=backend-dispatch
        w,
        x,
    )
"""

#: (filename-in-tree, source, expected live finding count) triples the
#: smoke test materializes into a real directory and analyzes end-to-end.
FIXTURE_TREE = [
    ("src/repro/nn/bad_dispatch.py", BAD_DISPATCH, 4),
    ("src/repro/nn/good_dispatch.py", GOOD_DISPATCH, 0),
    ("src/repro/train/bad_rng.py", BAD_DETERMINISM, 3),
    ("src/repro/train/good_rng.py", GOOD_DETERMINISM, 0),
    ("src/repro/serving/bad_locks.py", BAD_LOCKS, 1),
    ("src/repro/serving/good_locks.py", GOOD_LOCKS, 0),
    ("src/repro/serving/bad_front_end.py", BAD_LOCKS_FRONT_END_SUBCLASS, 1),
    ("src/repro/train/bad_optim.py", BAD_STATE_DICT_ADAM, 2),
    ("src/repro/train/good_optim.py", GOOD_STATE_DICT_ADAM, 0),
    ("src/repro/hardware/bad_api.py", BAD_PUBLIC_API, 2),
    ("src/repro/hardware/good_api.py", GOOD_PUBLIC_API, 0),
    ("src/repro/hardware/bad_docstring.py", BAD_PUBLIC_DOCSTRING, 1),
    ("src/repro/hardware/good_docstring.py", GOOD_PUBLIC_DOCSTRING, 0),
]
