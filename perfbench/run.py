"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload restore --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` measures the per-layer metrics (see ``workloads.py``).
Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
matched its reference.  A fuller record (host, library versions, seed,
per-layer tables, raw spans) goes to ``.perfbench-out/``.

``--plant-corruption`` flips one bit of one output before the check, to
show that the check catches it (the run must then exit non-zero).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
#: Environment knobs that change which code paths run; cleared before
#: the program is imported (spawned workers inherit the cleared
#: environment) and their prior values recorded with every result.
PINNED_ENV = (
    "REPRO_BACKEND",
    "REPRO_TUNED",
    "REPRO_TUNING_DIR",
    "REPRO_WARM_START",
    "REPRO_WEIGHTS_DIR",
)
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _git_commit() -> str:
    """The checked-out commit, or ``"unknown"`` outside a git checkout."""
    if not (ROOT / ".git").exists():  # do not report an enclosing repository
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _environment(args, pinned: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_ENV},
        "git_commit": _git_commit(),
        "pinned_env_was": pinned,
    }


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker that
    multiprocessing starts on first use, so a run leaves no process."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-corruption", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    pinned = {name: os.environ.pop(name, None) for name in PINNED_ENV}
    # One BLAS thread per process: every workload's parallelism comes
    # from the program's own workers, and implicit BLAS threads on top
    # oversubscribe the CPUs (on 2 CPUs they cut serving capacity by
    # more than half and make it erratic).  Set before numpy loads;
    # spawned workers inherit it.
    for name in BLAS_THREAD_ENV:
        pinned[name] = os.environ.get(name)
        os.environ[name] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from common import ColdLog, Context
    from metrics import UNITS
    from tracing import Patches, Recorder, summarize
    from workloads import WORKLOADS

    environment = _environment(args, pinned)
    recorder = Recorder()
    cold = ColdLog()
    cold_patches = Patches()
    cold.install(cold_patches)
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        plant=args.plant_corruption,
        recorder=recorder,
        cold=cold,
    )
    started = time.perf_counter()
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        cold_patches.restore()
        _stop_resource_tracker()
    wall_s = time.perf_counter() - started

    section = "per_layer" if args.trace else "end_to_end"
    expected = [m["name"] for m in declared[section]]
    if sorted(outcome.metrics) != sorted(expected):
        missing = sorted(set(expected) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(expected))
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment,
        "wall_s": wall_s,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "spans": summarize(recorder.spans),
        **outcome.detail,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as out:
            for name, start, end, self_s, root, thread in recorder.spans:
                out.write(json.dumps([name, start, end, self_s, root, thread]) + "\n")

    print(
        f"# {args.workload} seed={args.seed} cpus={environment['usable_cpus']} "
        f"numpy={environment['numpy']} blas={environment['blas']} "
        f"blas_threads={environment['blas_threads']['OPENBLAS_NUM_THREADS']} "
        f"commit={environment['git_commit'][:12]}"
    )
    for row in outcome.detail.get("hardware_crosscheck", []):
        print(
            f"# conv {row['model']}[{row['layer']}] {row['in']}->{row['out']}: measured "
            f"{row['measured_ms_share']:.3f} hardware {row['hardware_share']:.3f} "
            f"of nn.backend.conv.ms"
        )
    for name, (value, unit) in outcome.detail.get("info", {}).items():
        print(f"# {name} {value:.6g} {unit} (recorded, not gated)")
    for name in expected:
        print(f"{name:40s} {outcome.metrics[name]:14.6g} {UNITS[name]}")
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": UNITS[name]} for name in expected
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
