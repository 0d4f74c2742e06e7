"""One benchmark repeat, in a fresh process with one BLAS thread.

    python3 bench/repeat.py --workload NAME --seed N --trace 0|1 --scale full|tiny --dir DIR

Sets up the workload, times its measured part, checks its outputs and
writes ``DIR/result.json``; a traced repeat also writes ``DIR/spans.json``.
Set-up time runs from the start of this script, so it includes importing
numpy and racelab. run.py starts the repeats and reads their results.
"""

import os
import time

T_START = time.perf_counter()
# Pinned before numpy is imported: unpinned BLAS threading swings timings.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import racelab  # noqa: E402

if not os.path.abspath(racelab.__file__).startswith(SRC + os.sep):
    sys.exit(f"racelab imported from {racelab.__file__}, not from {SRC}")

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def machine_facts(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


class Repeat:
    """What a workload reads (seed, sizes, its directory) and records."""

    def __init__(self, workload, seed, scale, directory, tracer):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.dir = directory
        self.tracer = tracer
        self.setup_s = None
        self.window = None
        self.peak_rss_mb = None
        self.checks = {}
        self.fingerprint = None
        self.work = None
        self.work_unit = None
        self.extra = {}

    @contextlib.contextmanager
    def timed(self):
        """The measured part. Tracing covers it alone; peak memory is read at
        its end, so the checks that follow count in neither."""
        if self.tracer is not None:
            self.tracer.install()
        start = time.perf_counter()
        self.setup_s = start - T_START
        try:
            yield
        finally:
            self.window = (start, time.perf_counter())
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if self.tracer is not None:
                self.tracer.uninstall()

    def check(self, name, ok):
        self.checks[name] = bool(ok)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    os.makedirs(args.dir, exist_ok=True)

    tracer = Tracer() if args.trace else None
    ctx = Repeat(args.workload, args.seed, args.scale, args.dir, tracer)
    WORKLOADS[args.workload](ctx)

    result = {
        "workload": args.workload,
        "traced": bool(args.trace),
        "setup_s": ctx.setup_s,
        "wall_s": ctx.window[1] - ctx.window[0],
        "work": ctx.work,
        "work_unit": ctx.work_unit,
        "peak_rss_mb": ctx.peak_rss_mb,
        "checks": ctx.checks,
        "fingerprint": ctx.fingerprint,
        "extra": ctx.extra,
        "machine": machine_facts(args.seed),
    }
    if tracer is not None:
        tracer.write(os.path.join(args.dir, "spans.json"))
        result.update(tracer.summary(ctx.window))
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
