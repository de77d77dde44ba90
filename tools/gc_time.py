"""Time spent in garbage collection during in-process cli-roundtrip passes.

    python3 tools/gc_time.py [--checkout .] [--seed 7] [--passes 8]

Runs the benchmark's cli-roundtrip workload (perfbench/workloads.py) from the
given source checkout in this one process, untraced, with BLAS on one thread.
Each collection is timed through ``gc.callbacks`` from its "start" to its
"stop" call. Prints, per pass, the wall time, the time in collections and the
number of full (generation-2) collections, then each command's median wall.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402


class CollectionClock:
    """Sums the wall time of every collection and counts the full ones."""

    def __init__(self):
        self.ns = 0
        self.full = 0
        self._start = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
            return
        self.ns += time.perf_counter_ns() - self._start
        if info["generation"] == 2:
            self.full += 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=8)
    args = parser.parse_args()
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    clock = CollectionClock()
    gc.callbacks.append(clock)
    commands: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory() as work:
        workload = workloads.make_workload("cli-roundtrip", args.seed, Path(work), {})
        workload.prepare()
        for n in range(args.passes):
            workload.clear()
            gc.collect()
            clock.ns, clock.full = 0, 0
            t0 = time.perf_counter_ns()
            for argv in workload.commands:
                c0 = time.perf_counter_ns()
                code, _ = workloads.run_cli(argv, lambda name: nullcontext())
                if code != 0:
                    raise SystemExit(f"{argv[0]} failed: {code}")
                commands.setdefault(argv[0], []).append((time.perf_counter_ns() - c0) / 1e6)
            wall = (time.perf_counter_ns() - t0) / 1e6
            print(f"pass {n}: {wall:6.0f} ms, {clock.ns / 1e6:5.0f} ms in gc, {clock.full} full collections")
    for name, walls in commands.items():
        print(f"{name:12s} median {statistics.median(walls):6.1f} ms")


if __name__ == "__main__":
    main()
