"""The process memory high-water mark around each stage of one experiment.

    python3 tools/peak_rss.py [--checkout .] [--workload rl-train] [--seed 7] [--spec grid.txt]

Runs one experiment grid from the given source checkout in this one process,
untraced, with BLAS on one thread: ``run_experiment``, then ``write_report``
and ``write_winners`` into a temporary directory. The grid is the benchmark's
grid-shared or rl-train workload (perfbench/workloads.py) at ``--seed``, or the
keyed-text spec file ``--spec`` as ``tmcsignal experiment --spec`` reads it.
``generate_demand``, ``rl.train``, ``build_program`` and ``sim.run`` are
wrapped where the experiment module looks them up. Prints one line per stage,
consecutive calls of one stage merged: VmHWM (the high-water mark) and VmRSS
from ``/proc/self/status`` before the first call and after the last. Where
that file does not exist (off Linux) it prints the ``ru_maxrss`` high-water
mark and no RSS. Memory of the children that ``rl.train`` forks is not counted.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

STATUS = Path("/proc/self/status")


def memory_mb() -> tuple[float, float | None]:
    """(high-water mark, resident set) of this process in MB; the resident set is None off Linux."""
    if not STATUS.exists():
        scale = 1024 * 1024 if sys.platform == "darwin" else 1024  # ru_maxrss is bytes on macOS, KiB elsewhere
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale, None
    fields = dict(line.split(":", 1) for line in STATUS.read_text().splitlines() if ":" in line)
    kib = {key: int(fields[key].split()[0]) for key in ("VmHWM", "VmRSS")}
    return kib["VmHWM"] / 1024, kib["VmRSS"] / 1024


class Stages:
    """Memory before and after each call of the wrapped stages, consecutive calls of one stage merged."""

    def __init__(self):
        self.rows: list[list] = []  # [name, calls, before, after]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = memory_mb()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.rows and self.rows[-1][0] == name:
                    self.rows[-1][1] += 1
                    self.rows[-1][3] = memory_mb()
                else:
                    self.rows.append([name, 1, before, memory_mb()])

        return wrapper

    def print(self) -> None:
        def mb(value: float | None) -> str:
            return "-" if value is None else f"{value:.1f}"

        print(f"{'stage':28s} {'calls':>5s} {'VmHWM before':>12s} {'after':>7s} {'VmRSS before':>12s} {'after':>7s}")
        for name, calls, (hwm0, rss0), (hwm1, rss1) in self.rows:
            print(f"{name:28s} {calls:5d} {mb(hwm0):>12s} {mb(hwm1):>7s} {mb(rss0):>12s} {mb(rss1):>7s}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--workload", choices=("grid-shared", "rl-train"), default="rl-train")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--spec", type=Path, help="a keyed-text experiment spec; overrides --workload and --seed")
    args = parser.parse_args()
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from tmcsignal import experiment, rl

    stages = Stages()
    start = memory_mb()
    if args.spec is None:
        text = "".join(f"{key} = {value}\n" for key, value in workloads.grid_spec(args.workload, args.seed, False).items())
        spec = experiment.parse_experiment_spec(text)
    else:
        spec = experiment.read_experiment_spec(args.spec)
    for name, label in (("generate_demand", "generate_demand"), ("build_program", "build_program"), ("run", "sim.run")):
        setattr(experiment, name, stages.wrap(label, getattr(experiment, name)))
    rl.train = stages.wrap("rl.train", rl.train)
    write_report = stages.wrap("write_report", experiment.write_report)
    write_winners = stages.wrap("write_winners", experiment.write_winners)
    with tempfile.TemporaryDirectory() as out:
        results = experiment.run_experiment(spec)
        write_report(results, Path(out) / "report.csv")
        write_winners(results, Path(out) / "winners.csv")
    print(f"after imports: VmHWM {start[0]:.1f} MB")
    stages.print()
    print(f"{len(results)} cells; peak {memory_mb()[0]:.1f} MB")


if __name__ == "__main__":
    main()
