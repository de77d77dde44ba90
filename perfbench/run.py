"""Closed-loop benchmark of tmcsignal: one caller, one process, each pass starts when the last ends.

    python3 perfbench/run.py --workload grid-shared --seed 7 --trace 0

Run it from the root of a source checkout (it imports ``src/tmcsignal``).
``--seconds`` defaults to BENCHMARK.json's ``run_seconds``. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and carries the
per-layer metrics. A JSON record with the environment, the checks that failed
and any missing spans is written under ``.perfbench_out/`` and printed on the
line before.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 6  # fresh interpreters before the passes, and as many again after them
DEFAULT_SEED = 7
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# A fresh interpreter importing the CLI and reading the bundled CSVs.
SETUP_CODE = (
    "import tmcsignal.cli\n"
    "from tmcsignal.model import read_geometries, read_tmc_tables\n"
    "read_geometries()\n"
    "read_tmc_tables()\n"
)


def _seconds(key):
    return lambda t, n: t.get(key, 0) / 1e9 / n


def _mean(key):
    return lambda t, n: t.get(key, 0) / n


def _busy_per(key, scale):
    return lambda t, n: t["busy_ns"] / 1e9 * scale / t[key] if t.get(key) else 0.0


def _ratio(num, den):
    return lambda t, n: t[num] / t[den] if t.get(den) else 0.0


# Per-layer metrics: span name -> (metric, unit, value from the layer's totals and the traced pass count).
BUSY_SELF = [("busy_s", "s", _seconds("busy_ns")), ("self_s", "s", _seconds("self_ns"))]
CALLS = ("calls", "count", _mean("calls"))
LAYER_METRICS = {
    "sim.run": BUSY_SELF
    + [CALLS, ("cell_ticks", "count", _mean("cell_ticks")), ("ns_per_cell_tick", "ns", _busy_per("cell_ticks", 1e9))],
    "rl.train": BUSY_SELF + [CALLS, ("steps", "count", _mean("steps")), ("us_per_step", "us", _busy_per("steps", 1e6))],
    "rl.build_rl_program": BUSY_SELF + [CALLS],
    "trafficgen.generate_demand": BUSY_SELF + [CALLS, ("vehicles", "count", _mean("vehicles"))],
    "signals.build_program": BUSY_SELF + [CALLS, ("minute_plans", "count", _mean("minute_plans"))],
    "experiment.run_experiment": BUSY_SELF,
    "experiment.write_report": BUSY_SELF,
    "experiment.write_winners": BUSY_SELF,
    "trajectory.count_movements": BUSY_SELF
    + [
        ("lcss_cells", "count", _mean("lcss_cells")),
        ("ns_per_lcss_cell", "ns", _busy_per("lcss_cells", 1e9)),
        ("classified_share", "share", _ratio("classified", "vehicles")),
    ],
    "trajectory.read_trajectories": BUSY_SELF,
    "sumo_io.write_routes": BUSY_SELF + [("bytes", "bytes", _mean("bytes"))],
    "sumo_io.write_tls": BUSY_SELF + [("bytes", "bytes", _mean("bytes"))],
    "trafficgen.read_departures": BUSY_SELF,
    "trafficgen.write_departures": BUSY_SELF,
    "cli.gen": BUSY_SELF,
    "cli.plan": BUSY_SELF,
    "cli.simulate": BUSY_SELF,
    "cli.export-sumo": BUSY_SELF,
    "cli.tmc": BUSY_SELF,
    "cli.experiment": BUSY_SELF,
    "model.read_geometries": BUSY_SELF,
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit(root: Path) -> str:
    """HEAD of the checkout; 'unknown' outside a git repository or without git."""
    if not (root / ".git").exists():  # else git would report a repository that merely encloses this one
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": git_commit(ROOT),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def measure_setup(samples: int) -> list[float]:
    """Wall times of ``samples`` fresh interpreters, one after another, each running SETUP_CODE."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _no_span(name):
    return nullcontext()


def run_passes(workload, seconds: float, tracer) -> dict:
    """Closed loop for ``seconds``; with a tracer, passes alternate untraced and traced.

    Returns the untraced and traced pass wall times in nanoseconds, the span
    index range of each traced pass, and every failed check.
    """
    walls: dict[bool, list[int]] = {False: [], True: []}
    pass_spans = []
    attempted, failures = 0, []
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        workload.clear()
        gc.collect()
        if traced:
            first = len(tracer.spans)
            with tracer.installed():
                t0 = time.perf_counter_ns()
                with tracer.span("bench.pass"):
                    checks = workload.run_pass(tracer.span)
                wall = time.perf_counter_ns() - t0
            pass_spans.append((first, len(tracer.spans)))
        else:
            t0 = time.perf_counter_ns()
            checks = workload.run_pass(_no_span)
            wall = time.perf_counter_ns() - t0
        walls[traced].append(wall)
        checks += workload.check()
        attempted += len(checks)
        failures += [name for name, ok in checks if not ok]
        if tracer is not None:
            traced = not traced
        done = time.perf_counter() >= deadline
        if done and (tracer is None or walls[True]):
            break
    return {"walls": walls, "pass_spans": pass_spans, "attempted": attempted, "failures": failures}


def layer_metrics(tracer, pass_spans, expected: tuple[str, ...], walls) -> tuple[dict, list[str]]:
    """Per-pass means of every layer metric over the traced passes; also the missing layers."""
    import tracing

    n = len(pass_spans)
    totals = tracing.layer_totals(tracer.spans)
    missing = sorted(name for name in expected if name not in totals)
    metrics = {}
    for layer, entries in LAYER_METRICS.items():
        if layer in missing:
            continue  # expected but never called: reported as missing, not as 0
        t = totals.get(layer, {})
        for metric, unit, value in entries:
            metrics[f"{layer}.{metric}"] = {"value": value(t, n), "unit": unit}
    traced_wall = statistics.median(walls[True]) / 1e9
    untraced_wall = statistics.median(walls[False]) / 1e9
    for name, unit, value in (
        ("trace.wall_s", "s", traced_wall),
        ("trace.untraced_wall_s", "s", untraced_wall),
        ("trace.overhead_share", "share", traced_wall / untraced_wall - 1),
        ("trace.missing_spans", "count", len(missing)),
        ("trace.spans", "count", len(tracer.spans) / n),
    ):
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing


def benchmark(name: str, seed: int, seconds: float, trace: bool, workdir: Path, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns the result line and the record written beside it."""
    import tracing
    import workloads

    references = json.loads((BENCH_DIR / "reference.json").read_text())
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny}
    record["environment"] = environment()
    workload = workloads.make_workload(name, seed, workdir, references, tiny)
    workload.prepare()
    tracer = tracing.Tracer() if trace else None
    # Set-up is sampled on both sides of the passes, so that its median spans
    # the same stretch of machine speed as the passes do.
    setup_times = [] if trace else measure_setup(SETUP_SAMPLES)
    loop = run_passes(workload, seconds, tracer)
    if not trace:
        setup_times += measure_setup(SETUP_SAMPLES)
        record["setup_s"] = setup_times
    walls = loop["walls"]
    record["walls_s"] = [w / 1e9 for w in walls[False]]
    if trace:
        record["traced_walls_s"] = [w / 1e9 for w in walls[True]]
        metrics, record["missing_spans"] = layer_metrics(tracer, loop["pass_spans"], workloads.EXPECTED_LAYERS[name], walls)
        record["unpatched_sites"] = tracer.unpatched
        record["spans"] = [
            {"name": s.name, "start_ns": s.start, "end_ns": s.end, "parent": s.parent, **s.counts} for s in tracer.spans
        ]
        record["pass_spans"] = loop["pass_spans"]
    else:
        wall = statistics.median(walls[False]) / 1e9
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "cells_per_s": {"value": workload.cells / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    record["fail_share"] = {"value": len(loop["failures"]) / loop["attempted"], "unit": "share"}
    record["failed_checks"] = sorted(set(loop["failures"]))
    record["environment"]["loadavg_1m_end"] = os.getloadavg()[0]
    result = {
        "correct": not loop["failures"],
        "attempted": loop["attempted"],
        "failed": len(loop["failures"]),
        "metrics": metrics,
    }
    return result, record


def run_all(names: tuple[str, ...], args) -> int:
    """Every workload in its own process, then one table of every metric with its unit."""
    results = {}
    for name in names:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], cwd=ROOT, capture_output=True, text=True, check=True)
        *_, summary, result = proc.stdout.splitlines()
        result = json.loads(result)
        result["metrics"]["fail_share"] = json.loads(summary)["fail_share"]
        results[name] = result
        for metric, m in result["metrics"].items():
            print(f"{name:14s} {metric:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="grid-shared, rl-train, cli-roundtrip or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tmcsignal" / "__init__.py").is_file():
        fail(f"no tmcsignal sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import tmcsignal

    if Path(tmcsignal.__file__).resolve().parent != SRC / "tmcsignal":
        fail(f"imported tmcsignal from {tmcsignal.__file__}, not from {SRC}")
    import workloads

    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result, record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["result"] = result
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    summary = {k: v for k, v in record.items() if k not in ("spans", "pass_spans", "result")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
