"""Smoke test of the benchmark itself, on a tiny configuration (1-hour profile, one intersection).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that spans nest and their self times add up, that the output checks catch a
corrupted report, and that the benchmark refuses to run without the sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread variables before numpy is imported

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def emitted_with_units(result: dict, declared: list[dict], label: str) -> None:
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        expect(
            got is not None and got["unit"] == metric["unit"] and isinstance(got["value"], (int, float)),
            f"{label}: {metric['name']} emitted in {metric['unit']}",
        )


def check_metrics(name: str, scratch: Path) -> None:
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        workdir = scratch / f"{name}-{int(trace)}"
        workdir.mkdir()
        result, record = run.benchmark(name, run.DEFAULT_SEED, 0, trace, workdir, tiny=True)
        label = f"{name} trace {int(trace)}"
        expect(result["correct"] and result["failed"] == 0, f"{label}: every output check passes")
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
        emitted_with_units(result, declared, label)
        if trace:
            expect(record["missing_spans"] == [], f"{label}: no expected span is missing")


def check_spans(name: str, scratch: Path) -> None:
    workdir = scratch / f"{name}-spans"
    workdir.mkdir()
    workload = workloads.make_workload(name, run.DEFAULT_SEED, workdir, {}, tiny=True)
    workload.prepare()
    tracer = tracing.Tracer()
    passes = run.run_passes(workload, 0, tracer)
    expect(tracing.nesting_errors(tracer.spans) == [], f"{name}: spans nest inside their parents")
    self_ns = tracing.self_times(tracer.spans)
    expect(min(self_ns) >= 0, f"{name}: every self time is >= 0")
    for (first, last), wall in zip(passes["pass_spans"], passes["walls"][True]):
        expect(sum(self_ns[first:last]) <= wall, f"{name}: self times sum to at most the traced wall time")
    expect(tracer.unpatched == [], f"{name}: every traced name was found where it is looked up")
    layers = tracing.layer_totals(tracer.spans)
    for layer in workloads.EXPECTED_LAYERS[name]:
        expect(layer in layers, f"{name}: span {layer} recorded")


class CorruptServed:
    """Runs a grid workload, then adds one to ``served`` in the first report row."""

    def __init__(self, inner):
        self.inner = inner

    def clear(self):
        self.inner.clear()

    def run_pass(self, span):
        checks = self.inner.run_pass(span)
        report = self.inner.workdir / "out" / "report.csv"
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        column = rows[0].index("served")
        rows[1][column] = str(int(rows[1][column]) + 1)
        with open(report, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return checks

    def check(self):
        return self.inner.check()


class SkipCommands(CorruptServed):
    """Runs no command at all, as if the CLI exited 0 without writing anything."""

    def run_pass(self, span):
        return []


def check_corruption(scratch: Path) -> None:
    workdir = scratch / "corrupt"
    workdir.mkdir()
    workload = workloads.make_workload("grid-shared", run.DEFAULT_SEED, workdir, {}, tiny=True)
    workload.prepare()
    clean = run.run_passes(workload, 0, None)
    expect(not clean["failures"], "clean report passes its checks")
    corrupted = run.run_passes(CorruptServed(workload), 0, None)
    share = len(corrupted["failures"]) / corrupted["attempted"]
    expect(share > 0, f"altered served value gives fail_share {share:.3f} > 0")
    expect(
        any("injected == served + residual_queue" in f for f in corrupted["failures"]),
        "the conservation check names the altered row",
    )
    expect(any("digest" in f for f in corrupted["failures"]), "the digest check flags the altered report")
    skipped = run.run_passes(SkipCommands(workload), 0, None)
    expect(skipped["failures"] == ["report readable"], "a pass that writes nothing is not checked against stale files")


def check_refuses_without_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "grid-shared", "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    expect(proc.returncode != 0 and proc.stdout == "", "without the sources it exits non-zero and prints no result")


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    try:
        for name in workloads.WORKLOADS:
            check_metrics(name, scratch)
            check_spans(name, scratch)
        check_corruption(scratch)
        check_refuses_without_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
