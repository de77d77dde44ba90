"""Compare a parent and a change checkout with alternating benchmark pairs.

    python3 perfbench/compare.py --parent ../parent --change . --workload grid-shared --pairs 10 --seed 1000

Pair i runs both checkouts at seed ``--seed + i``, parent first in even pairs
and change first in odd ones, each with its own ``perfbench/run.py`` and for
BENCHMARK.json's ``run_seconds``, the run length its bounds were set at. For every
end-to-end metric of BENCHMARK.json it prints both medians and quartiles and a
verdict:

- ``gain``: the change wins at least 9 in 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile spread.
- ``regression``: the change's median is worse than the parent's by more than
  the metric's bound.
- ``unresolved``: the parent's own spread is wider than the bound and not every
  change run beats every parent run.
- ``no change``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    seconds = str(BENCHMARK["run_seconds"])
    argv = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1  # positive gap = change is better
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = sign * (statistics.median(parent) - statistics.median(change))
    if wins >= 0.9 * len(parent) and gap > q3 - q1:
        return f"gain ({wins}/{len(parent)} pairs)"
    if -gap > bound * statistics.median(parent):
        return f"regression ({-gap / statistics.median(parent):+.1%} > bound {bound:.0%})"
    if (q3 - q1) / statistics.median(parent) > bound and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved (parent spread wider than bound)"
    return f"no change ({wins}/{len(parent)} pairs won)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="first seed; use one not tuned on")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("the win rule needs at least 10 pairs")

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, args.seed + i))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    for metric in BENCHMARK["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p1, pm, p3 = statistics.quantiles(parent, n=4)
        c1, cm, c3 = statistics.quantiles(change, n=4)
        print(
            f"{args.workload} {name} [{metric['unit']}] parent {pm:.6g} ({p1:.6g}..{p3:.6g}) "
            f"change {cm:.6g} ({c1:.6g}..{c3:.6g}): {verdict(parent, change, metric['better'], metric['bound'])}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
