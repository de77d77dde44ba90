"""Command-line surface: demand generation, TMC extraction, planning, simulation, export."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from tmcsignal import rl as rl_mod
from tmcsignal.experiment import (
    ExperimentSpec,
    read_experiment_spec,
    run_experiment,
    write_report,
    write_winners,
)
from tmcsignal.model import read_geometries
from tmcsignal.sim import SimConfig, evaluate, write_queue_series, write_summary
from tmcsignal.signals import DEFAULT_PEAK_MINUTES, DEFAULT_YELLOW, POLICIES, build_program, read_program, write_program
from tmcsignal.sumo_io import write_routes, write_tls
from tmcsignal.trafficgen import (
    PATTERNS,
    DemandSpec,
    generate_demand,
    read_demand_spec,
    read_departures,
    read_minute_tmc,
    write_departures,
    write_minute_tmc,
)
from tmcsignal.trajectory import (
    DEFAULT_EPS,
    DEFAULT_MIN_SIMILARITY,
    count_movements,
    read_trajectories,
    read_typical_paths,
)


def _out_dir(args) -> Path:
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _geometry(args):
    geometries = read_geometries(getattr(args, "geometry_file", None))
    if args.geometry not in geometries:
        raise ValueError(
            f"unknown geometry {args.geometry!r}; available: {sorted(geometries)}"
        )
    return geometries[args.geometry]


def cmd_gen(args) -> int:
    if args.demand_spec:
        spec = read_demand_spec(args.demand_spec)
    else:
        if args.pattern.upper() not in PATTERNS:
            raise ValueError(f"unknown pattern {args.pattern!r}")
        spec = DemandSpec(pattern=PATTERNS[args.pattern.upper()])
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    plans, minute_tmc = generate_demand(spec)
    out = _out_dir(args)
    write_departures(plans, out / "departures.csv")
    write_minute_tmc(minute_tmc, out / "minute_tmc.csv")
    print(f"generated {len(plans)} vehicles over {len(minute_tmc)} minutes -> {out}")
    return 0


def cmd_tmc(args) -> int:
    trajectories = read_trajectories(args.trajectories)
    paths = read_typical_paths(args.paths)
    table = count_movements(trajectories, paths, eps=args.eps, min_sim=args.min_sim)
    write_minute_tmc(table, args.out)
    print(f"classified {table.total} of {len(trajectories)} trajectories -> {args.out}")
    return 0


def cmd_plan(args) -> int:
    minute_tmc = read_minute_tmc(args.tmc)
    q = None
    if args.policy == "rl":
        if not args.weights:
            raise ValueError("--weights is required for the rl policy (see rl-train)")
        q = rl_mod.QFunction.load(args.weights)
    peaks = None
    if args.peak_start is not None or args.peak_end is not None:
        if args.policy != "hybrid":
            raise ValueError(f"--peak-start and --peak-end apply to the hybrid policy only, not {args.policy}")
        if args.peak_start is None or args.peak_end is None:
            raise ValueError("give both --peak-start and --peak-end, or neither")
        if not 0 <= args.peak_start < args.peak_end <= len(minute_tmc):
            raise ValueError(
                f"--peak-start {args.peak_start} and --peak-end {args.peak_end} must satisfy "
                f"0 <= start < end <= {len(minute_tmc)}, the minutes in {args.tmc}"
            )
        peaks = range(args.peak_start, args.peak_end)
    elif args.policy == "hybrid" and min(DEFAULT_PEAK_MINUTES) >= len(minute_tmc):
        window = f"minutes {min(DEFAULT_PEAK_MINUTES)}-{max(DEFAULT_PEAK_MINUTES)}"
        raise ValueError(f"the default hybrid peak, {window}, lies past {args.tmc}; give --peak-start and --peak-end")
    program = build_program(minute_tmc, args.policy, args.cycle, args.yellow, peaks, q=q)
    write_program(program, args.out)
    print(f"{args.policy} program, {len(program)} minutes, cycle {args.cycle}s -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    geometry = _geometry(args)
    plans = read_departures(args.departures)
    horizon = (int(plans.departs.max()) // 60 + 1) * 60 if len(plans) else 3600
    cfg = SimConfig(horizon=horizon if args.horizon is None else args.horizon)
    result = evaluate(
        geometry,
        plans,
        args.policy,
        args.cycle,
        cfg,
        yellow=args.yellow,
        rl_seed=args.seed if args.seed is not None else 0,
    )
    out = _out_dir(args)
    write_summary(result, out / "summary.csv")
    write_queue_series(result, out / "queue_series.csv")
    print(
        f"{args.policy} cycle {args.cycle}s: injected {result.injected}, served {result.served}, "
        f"nwt {result.nwt:.2f}s -> {out}"
    )
    return 0


def cmd_export_sumo(args) -> int:
    plans = read_departures(args.departures)
    program = read_program(args.program)
    out = _out_dir(args)
    write_routes(plans, out / "routes.rou.xml")
    write_tls(program, out / "tls.add.xml", out / "tls_schedule.csv")
    print(f"wrote routes.rou.xml, tls.add.xml, tls_schedule.csv -> {out}")
    return 0


def cmd_experiment(args) -> int:
    spec = read_experiment_spec(args.spec) if args.spec else ExperimentSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    results = run_experiment(spec)
    out = _out_dir(args)
    write_report(results, out / "report.csv")
    write_winners(results, out / "winners.csv")
    print(f"{len(results)} cells -> {out / 'report.csv'}, {out / 'winners.csv'}")
    return 0


def cmd_rl_train(args) -> int:
    minute_tmc = read_minute_tmc(args.tmc)
    [q] = rl_mod.train(
        [minute_tmc],
        episodes=args.episodes,
        seeds=[args.seed if args.seed is not None else 0],
        cycle=args.cycle,
        yellow=args.yellow,
        log_path=args.log,
    )
    q.save(args.out)
    print(f"trained {args.episodes} episodes -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmcsignal",
        description="Turning-movement-count demand, signal design, and queue-based evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate bimodal demand (departures + per-minute TMC)")
    gen.add_argument("--demand-spec", help="keyed-text demand file (overrides the flags)")
    gen.add_argument("--pattern", default="PA", help="zone weight pattern PA..PG")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out-dir", required=True)
    gen.set_defaults(func=cmd_gen)

    tmc = sub.add_parser("tmc", help="classify trajectory files into a TMC table")
    tmc.add_argument("--trajectories", required=True, help="CSV id,class,frame,x,y")
    tmc.add_argument("--paths", required=True, help="CSV movement,x,y reference paths")
    tmc.add_argument("--eps", type=float, default=DEFAULT_EPS, help="matching radius, pixels")
    tmc.add_argument("--min-sim", type=float, default=DEFAULT_MIN_SIMILARITY, help="acceptance similarity")
    tmc.add_argument("--out", required=True)
    tmc.set_defaults(func=cmd_tmc)

    plan = sub.add_parser("plan", help="build a per-minute signal program from a TMC file")
    plan.add_argument("--tmc", required=True, help="per-minute TMC CSV")
    plan.add_argument("--policy", required=True, choices=POLICIES)
    plan.add_argument("--cycle", type=int, default=90)
    plan.add_argument("--yellow", type=int, default=DEFAULT_YELLOW)
    plan.add_argument("--peak-start", type=int, default=None, help="first hybrid peak minute")
    plan.add_argument("--peak-end", type=int, default=None, help="one past the last peak minute")
    plan.add_argument("--weights", help="trained allocator snapshot (rl policy)")
    plan.add_argument("--out", required=True)
    plan.set_defaults(func=cmd_plan)

    simulate = sub.add_parser("simulate", help="evaluate one scenario with the queue simulator")
    simulate.add_argument("--geometry", required=True, help="intersection id, e.g. INT1")
    simulate.add_argument("--geometry-file", default=None, help="geometry CSV (default: bundled)")
    simulate.add_argument("--departures", required=True, help="departures CSV from gen")
    simulate.add_argument("--policy", required=True, choices=POLICIES)
    simulate.add_argument("--cycle", type=int, default=90)
    simulate.add_argument("--yellow", type=int, default=DEFAULT_YELLOW)
    simulate.add_argument("--horizon", type=int, default=None, help="seconds (default: cover departures)")
    simulate.add_argument("--seed", type=int, default=None, help="rl training seed")
    simulate.add_argument("--out-dir", required=True)
    simulate.set_defaults(func=cmd_simulate)

    export = sub.add_parser("export-sumo", help="emit SUMO route and tlLogic documents")
    export.add_argument("--departures", required=True)
    export.add_argument("--program", required=True, help="program CSV from plan")
    export.add_argument("--out-dir", required=True)
    export.set_defaults(func=cmd_export_sumo)

    experiment = sub.add_parser("experiment", help="run the full comparison grid")
    experiment.add_argument("--spec", default=None, help="keyed-text grid file (default: full grid)")
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument("--out-dir", required=True)
    experiment.set_defaults(func=cmd_experiment)

    rl_train = sub.add_parser("rl-train", help="train the green-time allocator on a TMC stream")
    rl_train.add_argument("--tmc", required=True, help="per-minute TMC CSV")
    rl_train.add_argument("--episodes", type=int, default=100)
    rl_train.add_argument("--seed", type=int, default=None)
    rl_train.add_argument("--cycle", type=int, default=90)
    rl_train.add_argument("--yellow", type=int, default=DEFAULT_YELLOW)
    rl_train.add_argument("--log", default=None, help="training log CSV")
    rl_train.add_argument("--out", required=True)
    rl_train.set_defaults(func=cmd_rl_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
