"""The benchmark's workloads: inputs made from a seed, one timed pass, output checks.

Every pass drives the public entry point ``tmcsignal.cli.main`` in this
process. Inputs are written once before timing starts. Outside the timed
region, ``clear`` removes the previous pass's outputs, so a check never reads
stale files, and ``check`` reads the new outputs back. A check yields
``(name, ok)`` pairs, one per operation, so failures can be counted against
attempts.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import re
import shutil
import traceback
from pathlib import Path

from tmcsignal import cli
from tmcsignal.model import read_geometries
from tmcsignal.sumo_io import read_routes
from tmcsignal.trafficgen import read_departures, read_minute_tmc
from tmcsignal.trajectory import synthetic_typical_paths

# The report columns that existed when the reference digests were recorded.
# Later columns are left out so that adding one does not change the digest.
REPORT_COLUMNS = (
    "geometry",
    "pattern",
    "policy",
    "cycle",
    "injected",
    "served",
    "residual_queue",
    "total_wait",
    "nwt",
)

Check = tuple[str, bool]


def run_cli(argv: list[str], span) -> tuple[int | str, str]:
    """One ``tmcsignal`` command; returns its exit code (or the escaped exception) and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = cli.main(argv)
        except Exception:  # a raising cell escapes cli.main; count it, keep measuring
            code = traceback.format_exc(limit=3)
    if code != 0:
        code = f"{code} {err.getvalue().strip()}"
    return code, out.getvalue()


def report_digest(out_dir: Path) -> str:
    """sha256 over the REPORT_COLUMNS of report.csv, then winners.csv as written."""
    digest = hashlib.sha256()
    with open(out_dir / "report.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            digest.update((",".join(row[c] for c in REPORT_COLUMNS) + "\n").encode())
    digest.update((out_dir / "winners.csv").read_bytes())
    return digest.hexdigest()


def check_report(out_dir: Path, cells: int, reference: str | None, previous: str | None) -> list[Check]:
    """Conservation per row, the cell count, and the digest against reference and earlier passes."""
    try:
        with open(out_dir / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        digest = report_digest(out_dir)
    except (OSError, KeyError, ValueError):
        return [("report readable", False)]
    checks = [
        (
            f"row {i} injected == served + residual_queue",
            int(r["injected"]) == int(r["served"]) + int(r["residual_queue"]),
        )
        for i, r in enumerate(rows)
    ]
    checks.append((f"{cells} cells in report", len(rows) == cells))
    if reference is not None:
        checks.append(("digest equals reference", digest == reference))
    if previous is not None:
        checks.append(("digest equals first pass", digest == previous))
    return checks


class GridWorkload:
    """``tmcsignal experiment`` on a keyed-text grid spec; one call per pass."""

    def __init__(self, workdir: Path, spec: dict[str, str], reference: str | None):
        self.workdir = workdir
        self.spec = spec
        self.reference = reference
        geometries = spec["geometries"]
        n_geo = len(read_geometries()) if geometries == "all" else len(geometries.split(","))
        self.cells = n_geo * len(spec["patterns"].split(",")) * len(spec["policies"].split(",")) * len(
            spec["cycles"].split(",")
        )
        self._first_digest: str | None = None

    def prepare(self) -> None:
        self.spec_path = self.workdir / "grid.txt"
        self.spec_path.write_text("".join(f"{k} = {v}\n" for k, v in self.spec.items()))

    def clear(self) -> None:
        shutil.rmtree(self.workdir / "out", ignore_errors=True)

    def run_pass(self, span) -> list[Check]:
        code, _ = run_cli(["experiment", "--spec", str(self.spec_path), "--out-dir", str(self.workdir / "out")], span)
        return [(f"experiment exit {code}", code == 0)]

    def check(self) -> list[Check]:
        out = self.workdir / "out"
        checks = check_report(out, self.cells, self.reference, self._first_digest)
        if self._first_digest is None and all(ok for _, ok in checks):
            self._first_digest = report_digest(out)
        return checks


# --- cli-roundtrip inputs -------------------------------------------------------------

TRAJECTORY_VEHICLES = 1000
TRAJECTORY_PEDESTRIANS = 250
TRAJECTORY_STRAYS = 50  # vehicles far from every reference path: left unclassified
TRAJECTORY_NOISE = 8.0  # pixels, well inside the classifier's 25-pixel radius


def make_trajectories(seed: int, vehicles: int, pedestrians: int, strays: int) -> tuple[list[tuple], list[int]]:
    """Noisy copies of the 12 synthetic reference paths, with pedestrians and strays mixed in.

    Returns ``(tracks, truth)``: tracks as ``(id, class, points)`` and the true
    per-movement count of the path-following vehicles. Every track has as many
    points as a reference path, so a track costs the same LCSS work at any seed.
    """
    rng = random.Random(seed)
    paths = synthetic_typical_paths()
    n_points = len(paths[0].points)
    truth = [0] * 12
    tracks: list[tuple] = []
    kinds = ["vehicle"] * vehicles + ["pedestrian"] * pedestrians + ["stray"] * strays
    rng.shuffle(kinds)
    for serial, kind in enumerate(kinds):
        if kind == "vehicle":
            path = paths[rng.randrange(12)]
            truth[path.movement] += 1
            points = [
                (x + rng.uniform(-TRAJECTORY_NOISE, TRAJECTORY_NOISE), y + rng.uniform(-TRAJECTORY_NOISE, TRAJECTORY_NOISE))
                for x, y in path.points
            ]
        else:
            # Pedestrians cross anywhere; strays stay in the top-left corner, more
            # than 100 pixels from every reference path.
            span = (0.0, 400.0) if kind == "pedestrian" else (0.0, 60.0)
            x0, y0 = rng.uniform(*span), rng.uniform(*span)
            x1, y1 = rng.uniform(*span), rng.uniform(*span)
            points = [(x0 + (x1 - x0) * k / (n_points - 1), y0 + (y1 - y0) * k / (n_points - 1)) for k in range(n_points)]
        label = 0 if kind == "pedestrian" else 1
        tracks.append((f"t{serial:05d}", label, [(round(x, 3), round(y, 3)) for x, y in points]))
    return tracks, truth


def write_tracks(tracks: list[tuple], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "class", "frame", "x", "y"))
        for tid, label, points in tracks:
            for frame, (x, y) in enumerate(points):
                writer.writerow((tid, label, frame, x, y))


def write_paths(path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("movement", "x", "y"))
        for p in synthetic_typical_paths():
            for x, y in p.points:
                writer.writerow((p.movement.name, x, y))


GEN_LINE = re.compile(r"generated (\d+) vehicles")


class RoundtripWorkload:
    """One engineer's file workflow: gen, plan, simulate, export-sumo, tmc."""

    def __init__(
        self,
        workdir: Path,
        seed: int,
        classified_reference: int | None,
        gen_args: tuple[str, ...] = ("--pattern", "PC"),
        tracks: tuple[int, int, int] = (TRAJECTORY_VEHICLES, TRAJECTORY_PEDESTRIANS, TRAJECTORY_STRAYS),
    ):
        self.workdir = workdir
        self.seed = seed
        self.classified_reference = classified_reference
        self.gen_args = gen_args
        self.tracks = tracks
        self.cells = 1  # simulate runs one cell
        self._printed: int | None = None

    def prepare(self) -> None:
        w = self.workdir
        tracks, self.truth = make_trajectories(self.seed, *self.tracks)
        write_tracks(tracks, w / "trajectories.csv")
        write_paths(w / "paths.csv")
        self.commands = [
            ["gen", *self.gen_args, "--seed", str(self.seed), "--out-dir", str(w / "gen")],
            ["plan", "--tmc", str(w / "gen" / "minute_tmc.csv"), "--policy", "dynamic", "--out", str(w / "program.csv")],
            [
                "simulate",
                "--geometry",
                "INT1",
                "--departures",
                str(w / "gen" / "departures.csv"),
                "--policy",
                "hybrid",
                "--out-dir",
                str(w / "sim"),
            ],
            [
                "export-sumo",
                "--departures",
                str(w / "gen" / "departures.csv"),
                "--program",
                str(w / "program.csv"),
                "--out-dir",
                str(w / "sumo"),
            ],
            [
                "tmc",
                "--trajectories",
                str(w / "trajectories.csv"),
                "--paths",
                str(w / "paths.csv"),
                "--out",
                str(w / "tmc.csv"),
            ],
        ]

    def clear(self) -> None:
        w = self.workdir
        for name in ("gen", "sim", "sumo"):
            shutil.rmtree(w / name, ignore_errors=True)
        for name in ("program.csv", "tmc.csv"):
            (w / name).unlink(missing_ok=True)
        self._printed = None

    def run_pass(self, span) -> list[Check]:
        checks = []
        for argv in self.commands:
            code, stdout = run_cli(argv, span)
            checks.append((f"{argv[0]} exit {code}", code == 0))
            if argv[0] == "gen" and (match := GEN_LINE.search(stdout)):
                self._printed = int(match.group(1))
        return checks

    def check(self) -> list[Check]:
        w = self.workdir
        checks: list[Check] = []
        try:
            plans = read_departures(w / "gen" / "departures.csv")
            checks.append(("departure count matches gen", len(plans) == self._printed))
            checks.append(("routes parse back to the departures", read_routes(w / "sumo" / "routes.rou.xml") == plans))
        except (OSError, KeyError, ValueError):
            checks.append(("departures and routes readable", False))
        try:
            with open(w / "sim" / "summary.csv", newline="") as fh:
                (row,) = csv.DictReader(fh)
            checks.append(
                ("simulate injected == served + residual_queue", int(row["injected"]) == int(row["served"]) + int(row["residual_queue"]))
            )
        except (OSError, KeyError, ValueError):
            checks.append(("summary readable", False))
        try:
            table = read_minute_tmc(w / "tmc.csv")[0]
            checks.append(("tmc counts equal the generated truth", list(table.counts) == self.truth))
            if self.classified_reference is not None:
                checks.append(("tmc classified count equals reference", table.total == self.classified_reference))
        except (OSError, KeyError, ValueError, IndexError):
            checks.append(("tmc readable", False))
        return checks


def grid_spec(name: str, seed: int, tiny: bool) -> dict[str, str]:
    """The keyed-text spec of a grid workload; ``tiny`` is a 1-hour, one-intersection version."""
    if name == "grid-shared":
        spec = {
            "geometries": "all",
            "patterns": "PC",
            "policies": "static, dynamic, hybrid",
            "cycles": "60, 90, 120, 150",
        }
    else:
        spec = {
            "geometries": "INT1",
            "patterns": "PA, PB, PC, PD, PE, PF, PG",
            "policies": "rl",
            "cycles": "90",
            "rl_episodes": "20",
        }
    spec["seed"] = str(seed)
    if tiny:
        spec.update(geometries="INT1", hours="offpeak")
        if name == "rl-train":
            spec.update(patterns="PA, PC", rl_episodes="3")
    return spec


WORKLOADS = ("grid-shared", "rl-train", "cli-roundtrip")

# Spans each workload must produce; a missing one is reported, not read as 0 s.
EXPECTED_LAYERS = {
    "grid-shared": (
        "cli.experiment",
        "experiment.run_experiment",
        "experiment.write_report",
        "experiment.write_winners",
        "model.read_geometries",
        "trafficgen.generate_demand",
        "signals.build_program",
        "sim.run",
    ),
    "rl-train": (
        "cli.experiment",
        "experiment.run_experiment",
        "experiment.write_report",
        "experiment.write_winners",
        "model.read_geometries",
        "trafficgen.generate_demand",
        "rl.train",
        "rl.build_rl_program",
        "sim.run",
    ),
    "cli-roundtrip": (
        "cli.gen",
        "cli.plan",
        "cli.simulate",
        "cli.export-sumo",
        "cli.tmc",
        "trafficgen.generate_demand",
        "trafficgen.write_departures",
        "trafficgen.read_departures",
        "signals.build_program",
        "sim.run",
        "model.read_geometries",
        "sumo_io.write_routes",
        "sumo_io.write_tls",
        "trajectory.read_trajectories",
        "trajectory.count_movements",
    ),
}


def make_workload(name: str, seed: int, workdir: Path, references: dict, tiny: bool = False):
    """Build a workload; references apply only at their recorded seed and full size."""
    ref = references.get(name, {})
    at_reference = not tiny and ref.get("seed") == seed
    if name == "cli-roundtrip":
        if tiny:
            spec = workdir / "demand.txt"
            spec.write_text("pattern = PC\nhours = offpeak\n")
            return RoundtripWorkload(workdir, seed, None, ("--demand-spec", str(spec)), (60, 15, 5))
        return RoundtripWorkload(workdir, seed, ref.get("classified") if at_reference else None)
    if name in ("grid-shared", "rl-train"):
        return GridWorkload(workdir, grid_spec(name, seed, tiny), ref.get("digest") if at_reference else None)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")

