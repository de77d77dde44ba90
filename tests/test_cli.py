"""End-to-end tests for the command-line surface."""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from tmcsignal.cli import build_parser, main
from tmcsignal.rl import QFunction
from tmcsignal.signals import DEFAULT_YELLOW, SPLIT_PHASE, build_program, read_program
from tmcsignal.sim import MAX_HORIZON
from tmcsignal.sumo_io import read_routes
from tmcsignal.trafficgen import MinuteTmc, read_departures, read_minute_tmc, write_minute_tmc
from tmcsignal.trajectory import (
    DEFAULT_EPS,
    DEFAULT_MIN_SIMILARITY,
    Trajectory,
    synthetic_typical_paths,
    write_trajectories,
    write_typical_paths,
)


@pytest.fixture()
def demand_spec_file(tmp_path):
    spec = tmp_path / "demand.txt"
    spec.write_text(
        "mu_offpeak = 120\nsigma_offpeak = 10\nmu_peak = 600\nsigma_peak = 20\n"
        "hours = offpeak, peak\npattern = PC\nseed = 3\n"
    )
    return spec


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.mark.parametrize(
    "argv, option, constant",
    [
        pytest.param(("plan", "--tmc", "t", "--policy", "static", "--out", "p"), "yellow", DEFAULT_YELLOW, id="plan"),
        pytest.param(
            ("simulate", "--geometry", "INT1", "--departures", "d", "--policy", "static", "--out-dir", "o"),
            "yellow",
            DEFAULT_YELLOW,
            id="simulate",
        ),
        pytest.param(("rl-train", "--tmc", "t", "--out", "w"), "yellow", DEFAULT_YELLOW, id="rl-train"),
        pytest.param(("tmc", "--trajectories", "t", "--paths", "p", "--out", "o"), "eps", DEFAULT_EPS, id="tmc-eps"),
        pytest.param(
            ("tmc", "--trajectories", "t", "--paths", "p", "--out", "o"),
            "min_sim",
            DEFAULT_MIN_SIMILARITY,
            id="tmc-min-sim",
        ),
    ],
)
def test_option_defaults_are_the_library_constants(argv, option, constant):
    assert getattr(build_parser().parse_args(argv), option) == constant


def test_gen_plan_simulate_export_pipeline(tmp_path, demand_spec_file):
    gen_dir = tmp_path / "gen"
    assert run_cli("gen", "--demand-spec", demand_spec_file, "--out-dir", gen_dir) == 0
    departures = gen_dir / "departures.csv"
    minute_tmc = gen_dir / "minute_tmc.csv"
    plans = read_departures(departures)
    tables = read_minute_tmc(minute_tmc)
    assert len(tables) == 120
    assert tables.total == len(plans) > 0

    program_csv = tmp_path / "program.csv"
    assert run_cli(
        "plan", "--tmc", minute_tmc, "--policy", "hybrid", "--cycle", 90,
        "--peak-start", 60, "--peak-end", 120, "--out", program_csv,
    ) == 0
    program = read_program(program_csv)
    assert len(program) == 120

    sim_dir = tmp_path / "sim"
    assert run_cli(
        "simulate", "--geometry", "INT2", "--departures", departures,
        "--policy", "dynamic", "--cycle", 90, "--out-dir", sim_dir,
    ) == 0
    summary = (sim_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "injected,served,residual_queue,total_wait,nwt"
    assert int(summary[1].split(",")[0]) == len(plans)

    sumo_dir = tmp_path / "sumo"
    assert run_cli(
        "export-sumo", "--departures", departures, "--program", program_csv,
        "--out-dir", sumo_dir,
    ) == 0
    assert read_routes(sumo_dir / "routes.rou.xml") == plans
    assert (sumo_dir / "tls.add.xml").exists()
    assert (sumo_dir / "tls_schedule.csv").read_text().splitlines()[0] == "minute,program_id"


def test_tmc_subcommand(tmp_path):
    paths = synthetic_typical_paths()
    paths_file = tmp_path / "paths.csv"
    write_typical_paths(paths, paths_file)
    trajs = [Trajectory(p.movement.name, 1, p.points) for p in paths]
    trajs.append(Trajectory("walker", 0, paths[0].points))
    trajs_file = tmp_path / "trajs.csv"
    write_trajectories(trajs, trajs_file)
    out = tmp_path / "tmc.csv"
    assert run_cli("tmc", "--trajectories", trajs_file, "--paths", paths_file, "--out", out) == 0
    tables = read_minute_tmc(out)
    assert len(tables) == 1
    assert tables[0].counts == (1,) * 12


@pytest.mark.parametrize("eps, code", [("399", 0), ("400", 1), ("1e300", 1)])
def test_tmc_rejects_an_eps_as_wide_as_the_paths(tmp_path, capsys, eps, code):
    # The synthetic paths span 400 x 400; at eps >= 400 every path point matches every other.
    paths = synthetic_typical_paths()
    write_typical_paths(paths, tmp_path / "paths.csv")
    write_trajectories([Trajectory(p.movement.name, 1, p.points) for p in paths], tmp_path / "trajs.csv")
    argv = ("tmc", "--trajectories", tmp_path / "trajs.csv", "--paths", tmp_path / "paths.csv", "--eps", eps)
    assert run_cli(*argv, "--out", tmp_path / "tmc.csv") == code
    err = capsys.readouterr().err
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "diameter" in err
    else:
        assert err == "" and read_minute_tmc(tmp_path / "tmc.csv").total == len(paths)


def seeded_tracks(seed: int, vehicles: int, pedestrians: int, strays: int) -> list[Trajectory]:
    """Noisy, thinned copies of the synthetic reference paths, with pedestrians and strays.

    Every tenth vehicle keeps only its approach half, which is shared by the
    left, through and right paths of its origin, so similarity ties are common.
    The noise scale varies per track, so some vehicles fall below the
    acceptance similarity. Tracks have 2-29 points and come in shuffled order.
    """
    rng = np.random.default_rng(seed)
    reference = synthetic_typical_paths()
    tracks = []
    for i in range(vehicles):
        pts = np.array(reference[rng.integers(12)].points)
        if i % 10 == 0:
            pts = pts[: len(pts) // 2 + 1]
        keep = np.sort(rng.choice(len(pts), size=rng.integers(len(pts) // 2, len(pts) + 1), replace=False))
        pts = pts[keep] + rng.normal(0.0, rng.uniform(4.0, 24.0), size=(len(keep), 2))
        tracks.append(Trajectory(f"v{i:04d}", 1, tuple(map(tuple, np.round(pts, 2).tolist()))))
    for i in range(pedestrians + strays):
        high = 400.0 if i < pedestrians else 60.0
        start, end = rng.uniform(0.0, high, size=(2, 2))
        f = np.linspace(0.0, 1.0, int(rng.integers(2, 30)))[:, None]
        pts = np.round(start + f * (end - start), 2)
        tracks.append(Trajectory(f"w{i:04d}", int(i >= pedestrians), tuple(map(tuple, pts.tolist()))))
    return [tracks[k] for k in rng.permutation(len(tracks))]


# sha256 of tmc.csv for seeded_tracks(11, 1000, 200, 40), recorded with the scalar LCSS classifier.
PINNED_TMC_SHA256 = "d748013318d0d466ff94592ecf7d2859a4c7715887d8382766475c207b5ccdcc"


def test_tmc_bytes_are_pinned(tmp_path):
    paths_file = tmp_path / "paths.csv"
    write_typical_paths(synthetic_typical_paths(), paths_file)
    trajs_file = tmp_path / "trajs.csv"
    write_trajectories(seeded_tracks(11, 1000, 200, 40), trajs_file)
    out = tmp_path / "tmc.csv"
    assert run_cli("tmc", "--trajectories", trajs_file, "--paths", paths_file, "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_TMC_SHA256


# sha256 of the gen and export-sumo outputs for `gen --pattern PC --seed 7` and a
# dynamic program, recorded with the one-VehiclePlan-per-vehicle pipeline.
PINNED_FILE_SHA256 = {
    "gen/departures.csv": "0c8f6988d9be6524f3749c790b2f5d092f62248cd2a48553779037e173ef5d93",
    "gen/minute_tmc.csv": "d35fdbf6f183ad6a4e9d8f9d14c77e7da5567d3d5ec370773ce7ac60687cc717",
    "sumo/routes.rou.xml": "c17b50ccea66ffed8e5e5290019ddb1d476948b1da5fc4c6cbd7eac63601849e",
    "sumo/tls.add.xml": "29acf9215ff399cda476a53e356b53291e48b9da926e023a991b1bdc47d52ab3",
}

# sha256 of the same demand's `plan` output under every policy, the dynamic
# program's switch schedule and the rl program's tlLogic document, recorded
# while a program was a tuple of per-minute plans of four phase objects. The rl
# allocator comes from `rl-train --episodes 3 --seed 1` and plans split phases.
PINNED_PROGRAM_SHA256 = {
    "static.csv": "ec210a28650577165dda7461efec0cd10443fa6d530cb4a91b5e9d62a0da5326",
    "dynamic.csv": "7c6ce72cbaa76059b8e17ba0522834091bb623acc6e280be2137a217b510e7dc",
    "hybrid.csv": "c1480023fbd0a535bbfa63880c9ddf38591fdb0be6cfb48d644035bceb59c72e",
    "rl.csv": "1a6060907694562091a117b68e457811d601db82f2c80d05078dc0ba8b14a200",
    "sumo/tls_schedule.csv": "d5f3b937f12afc1c83298b890cf45d28a3d851e0ab97118d19255624b9f94f40",
    "sumo_rl/tls.add.xml": "ea875d7cc8003aa69e53950e93512d141dd2ff755ba4822de61b504328386ad9",
}


def test_gen_and_export_bytes_are_pinned(tmp_path):
    assert run_cli("gen", "--pattern", "PC", "--seed", 7, "--out-dir", tmp_path / "gen") == 0
    tmc, weights = tmp_path / "gen" / "minute_tmc.csv", tmp_path / "weights.txt"
    assert run_cli("rl-train", "--tmc", tmc, "--episodes", 3, "--seed", 1, "--out", weights) == 0
    for policy in ("static", "dynamic", "hybrid", "rl"):
        program = tmp_path / f"{policy}.csv"
        assert run_cli("plan", "--tmc", tmc, "--policy", policy, "--weights", weights, "--out", program) == 0
    for policy, out in (("dynamic", "sumo"), ("rl", "sumo_rl")):
        assert run_cli(
            "export-sumo", "--departures", tmp_path / "gen" / "departures.csv", "--program",
            tmp_path / f"{policy}.csv", "--out-dir", tmp_path / out,
        ) == 0
    pinned = PINNED_FILE_SHA256 | PINNED_PROGRAM_SHA256
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in pinned}
    assert digests == pinned


def test_rl_train_and_plan(tmp_path):
    tmc_file = tmp_path / "tmc.csv"
    write_minute_tmc(MinuteTmc([(5, 20, 5) + (2,) * 9] * 10), tmc_file)
    weights = tmp_path / "weights.txt"
    log = tmp_path / "log.csv"
    assert run_cli(
        "rl-train", "--tmc", tmc_file, "--episodes", 3, "--seed", 1,
        "--log", log, "--out", weights,
    ) == 0
    assert weights.exists()
    assert log.read_text().splitlines()[0] == "episode,epsilon,mean_reward"

    program_csv = tmp_path / "rl_program.csv"
    assert run_cli(
        "plan", "--tmc", tmc_file, "--policy", "rl", "--weights", weights,
        "--cycle", 90, "--out", program_csv,
    ) == 0
    program = read_program(program_csv)
    assert len(program) == 10
    assert program.layout == SPLIT_PHASE

    sumo_dir = tmp_path / "sumo"
    departures = tmp_path / "departures.csv"
    departures.write_text("id,depart,movement\nv0,0,WBT\n")
    assert run_cli(
        "export-sumo", "--departures", departures, "--program", program_csv,
        "--out-dir", sumo_dir,
    ) == 0
    first_phase = ET.parse(sumo_dir / "tls.add.xml").getroot().find("tlLogic/phase")
    assert first_phase.get("state") == "GGGrrrrrrrrr"


def test_experiment_subcommand(tmp_path):
    spec = tmp_path / "grid.txt"
    spec.write_text(
        "geometries = INT1\npatterns = PA\npolicies = static, dynamic\ncycles = 90\n"
        "mu_offpeak = 200\nsigma_offpeak = 20\nhours = offpeak\nseed = 4\n"
    )
    out = tmp_path / "exp"
    assert run_cli("experiment", "--spec", spec, "--out-dir", out) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 3
    winners = (out / "winners.csv").read_text().splitlines()
    assert winners[0] == "geometry,pattern,winner"
    assert len(winners) == 2


class TestValidationFailures:
    def test_unknown_geometry(self, tmp_path, demand_spec_file):
        gen_dir = tmp_path / "gen"
        run_cli("gen", "--demand-spec", demand_spec_file, "--out-dir", gen_dir)
        code = run_cli(
            "simulate", "--geometry", "NOPE", "--departures", gen_dir / "departures.csv",
            "--policy", "static", "--out-dir", tmp_path / "x",
        )
        assert code == 1

    def test_rl_plan_without_weights(self, tmp_path):
        tmc_file = tmp_path / "tmc.csv"
        write_minute_tmc(MinuteTmc([(0,) * 12]), tmc_file)
        assert run_cli("plan", "--tmc", tmc_file, "--policy", "rl", "--out", tmp_path / "p.csv") == 1

    def test_missing_file(self, tmp_path):
        assert run_cli(
            "plan", "--tmc", tmp_path / "absent.csv", "--policy", "static",
            "--out", tmp_path / "p.csv",
        ) == 1

    def test_bad_demand_spec(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("pattern = NOPE\n")
        assert run_cli("gen", "--demand-spec", bad, "--out-dir", tmp_path / "g") == 1

    @pytest.mark.parametrize(
        "policy, window, fragment",
        [
            pytest.param("hybrid", (300, 400), "must satisfy 0 <= start < end <= 240", id="outside-the-stream"),
            pytest.param("hybrid", (230, 241), "must satisfy 0 <= start < end <= 240", id="one-past-the-stream"),
            pytest.param("hybrid", (10, 10), "must satisfy 0 <= start < end <= 240", id="empty"),
            pytest.param("hybrid", (20, 10), "must satisfy 0 <= start < end <= 240", id="negative"),
            pytest.param("hybrid", (-1, 10), "must satisfy 0 <= start < end <= 240", id="before-the-stream"),
            pytest.param("dynamic", (60, 180), "apply to the hybrid policy only, not dynamic", id="dynamic"),
            pytest.param("static", (None, 180), "apply to the hybrid policy only, not static", id="static-end-only"),
        ],
    )
    def test_peak_window_plan_would_ignore(self, tmp_path, capsys, policy, window, fragment):
        tmc_file = tmp_path / "tmc.csv"
        write_minute_tmc(MinuteTmc([(minute % 7,) * 12 for minute in range(240)]), tmc_file)
        flags = [f for flag, value in zip(("--peak-start", "--peak-end"), window) if value is not None
                 for f in (flag, value)]
        code = run_cli("plan", "--tmc", tmc_file, "--policy", policy, *flags, "--out", tmp_path / "p.csv")
        err = capsys.readouterr().err
        assert code == 1 and len(err.splitlines()) == 1 and err.startswith("error: ") and fragment in err
        assert not (tmp_path / "p.csv").exists()

    def test_whole_stream_peak_window_is_the_dynamic_program(self, tmp_path):
        tmc_file = tmp_path / "tmc.csv"
        tables = MinuteTmc([(minute % 7, 3, 1) * 4 for minute in range(240)])
        write_minute_tmc(tables, tmc_file)
        argv = ("plan", "--tmc", tmc_file, "--policy", "hybrid", "--peak-start", 0, "--peak-end", 240)
        assert run_cli(*argv, "--out", tmp_path / "p.csv") == 0
        assert read_program(tmp_path / "p.csv") == build_program(tables, "dynamic", 90)

    @pytest.mark.parametrize("minutes, code", [(60, 1), (61, 0)])
    def test_default_peak_window_past_the_stream(self, tmp_path, capsys, minutes, code):
        tmc_file = tmp_path / "tmc.csv"
        write_minute_tmc(MinuteTmc([(minute % 7, 3, 1) * 4 for minute in range(minutes)]), tmc_file)
        assert run_cli("plan", "--tmc", tmc_file, "--policy", "hybrid", "--out", tmp_path / "p.csv") == code
        err = capsys.readouterr().err
        if code:
            assert len(err.splitlines()) == 1 and err.startswith("error: the default hybrid peak, minutes 60-179,")
            assert str(tmc_file) in err and not (tmp_path / "p.csv").exists()
        else:
            assert err == "" and read_program(tmp_path / "p.csv").greens[60].tolist() != [18] * 4

    def test_incomplete_peak_window(self, tmp_path):
        tmc_file = tmp_path / "tmc.csv"
        write_minute_tmc(MinuteTmc([(0,) * 12]), tmc_file)
        code = run_cli(
            "plan", "--tmc", tmc_file, "--policy", "hybrid", "--peak-start", 10,
            "--out", tmp_path / "p.csv",
        )
        assert code == 1


class TestMalformedInputs:
    """Each bad input ends in exit code 1 and one ``error:`` line, never a traceback."""

    def assert_one_error_line(self, capsys, code, *fragments):
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        for fragment in fragments:
            assert fragment in err

    def test_tmc_file_without_a_wbt_column(self, tmp_path, capsys):
        tmc_file = tmp_path / "tmc.csv"
        tmc_file.write_text("minute,WBL,WBR,NBL,NBT,NBR,EBL,EBT,EBR,SBL,SBT,SBR\n0,1,1,1,1,1,1,1,1,1,1,1\n")
        code = run_cli("plan", "--tmc", tmc_file, "--policy", "static", "--out", tmp_path / "p.csv")
        self.assert_one_error_line(capsys, code, "tmc.csv", "header")

    def test_departure_with_an_unknown_movement(self, tmp_path, capsys):
        departures = tmp_path / "departures.csv"
        departures.write_text("id,depart,movement\nv0,0,WBT\nv1,4,XYZ\n")
        code = run_cli(
            "simulate", "--geometry", "INT1", "--departures", departures,
            "--policy", "static", "--out-dir", tmp_path / "sim",
        )
        self.assert_one_error_line(capsys, code, "'XYZ'")

    @pytest.mark.parametrize("ident", ["v\x00", "v\x01"])
    def test_departure_id_xml_cannot_carry(self, tmp_path, capsys, monkeypatch, ident):
        self.write_inputs(tmp_path, monkeypatch, "departures.csv", f"{ident},0,WBT\n")
        code = run_cli(*self.COMMANDS["export-sumo"])
        self.assert_one_error_line(capsys, code, f"vehicle {ident!r}: ")
        assert not (tmp_path / "sumo" / "routes.rou.xml").exists()

    def test_failing_grid_cell(self, tmp_path, capsys):
        spec = tmp_path / "grid.txt"
        spec.write_text("geometries = INT1\npatterns = PA\npolicies = static\ncycles = 20\nhours = offpeak\n")
        code = run_cli("experiment", "--spec", spec, "--out-dir", tmp_path / "exp")
        self.assert_one_error_line(capsys, code, "cell geometry=INT1 pattern=PA policy=static cycle=20")

    def test_truncated_rl_snapshot(self, tmp_path, capsys):
        tmc_file = tmp_path / "tmc.csv"
        write_minute_tmc(MinuteTmc([(0,) * 12]), tmc_file)
        weights = tmp_path / "weights.txt"
        QFunction(hidden_width=4).save(weights)
        weights.write_text("".join(weights.read_text().splitlines(keepends=True)[:3]))
        code = run_cli(
            "plan", "--tmc", tmc_file, "--policy", "rl", "--weights", weights, "--out", tmp_path / "p.csv"
        )
        self.assert_one_error_line(capsys, code, "'norm'")

    @pytest.mark.parametrize(
        "line, text",
        [
            pytest.param(4, "norm nan", id="norm-nan"),
            pytest.param(4, "norm inf", id="norm-inf"),
            pytest.param(4, "norm 1e400", id="norm-1e400"),
            pytest.param(4, "norm 0.0", id="norm-zero"),
            pytest.param(4, "norm x", id="norm-x"),
            pytest.param(1, "layers 4 four 4 84", id="layers-x"),
            pytest.param(2, "seed x", id="seed-x"),
            pytest.param(2, "seed -1", id="seed-negative"),
            pytest.param(3, "episodes x", id="episodes-x"),
            pytest.param(3, "episodes -4", id="episodes-negative"),
            pytest.param(5, "nan", id="first-weight-nan"),
            pytest.param(9, "inf", id="weight-inf"),
            pytest.param(9, "-inf", id="weight-minus-inf"),
            pytest.param(9, "1e400", id="weight-1e400"),
            pytest.param(9, "x", id="weight-x"),
            pytest.param(9, "", id="weight-empty"),
        ],
    )
    def test_bad_snapshot_value_names_the_file_and_the_line(self, tmp_path, capsys, line, text):
        tmc_file, weights = tmp_path / "tmc.csv", tmp_path / "weights.txt"
        write_minute_tmc(MinuteTmc([(0,) * 12]), tmc_file)
        QFunction(hidden_width=4).save(weights)
        lines = weights.read_text().splitlines(keepends=True)
        lines[line - 1] = text + "\n"
        weights.write_text("".join(lines))
        code = run_cli(
            "plan", "--tmc", tmc_file, "--policy", "rl", "--weights", weights, "--out", tmp_path / "p.csv"
        )
        self.assert_one_error_line(capsys, code, f"weights.txt, line {line}: ")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            pytest.param("layers 4 4 5 84\n", "unexpected layer sizes", id="unequal-hidden-widths"),
            pytest.param("layers 4 0 0 84\n", "unexpected layer sizes", id="no-hidden-units"),
            pytest.param("layers 4 5 5 84\n", "expected 559 weights, found 460", id="weights-for-other-sizes"),
            pytest.param("layers 4 1000000 1000000 84\n", "expected 1000090000084 weights", id="wide-layers"),
            pytest.param(f"layers 4 {'9' * 401} {'9' * 401} 84\n", "weights, found 460", id="width-of-401-digits"),
        ],
    )
    def test_snapshot_of_other_layer_sizes_names_the_file(self, tmp_path, capsys, text, fragment):
        tmc_file, weights = tmp_path / "tmc.csv", tmp_path / "weights.txt"
        write_minute_tmc(MinuteTmc([(0,) * 12]), tmc_file)
        QFunction(hidden_width=4).save(weights)
        weights.write_text(text + "".join(weights.read_text().splitlines(keepends=True)[1:]))
        code = run_cli(
            "plan", "--tmc", tmc_file, "--policy", "rl", "--weights", weights, "--out", tmp_path / "p.csv"
        )
        self.assert_one_error_line(capsys, code, "weights.txt: ", fragment)

    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(("plan", "--policy", "dynamic", "--out", "{out}/p.csv"), id="plan-dynamic"),
            pytest.param(("plan", "--policy", "rl", "--weights", "{weights}", "--out", "{out}/p.csv"), id="plan-rl"),
            pytest.param(("rl-train", "--episodes", "1", "--out", "{out}/w.txt"), id="rl-train"),
            pytest.param(
                ("simulate", "--geometry", "INT1", "--departures", "{departures}", "--policy", "dynamic",
                 "--out-dir", "{out}"),
                id="simulate-dynamic",
            ),
        ],
    )
    def test_cycle_past_the_float_range(self, tmp_path, capsys, command):
        code = self.run_timed(tmp_path, command, "--cycle", 10**400)
        self.assert_one_error_line(capsys, code, f"cycle {10**400}s is not below 2**53")

    def run_timed(self, tmp_path, command, *timing, departures="id,depart,movement\nv0,0,WBT\nv1,4,NBT\n") -> int:
        """``command`` with ``timing`` on a 3-minute TMC stream (or ``departures``) and a hidden-width-4 allocator."""
        (tmp_path / "departures.csv").write_text(departures)
        write_minute_tmc(MinuteTmc([(minute % 7, 3, 1) * 4 for minute in range(3)]), tmp_path / "tmc.csv")
        QFunction(hidden_width=4).save(tmp_path / "weights.txt")
        paths = {"out": tmp_path / "out", "weights": tmp_path / "weights.txt"}
        argv = [arg.format_map({**paths, "departures": tmp_path / "departures.csv"}) for arg in command]
        tmc = [] if argv[0] == "simulate" else ["--tmc", tmp_path / "tmc.csv"]
        return run_cli(*argv, *tmc, *timing)

    @pytest.mark.parametrize(
        "command, timing, fragment",
        [
            pytest.param(("plan", "--policy", "rl", "--weights", "{weights}", "--out", "{out}/p.csv"),
                         ("--yellow", 10**400), f"cycle 90s with {10**400}s yellows cannot give 4 greens of 5s",
                         id="plan-rl-yellow-past-the-float-range"),
            pytest.param(("plan", "--policy", "dynamic", "--out", "{out}/p.csv"),
                         ("--cycle", 4 * 10**400 + 100, "--yellow", 10**400),
                         f"cycle {4 * 10**400 + 100}s is not below 2**53", id="plan-dynamic-both-past-the-float-range"),
            pytest.param(("simulate", "--geometry", "INT1", "--departures", "{departures}", "--policy", "dynamic",
                          "--out-dir", "{out}"), ("--cycle", 4 * 10**400 + 100, "--yellow", 10**400),
                         f"cycle {4 * 10**400 + 100}s is not below 2**53",
                         id="simulate-dynamic-both-past-the-float-range"),
            pytest.param(("rl-train", "--episodes", "1", "--out", "{out}/w.txt"), ("--cycle", 30),
                         "cycle 30s with 3s yellows cannot give 4 greens of 5s", id="rl-train-short-cycle"),
            pytest.param(("rl-train", "--episodes", "1", "--out", "{out}/w.txt"), ("--yellow", -1),
                         "yellow must be non-negative", id="rl-train-negative-yellow"),
        ],
    )
    def test_timing_without_four_usable_greens(self, tmp_path, capsys, command, timing, fragment):
        self.assert_one_error_line(capsys, self.run_timed(tmp_path, command, *timing), fragment)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "departures, horizon",
        [
            pytest.param(f"id,depart,movement\nv0,0,WBT\nv1,{10**12},NBT\n", (), id="departure-at-10**12"),
            pytest.param(f"id,depart,movement\nv0,{MAX_HORIZON},WBT\n", (), id="departure-at-the-cap"),
            pytest.param("id,depart,movement\nv0,0,WBT\n", ("--horizon", MAX_HORIZON + 1), id="horizon-flag"),
            pytest.param("id,depart,movement\nv0,0,WBT\n", ("--horizon", 10**400), id="horizon-of-401-digits"),
            pytest.param("id,depart,movement\nv0,0,WBT\n", ("--horizon", 0), id="horizon-of-0"),
        ],
    )
    def test_horizon_outside_one_second_to_one_week(self, tmp_path, capsys, departures, horizon):
        command = ("simulate", "--geometry", "INT1", "--departures", "{departures}", "--policy", "static",
                   "--out-dir", "{out}")
        code = self.run_timed(tmp_path, command, *horizon, departures=departures)
        self.assert_one_error_line(capsys, code, f"horizon must be 1 to {MAX_HORIZON} seconds (one week), got ")

    def test_grid_of_more_hours_than_the_horizon_cap_names_the_spec(self, tmp_path, capsys):
        (tmp_path / "grid.txt").write_text("policies = static\nhours = " + ", ".join(["offpeak"] * 169) + "\n")
        code = run_cli("experiment", "--spec", tmp_path / "grid.txt", "--out-dir", tmp_path / "exp")
        self.assert_one_error_line(capsys, code, f"grid.txt: need 1 to {MAX_HORIZON // 3600} hours, got 169")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            pytest.param("patterns = \n", "grid.txt: need at least one pattern", id="no-patterns"),
            pytest.param("policies = ,\n", "grid.txt: need at least one policy", id="no-policies"),
            pytest.param("geometry_file = geometries.csv\n", "geometries.csv: no geometry rows", id="no-geometry-rows"),
        ],
    )
    def test_empty_grid_names_what_is_missing(self, tmp_path, capsys, monkeypatch, text, fragment):
        self.write_inputs(tmp_path, monkeypatch, "geometries.csv", "")  # a header and no rows
        (tmp_path / "grid.txt").write_text(f"hours = offpeak\n{text}")
        code = run_cli("experiment", "--spec", "grid.txt", "--out-dir", "exp")
        self.assert_one_error_line(capsys, code, fragment)
        assert not (tmp_path / "exp").exists()

    def test_grid_with_a_repeated_entry_names_the_spec(self, tmp_path, capsys):
        spec = "geometries = INT1\npatterns = PA, PA\npolicies = static\ncycles = 90, 90\nhours = offpeak\n"
        (tmp_path / "grid.txt").write_text(spec)
        code = run_cli("experiment", "--spec", tmp_path / "grid.txt", "--out-dir", tmp_path / "exp")
        self.assert_one_error_line(capsys, code, "grid.txt: patterns lists 'PA' more than once")
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(("plan", "--policy", "dynamic"), id="plan-dynamic"),
            pytest.param(("rl-train", "--episodes", "1"), id="rl-train"),
        ],
    )
    def test_count_of_401_digits_names_the_file_and_the_line(self, tmp_path, capsys, monkeypatch, command):
        self.write_inputs(tmp_path, monkeypatch, "tmc.csv", "0," + "1," * 11 + "9" * 401 + "\n")
        code = run_cli(command[0], "--tmc", "tmc.csv", *command[1:], "--out", "out.csv")
        self.assert_one_error_line(capsys, code, "tmc.csv, line 2: count must lie in [0, 2**32)")

    @pytest.mark.parametrize(
        "command, fragment",
        [
            pytest.param(
                ("rl-train", "--tmc", "tmc.csv", "--episodes", "1", "--seed", "-3", "--out", "w.txt"),
                "stream 0: seed must be a non-negative integer, got -3",
                id="rl-train",
            ),
            pytest.param(
                ("simulate", "--geometry", "INT1", "--departures", "departures.csv", "--policy", "rl",
                 "--seed", "-2", "--out-dir", "sim"),
                "stream 0: seed must be a non-negative integer, got -2",
                id="simulate-rl",
            ),
            pytest.param(("experiment", "--seed", "-1", "--out-dir", "exp"), "seed must be non-negative, got -1",
                         id="experiment"),
            pytest.param(("gen", "--seed", "-1", "--out-dir", "g"), "seed must be non-negative, got -1", id="gen"),
            pytest.param(("gen", "--demand-spec", "demand.txt", "--out-dir", "g"),
                         "demand.txt: seed must be non-negative, got -4", id="demand-spec"),
        ],
    )
    def test_negative_seed_is_named(self, tmp_path, capsys, monkeypatch, command, fragment):
        self.write_inputs(tmp_path, monkeypatch, "tmc.csv", "0,1,1,1,1,1,1,1,1,1,1,1,1\n")
        (tmp_path / "demand.txt").write_text("pattern = PC\nseed = -4\n")
        code = run_cli(*command)
        self.assert_one_error_line(capsys, code, fragment)

    @pytest.mark.parametrize(
        "command, text, fragment",
        [
            pytest.param("gen", "mu_peak = inf", "mu_peak must be finite, got inf", id="gen-mu-inf"),
            pytest.param("gen", "mu_peak = 1e400", "mu_peak must be finite, got inf", id="gen-mu-1e400"),
            pytest.param("gen", "mu_peak = nan", "mu_peak must be finite, got nan", id="gen-mu-nan"),
            pytest.param("gen", "sigma_offpeak = -inf", "sigma_offpeak must be finite, got -inf", id="gen-sigma-inf"),
            pytest.param("gen", "mu_peak = 1e25", "mu_peak must be below 2**32, got 1e+25", id="gen-mu-1e25"),
            pytest.param("gen", "sigma_peak = 4294967296", "sigma_peak must be below 2**32, got 4294967296.0",
                         id="gen-sigma-2**32"),
            pytest.param("gen", "turn_ratios = nan, 0.5, 0.5", "turn fractions must be finite, got (nan, 0.5, 0.5)",
                         id="gen-turn-nan"),
            pytest.param("experiment", "mu_peak = 4294967296", "mu_peak must be below 2**32, got 4294967296.0",
                         id="grid-mu-2**32"),
            pytest.param("experiment", "mu_offpeak = inf", "mu_offpeak must be finite, got inf", id="grid-mu-inf"),
            pytest.param("experiment", "sigma_peak = nan", "sigma_peak must be finite, got nan", id="grid-sigma-nan"),
            pytest.param("experiment", "cycles = 60, x", "invalid literal for int() with base 10: 'x'",
                         id="grid-cycle-x"),
        ],
    )
    def test_bad_spec_value_names_the_file(self, tmp_path, capsys, monkeypatch, command, text, fragment):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.txt").write_text(f"hours = offpeak\n{text}\n")
        option = "--demand-spec" if command == "gen" else "--spec"
        code = run_cli(command, option, "spec.txt", "--out-dir", "out")
        self.assert_one_error_line(capsys, code, f"spec.txt: {fragment}")
        assert not (tmp_path / "out").exists()

    VALID_INPUTS = {
        "tmc.csv": "minute,WBL,WBT,WBR,NBL,NBT,NBR,EBL,EBT,EBR,SBL,SBT,SBR\n0,1,1,1,1,1,1,1,1,1,1,1,1\n",
        "departures.csv": "id,depart,movement\nv0,0,WBT\nv1,4,NBT\n",
        "geometries.csv": "id,lanes_1i,lanes_1o,lanes_2i,lanes_2o,lanes_3i,lanes_3o,lanes_4i,lanes_4o\nX,2,2,2,2,2,2,2,2\n",
        "program.csv": "minute,g1,y1,g2,y2,g3,y3,g4,y4\n0,21,3,21,3,21,3,21,3\n",
        "trajectories.csv": "id,class,frame,x,y\na,1,0,0,0\na,1,1,1,1\n",
        "paths.csv": "movement,x,y\nWBL,0,0\nWBL,1,1\n",
    }
    COMMANDS = {
        "plan": ("plan", "--tmc", "tmc.csv", "--policy", "static", "--out", "out.csv"),
        "simulate": ("simulate", "--geometry", "INT1", "--departures", "departures.csv", "--policy", "static",
                     "--out-dir", "sim"),
        "simulate-x": ("simulate", "--geometry", "X", "--geometry-file", "geometries.csv", "--departures",
                       "departures.csv", "--policy", "static", "--out-dir", "sim"),
        "export-sumo": ("export-sumo", "--departures", "departures.csv", "--program", "program.csv",
                        "--out-dir", "sumo"),
        "tmc": ("tmc", "--trajectories", "trajectories.csv", "--paths", "paths.csv", "--out", "out.csv"),
    }

    def write_inputs(self, tmp_path, monkeypatch, name, text):
        """Write every valid input into ``tmp_path``, then ``name`` as its header plus ``text``; chdir there."""
        for file_name, content in self.VALID_INPUTS.items():
            (tmp_path / file_name).write_text(content)
        header = self.VALID_INPUTS[name].splitlines(keepends=True)[0]
        (tmp_path / name).write_text(header + text)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize(
        "command, name, text, line",
        [
            pytest.param("plan", "tmc.csv", "0,1,1,1,1,1,1,1,1,1,1,1,x\n", 2, id="minute-tmc-count-x"),
            pytest.param("simulate", "departures.csv", "v0,0,WBT\nv1,x,NBT\n", 3, id="departure-second-x"),
            pytest.param("simulate", "departures.csv", "v0,0,WBT\nv1,4,XYZ\n", 3, id="departure-movement-xyz"),
            pytest.param("simulate-x", "geometries.csv", "X,2,2,2,2,2,2,2,x\n", 2, id="geometry-lanes-x"),
            pytest.param("export-sumo", "program.csv", "0,x,3,21,3,21,3,21,3\n", 2, id="program-green-x"),
            pytest.param("tmc", "trajectories.csv", "a,1,0,0,0\na,1,one,1,1\n", 3, id="trajectory-frame-one"),
            pytest.param("tmc", "paths.csv", "WBL,0,0\nWBL,1,y\n", 3, id="path-coordinate-y"),
        ],
    )
    def test_bad_field_names_the_file_and_the_line(self, tmp_path, capsys, monkeypatch, command, name, text, line):
        self.write_inputs(tmp_path, monkeypatch, name, text)
        code = run_cli(*self.COMMANDS[command])
        self.assert_one_error_line(capsys, code, f"{name}, line {line}: ")

    @pytest.mark.parametrize(
        "name, text, fragment",
        [
            pytest.param("trajectories.csv", "a,1,0,0,0\nb,1,0,0,0\nb,1,1,1,1\n", "trajectory a: ", id="one-point-track"),
            pytest.param("paths.csv", "WBL,0,0\nWBL,1,1\nNBT,0,0\n", "path NBT: ", id="one-point-path"),
        ],
    )
    def test_one_point_track_names_the_file_and_the_id(self, tmp_path, capsys, monkeypatch, name, text, fragment):
        self.write_inputs(tmp_path, monkeypatch, name, text)
        code = run_cli(*self.COMMANDS["tmc"])
        self.assert_one_error_line(capsys, code, f"{name}: {fragment}", "at least two points")

    @pytest.mark.parametrize(
        "name, text, fragment",
        [
            pytest.param("trajectories.csv", "a,1,0,nan,0\na,1,1,1,1\n", "trajectory a: ", id="nan-track"),
            pytest.param("trajectories.csv", "a,1,0,0,0\na,1,1,inf,1\n", "trajectory a: ", id="inf-track"),
            pytest.param("paths.csv", "WBL,0,0\nWBL,1,nan\n", "path WBL: ", id="nan-path"),
            pytest.param("paths.csv", "WBL,-inf,0\nWBL,1,1\n", "path WBL: ", id="inf-path"),
        ],
    )
    def test_non_finite_coordinate_names_the_file_and_the_id(self, tmp_path, capsys, monkeypatch, name, text, fragment):
        self.write_inputs(tmp_path, monkeypatch, name, text)
        code = run_cli(*self.COMMANDS["tmc"])
        self.assert_one_error_line(capsys, code, f"{name}: {fragment}", "not a finite number")

    @pytest.mark.parametrize(
        "options, paths_text, fragment",
        [
            pytest.param(("--eps", "0"), None, "eps", id="eps-zero"),
            pytest.param(("--eps", "nan"), None, "eps", id="eps-nan"),
            pytest.param(("--eps", "inf"), None, "eps", id="eps-inf"),
            pytest.param(("--min-sim", "1.5"), None, "min_sim", id="min-sim-above-one"),
            pytest.param((), "movement,x,y\n", "typical path", id="no-paths"),
        ],
    )
    def test_bad_classifier_argument_fails_on_pedestrians_only(
        self, tmp_path, capsys, monkeypatch, options, paths_text, fragment
    ):
        # The file holds no vehicle, so an argument checked only per vehicle would pass.
        self.write_inputs(tmp_path, monkeypatch, "trajectories.csv", "p,0,0,0,0\np,0,1,1,1\n")
        if paths_text is not None:
            (tmp_path / "paths.csv").write_text(paths_text)
        code = run_cli(*self.COMMANDS["tmc"], *options)
        self.assert_one_error_line(capsys, code, fragment)


@pytest.fixture()
def tracing(monkeypatch):
    """The benchmark's span tracer, perfbench/tracing.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_names_are_still_importable(tracing):
    # perfbench/tracing.py wraps these module attributes by name; a moved name
    # would otherwise surface only as a missing span in a benchmark run.
    missing = [
        f"{site}.{layer.attr}"
        for layer in tracing.LAYERS
        for site in layer.sites
        if not hasattr(importlib.import_module(site), layer.attr)
    ]
    assert len(tracing.LAYERS) > 0 and missing == []


def test_benchmark_traced_experiment_pass(tmp_path, tracing):
    # The traced benchmark pass counts cell ticks from sim.run's arguments; a
    # kernel signature it cannot read would otherwise fail only in a benchmark run.
    spec = tmp_path / "grid.txt"
    spec.write_text(
        "geometries = INT1\npatterns = PA\npolicies = static, rl\ncycles = 60, 90\n"
        "hours = offpeak\nrl_episodes = 2\n"
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        code = run_cli("experiment", "--spec", spec, "--out-dir", tmp_path / "exp")
    runs = [span for span in tracer.spans if span.name == "sim.run"]
    assert code == 0 and tracer.unpatched == []
    assert runs and all(span.counts.get("cell_ticks") == 3600 for span in runs)
    assert tracing.nesting_errors(tracer.spans) == []


def test_benchmark_traced_rl_training(tmp_path, tracing):
    # The traced benchmark pass counts training steps from rl.train's arguments;
    # a trainer signature it cannot read would otherwise fail only in a benchmark run.
    spec = tmp_path / "grid.txt"
    spec.write_text(
        "geometries = INT1\npatterns = PA, PC\npolicies = rl\ncycles = 90\nhours = offpeak\nrl_episodes = 2\n"
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        code = run_cli("experiment", "--spec", spec, "--out-dir", tmp_path / "exp")
    trainings = [span for span in tracer.spans if span.name == "rl.train"]
    assert code == 0 and tracer.unpatched == []
    assert len(trainings) == 1 and "steps" in trainings[0].counts
    assert tracing.nesting_errors(tracer.spans) == []


def test_benchmark_traced_file_roundtrip(tmp_path, tracing):
    # The traced cli-roundtrip pass counts vehicles and bytes from these layers'
    # return values and arguments; a name or signature they no longer match
    # would otherwise fail only in a benchmark run.
    spec = tmp_path / "demand.txt"
    spec.write_text("pattern = PC\nhours = offpeak\nseed = 7\n")
    gen, program = tmp_path / "gen", tmp_path / "program.csv"
    tracer = tracing.Tracer()
    with tracer.installed():
        codes = [
            run_cli("gen", "--demand-spec", spec, "--out-dir", gen),
            run_cli("plan", "--tmc", gen / "minute_tmc.csv", "--policy", "dynamic", "--out", program),
            run_cli(
                "simulate", "--geometry", "INT1", "--departures", gen / "departures.csv", "--policy", "static",
                "--out-dir", tmp_path / "sim",
            ),
            run_cli(
                "export-sumo", "--departures", gen / "departures.csv", "--program", program,
                "--out-dir", tmp_path / "sumo",
            ),
        ]
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    assert codes == [0, 0, 0, 0] and tracer.unpatched == []
    [demand] = spans["trafficgen.generate_demand"]
    assert demand.counts["vehicles"] == len(read_departures(gen / "departures.csv")) > 0
    assert len(spans["trafficgen.write_departures"]) == 1
    assert len(spans["trafficgen.read_departures"]) == 2
    [routes] = spans["sumo_io.write_routes"]
    assert routes.counts["bytes"] > 0
    assert tracing.nesting_errors(tracer.spans) == []
