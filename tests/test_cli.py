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

from tmcsignal.cli import main
from tmcsignal.rl import QFunction
from tmcsignal.signals import SPLIT_PHASE, read_program
from tmcsignal.sumo_io import read_routes
from tmcsignal.trafficgen import MinuteTmc, read_departures, read_minute_tmc, write_minute_tmc
from tmcsignal.trajectory import (
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
        ],
    )
    def test_negative_seed_is_named(self, tmp_path, capsys, monkeypatch, command, fragment):
        self.write_inputs(tmp_path, monkeypatch, "tmc.csv", "0,1,1,1,1,1,1,1,1,1,1,1,1\n")
        code = run_cli(*command)
        self.assert_one_error_line(capsys, code, fragment)

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
