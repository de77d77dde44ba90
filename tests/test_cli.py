"""End-to-end tests for the command-line surface."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from tmcsignal.cli import main
from tmcsignal.model import Movement
from tmcsignal.signals import read_program
from tmcsignal.sumo_io import read_routes
from tmcsignal.trafficgen import read_departures, read_minute_tmc, write_minute_tmc
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


def test_rl_train_and_plan(tmp_path):
    from tmcsignal.model import TmcTable
    from tmcsignal.trafficgen import MinuteTmc

    tmc_file = tmp_path / "tmc.csv"
    write_minute_tmc(MinuteTmc((TmcTable((5, 20, 5) + (2,) * 9),) * 10), tmc_file)
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
    assert program.plan_at(0).phases[0].served == frozenset(
        {Movement.WBL, Movement.WBT, Movement.WBR}
    )

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
        from tmcsignal.model import TmcTable
        from tmcsignal.trafficgen import MinuteTmc

        tmc_file = tmp_path / "tmc.csv"
        write_minute_tmc(MinuteTmc((TmcTable.zero(),)), tmc_file)
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
        from tmcsignal.model import TmcTable
        from tmcsignal.trafficgen import MinuteTmc

        tmc_file = tmp_path / "tmc.csv"
        write_minute_tmc(MinuteTmc((TmcTable.zero(),)), tmc_file)
        code = run_cli(
            "plan", "--tmc", tmc_file, "--policy", "hybrid", "--peak-start", 10,
            "--out", tmp_path / "p.csv",
        )
        assert code == 1
