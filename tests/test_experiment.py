"""Tests for the comparison-grid harness."""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace

import pytest

from tmcsignal import experiment
from tmcsignal.experiment import (
    DEFAULT_CYCLES,
    ExperimentError,
    ExperimentSpec,
    parse_experiment_spec,
    run_experiment,
    winners,
    write_report,
    write_winners,
)
from tmcsignal.model import write_geometries
from tmcsignal.sim import SimResult
from tmcsignal.signals import build_program
from tmcsignal.trafficgen import BimodalProfile

QUICK_PROFILE = BimodalProfile(
    mu_offpeak=300, sigma_offpeak=30, mu_peak=900, sigma_peak=60, hours=("offpeak",)
)


def quick_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        geometry_ids=("INT1", "INT2"),
        patterns=("PA", "PC"),
        policies=("static", "dynamic"),
        cycles=(90,),
        profile=QUICK_PROFILE,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpecParsing:
    def test_parse_full(self):
        spec = parse_experiment_spec(
            """
            geometries = INT1, INT3
            patterns = pa, pc
            policies = static, hybrid
            cycles = 60, 90
            seed = 12
            mu_offpeak = 100
            hours = offpeak, peak
            """
        )
        assert spec.geometry_ids == ("INT1", "INT3")
        assert spec.patterns == ("PA", "PC")
        assert spec.policies == ("static", "hybrid")
        assert spec.cycles == (60, 90)
        assert spec.seed == 12
        assert spec.profile.mu_offpeak == 100
        assert spec.profile.hours == ("offpeak", "peak")

    def test_all_geometries_keyword(self):
        assert parse_experiment_spec("geometries = all").geometry_ids == ()

    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.patterns == ("PA", "PB", "PC", "PD", "PE", "PF", "PG")
        assert spec.cycles == DEFAULT_CYCLES

    def test_rejects_unknown_values(self):
        with pytest.raises(ValueError):
            parse_experiment_spec("patterns = PZ")
        with pytest.raises(ValueError):
            parse_experiment_spec("policies = websters")
        with pytest.raises(ValueError):
            parse_experiment_spec("frobnicate = 1")
        with pytest.raises(ValueError):
            ExperimentSpec(cycles=())
        with pytest.raises(ValueError, match="^need at least one pattern$"):
            parse_experiment_spec("patterns = ")
        with pytest.raises(ValueError, match="^need at least one policy$"):
            parse_experiment_spec("policies = ,")
        with pytest.raises(ValueError, match="seed must be non-negative"):
            parse_experiment_spec("seed = -1")
        for text, repeated in [
            ("geometries = INT1, INT2, INT1", "geometry_ids lists 'INT1'"),
            ("patterns = PA, pa", "patterns lists 'PA'"),
            ("policies = static, rl, static", "policies lists 'static'"),
            ("cycles = 90, 90", "cycles lists 90"),
        ]:
            with pytest.raises(ValueError, match=f"{repeated} more than once"):
                parse_experiment_spec(text)

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="line 2: key 'cycles' given twice"):
            parse_experiment_spec("cycles = 60\ncycles = 90")


@pytest.fixture(scope="module")
def small_matrix():
    spec = quick_spec()
    return spec, run_experiment(spec)


class TestGrid:
    def test_grid_complete(self, small_matrix):
        spec, matrix = small_matrix
        assert len(matrix) == 2 * 2 * 2 * 1
        for geo in spec.geometry_ids:
            for pattern in spec.patterns:
                for policy in spec.policies:
                    for cycle in spec.cycles:
                        assert (geo, pattern, policy, cycle) in matrix

    def test_demand_shared_across_cells(self, small_matrix):
        _, matrix = small_matrix
        injected = {
            key[0:1] + key[2:]: r.injected for key, r in matrix.items() if key[1] == "PA"
        }
        assert len(set(injected.values())) == 1

    def test_report_bytes_deterministic(self, tmp_path):
        spec = quick_spec()
        for name in ("a", "b"):
            matrix = run_experiment(spec)
            write_report(matrix, tmp_path / f"{name}.csv")
            write_winners(matrix, tmp_path / f"w_{name}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "w_a.csv").read_bytes() == (tmp_path / "w_b.csv").read_bytes()

    def test_report_sorted_with_header(self, tmp_path):
        spec = quick_spec()
        matrix = run_experiment(spec)
        write_report(matrix, tmp_path / "report.csv")
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0].startswith("geometry,pattern,policy,cycle")
        keys = [tuple(line.split(",")[:4]) for line in lines[1:]]
        assert keys == sorted(keys)
        assert len(lines) == 1 + len(matrix)

    def test_small_grid_golden_digests(self, tmp_path):
        # Digests of the outputs this grid produced before the policy dispatch
        # and the keyed-text parser were merged; a refactor must not move them.
        spec = parse_experiment_spec(
            "geometries = INT1\npatterns = PA, PC\npolicies = static, dynamic, hybrid, rl\n"
            "cycles = 60, 90\nhours = offpeak\nrl_episodes = 3\n"
        )
        matrix = run_experiment(spec)
        write_report(matrix, tmp_path / "report.csv")
        write_winners(matrix, tmp_path / "winners.csv")
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("report.csv", "winners.csv")
        }
        assert digests == {
            "report.csv": "76332836f06f2a2229e74103225c1df90a24da4e4ac2294a42a356a16ae2b7d4",
            "winners.csv": "00f277118a26b48a582861d87d7d99f90105417561dddb43bd5bd42a4ac72e6e",
        }

    def test_hybrid_is_dynamic_in_the_profile_peak_only(self, monkeypatch):
        built = {}

        def spy(minute_tmcs, policy, cycle, *args, **kwargs):
            built[policy] = build_program(minute_tmcs, policy, cycle, *args, **kwargs)
            return built[policy]

        monkeypatch.setattr(experiment, "build_program", spy)
        profile = replace(QUICK_PROFILE, hours=("peak", "offpeak"))
        run_experiment(quick_spec(geometry_ids=("INT1",), patterns=("PC",), policies=("static", "dynamic", "hybrid"),
                                  profile=profile, seed=7))
        static, dynamic, hybrid = (built[policy].greens.tolist() for policy in ("static", "dynamic", "hybrid"))
        assert hybrid[:60] == dynamic[:60] != static[:60]
        assert hybrid[60:] == static[60:]

    def test_unknown_geometry_id(self):
        with pytest.raises(ValueError):
            run_experiment(quick_spec(geometry_ids=("INTX",)))

    def test_rl_policy_cells(self):
        spec = quick_spec(
            geometry_ids=("INT2",), patterns=("PC",), policies=("rl",), rl_episodes=2
        )
        matrix = run_experiment(spec)
        assert len(matrix) == 1

    def test_a_geometry_file_of_no_rows_is_rejected(self, tmp_path):
        write_geometries([], tmp_path / "none.csv")
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'none.csv'))}: no geometry rows$"):
            run_experiment(quick_spec(geometry_ids=(), geometry_file=str(tmp_path / "none.csv")))

    def test_cell_failure_reports_coordinates(self):
        # a 20s cycle cannot fit four minimum greens plus yellows
        spec = quick_spec(geometry_ids=("INT1",), patterns=("PA",), cycles=(20,))
        with pytest.raises(ExperimentError, match="geometry=INT1 pattern=PA .*cycle=20"):
            run_experiment(spec)


class TestWinners:
    def _matrix(self, nwts: dict[str, tuple[float, ...]]) -> dict:
        """Results for INT1 x PA: policy p's NWT at the i-th of DEFAULT_CYCLES is ``nwts[p][i]``."""
        return {
            ("INT1", "PA", policy, cycle): SimResult(
                injected=100,
                served=100,
                residual_queue=0,
                total_wait=int(value * 100),
                nwt=value,
                queue_series=((0, 0, 0, 0),),
            )
            for policy, values in nwts.items()
            for cycle, value in zip(DEFAULT_CYCLES, values)
        }

    def test_plain_argmin(self):
        matrix = self._matrix({"static": (30.0,), "dynamic": (20.0,), "hybrid": (25.0,)})
        assert winners(matrix)[("INT1", "PA")] == "dynamic"

    def test_tie_goes_to_earlier_policy(self):
        # 0.4% apart: inside the 0.5% tie band, static outranks dynamic
        matrix = self._matrix({"static": (20.08,), "dynamic": (20.0,)})
        assert winners(matrix)[("INT1", "PA")] == "static"

    def test_just_outside_tie_band(self):
        matrix = self._matrix({"static": (20.2,), "dynamic": (20.0,)})
        assert winners(matrix)[("INT1", "PA")] == "dynamic"

    def test_a_policys_best_cycle_decides(self):
        # Static is worse than dynamic at its first and its last cycle, better at its best one.
        matrix = self._matrix({"static": (30.0, 18.0, 25.0), "dynamic": (20.0, 20.0, 20.0)})
        assert winners(matrix) == {("INT1", "PA"): "static"}
