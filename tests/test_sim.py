"""Tests for the point-queue simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcsignal.model import IntersectionGeometry, Movement, TmcTable, Zone
from tmcsignal.sim import (
    LaneAssignment,
    SimConfig,
    assign_lanes,
    evaluate,
    run,
    write_queue_series,
    write_summary,
)
from tmcsignal.model import read_geometries
from tmcsignal.signals import SignalProgram, split_phase_plan, static_plan
from tmcsignal.trafficgen import VehiclePlan


def static_program(cycle: int = 90, minutes: int = 60) -> SignalProgram:
    return SignalProgram((static_plan(cycle, 3),) * minutes)


def sorted_plans(raw: list[tuple[int, Movement]]) -> list[VehiclePlan]:
    ordered = sorted(raw)
    return [VehiclePlan(f"v{i:04d}", t, m) for i, (t, m) in enumerate(ordered)]


@pytest.fixture(scope="module")
def geometries():
    return read_geometries()


class TestAssignLanes:
    def test_six_lane_approach(self):
        geo = IntersectionGeometry("X", (6, 6, 6, 6), (4, 4, 4, 4))
        lanes = assign_lanes(geo)
        assert lanes[Movement.WBL] == 1.0
        assert lanes[Movement.WBT] == 3.0
        assert lanes[Movement.WBR] == 2.0

    def test_single_lane_shared_fractionally(self):
        geo = IntersectionGeometry("X", (1, 1, 1, 1), (1, 1, 1, 1))
        lanes = assign_lanes(geo)
        assert lanes.effective_lanes[:3] == (0.25, 0.5, 0.25)

    def test_zone_sums_preserved_for_bundled_geometries(self, geometries):
        for geo in geometries.values():
            lanes = assign_lanes(geo)
            for zone in Zone:
                share = sum(lanes[m] for m in Movement if m.origin is zone)
                assert share == pytest.approx(geo.lanes_in_at(zone))
                assert all(
                    lanes[m] > 0 for m in Movement if m.origin is zone
                )


class TestRunBasics:
    def test_no_vehicles(self, geometries):
        result = run(geometries["INT1"], [], static_program(), SimConfig(horizon=3600))
        assert result.nwt == 0.0
        assert result.injected == result.served == result.residual_queue == 0
        assert all(row == (0, 0, 0, 0) for row in result.queue_series)

    def test_immediate_service_at_green_onset(self, geometries):
        plans = [VehiclePlan("v0", 0, Movement.EBT)]
        result = run(geometries["INT1"], plans, static_program(), SimConfig(horizon=3600))
        assert result.total_wait <= 2  # within one saturation headway
        assert result.served == 1

    def test_hand_timed_cross_street_trace(self, geometries):
        # P1 green 20 + yellow 3 + P2 green 20 + yellow 3 pass before the
        # north-south through phase opens at t=46.
        plans = [VehiclePlan("v0", 0, Movement.NBT)]
        result = run(geometries["INT1"], plans, static_program(), SimConfig(horizon=3600))
        assert 46 <= result.total_wait <= 48
        assert result.served == 1

    def test_program_must_cover_horizon(self, geometries):
        with pytest.raises(ValueError):
            run(geometries["INT1"], [], static_program(minutes=30), SimConfig(horizon=3600))

    def test_rejects_unsorted_plans(self, geometries):
        plans = [VehiclePlan("a", 50, Movement.WBT), VehiclePlan("b", 10, Movement.WBT)]
        with pytest.raises(ValueError):
            run(geometries["INT1"], plans, static_program(), SimConfig(horizon=3600))

    def test_nwt_definition(self, geometries):
        plans = sorted_plans([(i * 7 % 600, Movement((i * 5) % 12)) for i in range(200)])
        result = run(geometries["INT2"], plans, static_program(), SimConfig(horizon=1200))
        assert result.nwt == pytest.approx(result.total_wait / max(1, result.injected), abs=1e-9)


class TestConservationAndDeterminism:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_vehicle_conservation(self, data):
        lanes_in = data.draw(st.tuples(*[st.integers(1, 6)] * 4))
        lanes_out = data.draw(st.tuples(*[st.integers(1, 6)] * 4))
        geo = IntersectionGeometry("X", lanes_in, lanes_out)
        n = data.draw(st.integers(0, 60))
        raw = data.draw(
            st.lists(
                st.tuples(st.integers(0, 900), st.sampled_from(list(Movement))),
                min_size=n,
                max_size=n,
            )
        )
        plans = sorted_plans(raw)
        horizon = data.draw(st.integers(60, 700))
        cycle = data.draw(st.sampled_from([60, 90]))
        program = SignalProgram((static_plan(cycle, 3),) * 12)
        result = run(geo, plans, program, SimConfig(horizon=horizon))
        assert result.injected == sum(1 for p in plans if p.depart < horizon)
        assert result.served + result.residual_queue == result.injected

    def test_bit_identical_reruns(self, geometries):
        plans = sorted_plans([(i * 13 % 3600, Movement(i % 12)) for i in range(500)])
        cfg = SimConfig(horizon=3600)
        first = run(geometries["INT3"], plans, static_program(), cfg)
        second = run(geometries["INT3"], plans, static_program(), cfg)
        assert first == second


class TestFifoAndMonotonicity:
    def test_longer_serving_green_never_hurts_movement(self, geometries):
        # Same cycle: the north-south through phase grows at the expense of
        # the last phase, so its window starts no later and lasts longer.
        rng = np.random.default_rng(11)
        raw = [(int(t), Movement.NBT) for t in rng.integers(0, 1500, size=150)]
        plans = sorted_plans(raw)
        cfg = SimConfig(horizon=5400)

        def program_with(greens):
            from tmcsignal.signals import PHASE_PERMISSIVE, PHASE_SERVED, Phase, PhasePlan

            phases = tuple(
                Phase(PHASE_SERVED[i], greens[i], 3, PHASE_PERMISSIVE[i])
                for i in range(4)
            )
            return SignalProgram((PhasePlan(phases, sum(greens) + 12),) * 90)

        base = run(geometries["INT1"], plans, program_with((20, 20, 19, 19)), cfg)
        wider = run(geometries["INT1"], plans, program_with((20, 20, 25, 13)), cfg)
        assert wider.total_wait <= base.total_wait


class TestEvaluate:
    def test_static_vs_dynamic_near_equal_on_uniform_demand(self, geometries):
        from tmcsignal.trafficgen import (
            BimodalProfile,
            DemandSpec,
            PATTERNS,
            generate_demand,
        )

        profile = BimodalProfile(hours=("offpeak",))
        plans, _ = generate_demand(DemandSpec(profile=profile, pattern=PATTERNS["PA"], seed=11))
        cfg = SimConfig(horizon=3600)
        s = evaluate(geometries["INT1"], plans, "static", 90, cfg)
        d = evaluate(geometries["INT1"], plans, "dynamic", 90, cfg)
        assert abs(s.nwt - d.nwt) / max(s.nwt, d.nwt) < 0.05

    def test_rl_policy_runs_end_to_end(self, geometries):
        plans = sorted_plans([(i * 11 % 540, Movement(i % 12)) for i in range(80)])
        cfg = SimConfig(horizon=600)
        result = evaluate(geometries["INT2"], plans, "rl", 90, cfg, rl_episodes=3)
        assert result.injected == 80
        assert result.served + result.residual_queue == 80

    def test_split_phase_program_serves_all_movements(self, geometries):
        plans = sorted_plans([(i % 300, Movement(i % 12)) for i in range(60)])
        program = SignalProgram((split_phase_plan((20, 20, 19, 19), 3, 90),) * 20)
        result = run(geometries["INT1"], plans, program, SimConfig(horizon=1200))
        assert result.served == 60


def test_result_csv_exports(tmp_path, geometries):
    plans = sorted_plans([(i, Movement.WBT) for i in range(30)])
    result = run(geometries["INT1"], plans, static_program(), SimConfig(horizon=120))
    summary, series = tmp_path / "summary.csv", tmp_path / "queues.csv"
    write_summary(result, summary)
    write_queue_series(result, series)
    lines = summary.read_text().splitlines()
    assert lines[0] == "injected,served,residual_queue,total_wait,nwt"
    assert lines[1].startswith(f"{result.injected},{result.served}")
    assert len(series.read_text().splitlines()) == 1 + len(result.queue_series)
