"""Tests for phase planning: critical counts, static/dynamic/hybrid programs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcsignal import rl
from tmcsignal.model import Movement, TmcTable
from tmcsignal.signals import (
    DEFAULT_PEAK_MINUTES,
    MIN_GREEN,
    Phase,
    PhasePlan,
    SignalProgram,
    allocate_greens,
    build_program,
    critical_counts,
    dynamic_plan,
    read_program,
    split_phase_plan,
    static_plan,
    write_program,
)
from tmcsignal.trafficgen import MinuteTmc

tmc_tables = st.builds(TmcTable, st.tuples(*[st.integers(0, 3000)] * 12))
cycles = st.sampled_from([60, 90, 120, 150])

INT1_COUNTS = TmcTable((505, 0, 0, 233, 757, 214, 0, 1345, 10, 99, 645, 0))


def brute_force_allocation(quotas, budget, min_green=MIN_GREEN):
    """Independent oracle: enumerate all integer 4-splits of the budget and pick
    the one closest (L2) to the fractional quotas; earliest wins ties."""
    best, best_cost = None, None
    for g1 in range(min_green, budget - 3 * min_green + 1):
        for g2 in range(min_green, budget - g1 - 2 * min_green + 1):
            for g3 in range(min_green, budget - g1 - g2 - min_green + 1):
                g4 = budget - g1 - g2 - g3
                if g4 < min_green:
                    continue
                cost = sum((g - q) ** 2 for g, q in zip((g1, g2, g3, g4), quotas))
                if best_cost is None or cost < best_cost - 1e-12:
                    best, best_cost = (g1, g2, g3, g4), cost
    return best


class TestCriticalCounts:
    def test_observed_counts_example(self):
        cc = critical_counts(INT1_COUNTS)
        assert cc.as_tuple() == (677.5, 505.0, 485.5, 233.0)

    def test_zero_table(self):
        assert critical_counts(TmcTable.zero()).as_tuple() == (0, 0, 0, 0)

    def test_symmetric_table(self):
        cc = critical_counts(TmcTable((100,) * 12))
        assert cc.as_tuple() == (100.0, 100.0, 100.0, 100.0)


class TestStaticPlan:
    def test_cycle_90(self):
        plan = static_plan(90, 3)
        assert plan.greens == (20, 20, 19, 19)
        assert sum(plan.greens) + sum(plan.yellows) == 90

    def test_cycle_120_exact_split(self):
        assert static_plan(120, 3).greens == (27, 27, 27, 27)

    def test_boundary_cycle(self):
        plan = static_plan(32, 3)
        assert plan.greens == (5, 5, 5, 5)
        assert sum(plan.greens) + sum(plan.yellows) == 32

    def test_too_small_cycle_rejected(self):
        with pytest.raises(ValueError):
            static_plan(31, 3)

    def test_phase_structure(self):
        plan = static_plan(90, 3)
        assert plan.phases[1].served == frozenset({Movement.WBL, Movement.EBL})
        assert plan.phases[0].permissive == frozenset({Movement.WBL, Movement.EBL})
        assert plan.phases[3].permissive == frozenset()


class TestDynamicPlan:
    def test_observed_counts_oracle(self):
        cc = critical_counts(INT1_COUNTS)
        quotas = [x / cc.total * 90 - 3 for x in cc.as_tuple()]
        assert brute_force_allocation(quotas, 78) == (29, 21, 20, 8)
        assert dynamic_plan(INT1_COUNTS, 90, 3).greens == (29, 21, 20, 8)

    def test_zero_table_falls_back_to_static(self):
        assert dynamic_plan(TmcTable.zero(), 90, 3) == static_plan(90, 3)

    def test_symmetric_counts_match_static_allocation(self):
        assert dynamic_plan(TmcTable((64,) * 12), 90, 3).greens == static_plan(90, 3).greens

    @given(tmc_tables, cycles)
    def test_cycle_conservation(self, tmc, cycle):
        plan = dynamic_plan(tmc, cycle, 3)
        assert sum(plan.greens) + sum(plan.yellows) == cycle

    @given(tmc_tables, st.sampled_from([60, 90]))
    @settings(max_examples=40, deadline=None)
    def test_achieves_brute_force_optimum_when_no_clamp(self, tmc, cycle):
        # Largest remainder minimizes the L2 distance to the fractional quotas;
        # ties between equal-cost splits may resolve differently, so compare costs.
        cc = critical_counts(tmc)
        if cc.total == 0:
            return
        quotas = [x / cc.total * cycle - 3 for x in cc.as_tuple()]
        if min(quotas) < MIN_GREEN + 1:  # keep clear of the clamp/negative region
            return
        greens = dynamic_plan(tmc, cycle, 3).greens
        oracle = brute_force_allocation(quotas, cycle - 12)
        cost = lambda gs: sum((g - q) ** 2 for g, q in zip(gs, quotas))
        assert cost(greens) == pytest.approx(cost(oracle))

    @given(tmc_tables, cycles)
    def test_proportionality_within_one_second(self, tmc, cycle):
        cc = critical_counts(tmc)
        if cc.total == 0:
            return
        quotas = [x / cc.total * cycle - 3 for x in cc.as_tuple()]
        if min(quotas) < MIN_GREEN:
            return
        greens = dynamic_plan(tmc, cycle, 3).greens
        for g, q in zip(greens, quotas):
            assert abs(g - q) <= 1

    @given(tmc_tables, cycles, st.integers(1, 400))
    def test_increasing_ebt_never_shrinks_phase1(self, tmc, cycle, k):
        bumped = TmcTable(
            tuple(c + k if i == Movement.EBT else c for i, c in enumerate(tmc.counts))
        )
        assert dynamic_plan(bumped, cycle, 3).greens[0] >= dynamic_plan(tmc, cycle, 3).greens[0]


class TestAllocateGreens:
    def test_clamped_phase_pins_at_min_green(self):
        greens = allocate_greens([70.0, 4.0, 2.0, 2.0], 78)
        assert sum(greens) == 78
        assert greens[1] == greens[2] == greens[3] == MIN_GREEN

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            allocate_greens([1, 1, 1, 1], 19)

    @given(st.lists(st.floats(0, 1000), min_size=4, max_size=4), cycles)
    def test_always_conserves_and_respects_floor(self, quotas, cycle):
        greens = allocate_greens(quotas, cycle - 12)
        assert sum(greens) == cycle - 12
        assert min(greens) >= MIN_GREEN


@pytest.fixture(scope="module")
def minute_tmcs():
    tables = []
    for minute in range(240):
        base = 5 + (minute % 7)
        tables.append(TmcTable(tuple((base + i) % 11 for i in range(12))))
    return MinuteTmc(tuple(tables))


class TestBuildProgram:
    def test_static_repeats_one_plan(self, minute_tmcs):
        program = build_program(minute_tmcs, "static", 90)
        assert len(program) == 240
        assert len(set(program.plans)) == 1

    def test_hybrid_empty_peaks_equals_static(self, minute_tmcs):
        hybrid = build_program(minute_tmcs, "hybrid", 90, peak_minutes=())
        static = build_program(minute_tmcs, "static", 90)
        assert hybrid == static

    def test_hybrid_full_peaks_equals_dynamic(self, minute_tmcs):
        hybrid = build_program(minute_tmcs, "hybrid", 90, peak_minutes=range(240))
        dynamic = build_program(minute_tmcs, "dynamic", 90)
        assert hybrid == dynamic

    def test_default_hybrid_switches_at_60_and_180(self, minute_tmcs):
        hybrid = build_program(minute_tmcs, "hybrid", 90)
        static = build_program(minute_tmcs, "static", 90)
        dynamic = build_program(minute_tmcs, "dynamic", 90)
        assert DEFAULT_PEAK_MINUTES == frozenset(range(60, 180))
        for minute in range(240):
            expected = dynamic if 60 <= minute < 180 else static
            assert hybrid.plan_at(minute) == expected.plan_at(minute), minute

    def test_unknown_policy_rejected(self, minute_tmcs):
        with pytest.raises(ValueError):
            build_program(minute_tmcs, "adaptive", 90)

    def test_rl_dispatches_to_the_allocator(self, minute_tmcs):
        q = rl.QFunction(seed=4)
        assert build_program(minute_tmcs, "rl", 120, 4, q=q) == rl.build_rl_program(q, minute_tmcs, 120, 4)

    def test_rl_without_allocator_rejected(self, minute_tmcs):
        with pytest.raises(ValueError):
            build_program(minute_tmcs, "rl", 90)


class TestProgramStructure:
    def test_split_phase_plan_serves_one_approach_per_phase(self):
        plan = split_phase_plan((20, 20, 19, 19), 3, 90)
        assert plan.phases[0].served == frozenset(
            {Movement.WBL, Movement.WBT, Movement.WBR}
        )
        assert plan.phases[3].served == frozenset(
            {Movement.SBL, Movement.SBT, Movement.SBR}
        )

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Phase(frozenset({Movement.WBL}), green=3)
        with pytest.raises(ValueError):
            PhasePlan(tuple(Phase(frozenset(), 10) for _ in range(4)), cycle=90)
        with pytest.raises(ValueError):
            PhasePlan(tuple(Phase(frozenset(), 20) for _ in range(4)), cycle=91)

    def test_program_needs_uniform_cycle(self):
        with pytest.raises(ValueError):
            SignalProgram((static_plan(90), static_plan(120)))


def test_program_csv_roundtrip(tmp_path):
    tables = MinuteTmc(tuple(TmcTable(tuple(range(i, i + 12))) for i in range(10)))
    program = build_program(tables, "dynamic", 90)
    path = tmp_path / "program.csv"
    write_program(program, path)
    assert read_program(path) == program


def test_split_phase_program_csv_roundtrip(tmp_path):
    tables = MinuteTmc(tuple(TmcTable(tuple(range(i, i + 12))) for i in range(10)))
    program = build_program(tables, "rl", 90, q=rl.QFunction(seed=0))
    path = tmp_path / "program.csv"
    write_program(program, path)
    assert path.read_text().startswith("minute,gWB,yWB,")
    assert read_program(path) == program


def test_program_csv_unknown_header_rejected(tmp_path):
    path = tmp_path / "program.csv"
    path.write_text("minute,a1,b1,a2,b2,a3,b3,a4,b4\n0,20,3,20,3,19,3,19,3\n")
    with pytest.raises(ValueError):
        read_program(path)
