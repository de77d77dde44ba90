"""Tests for phase planning: critical counts, static/dynamic/hybrid programs."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plan_oracle
from tmcsignal import rl
from tmcsignal.model import Movement
from tmcsignal.signals import (
    DEFAULT_PEAK_MINUTES,
    MIN_GREEN,
    PROTECTED_LEFT,
    SPLIT_PHASE,
    SignalProgram,
    allocate_greens,
    build_program,
    critical_counts,
    read_program,
    write_program,
)
from tmcsignal.trafficgen import MinuteTmc

tmc_tables = st.tuples(*[st.integers(0, 3000)] * 12)
cycles = st.sampled_from([60, 90, 120, 150])

INT1_COUNTS = (505, 0, 0, 233, 757, 214, 0, 1345, 10, 99, 645, 0)


def plan(counts, policy: str, cycle: int, yellow: int = 3) -> tuple[int, ...]:
    """The greens ``build_program`` gives a one-minute stream of ``counts``."""
    return tuple(build_program(MinuteTmc([counts]), policy, cycle, yellow).greens[0].tolist())


def static_plan(cycle: int, yellow: int = 3) -> tuple[int, ...]:
    return plan((0,) * 12, "static", cycle, yellow)


def dynamic_plan(counts, cycle: int, yellow: int = 3) -> tuple[int, ...]:
    return plan(counts, "dynamic", cycle, yellow)


def lit(state: str, light: str) -> set[Movement]:
    """The movements showing ``light`` in a SUMO green-state string."""
    return {Movement(i) for i, shown in enumerate(state) if shown == light}


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
        cc = critical_counts([INT1_COUNTS])
        assert cc.dtype == np.float64 and cc.tolist() == [[677.5, 505.0, 485.5, 233.0]]

    def test_zero_table(self):
        assert critical_counts([(0,) * 12]).tolist() == [[0, 0, 0, 0]]

    def test_symmetric_table(self):
        cc = critical_counts([(100,) * 12, INT1_COUNTS])
        assert cc.tolist() == [[100.0, 100.0, 100.0, 100.0], [677.5, 505.0, 485.5, 233.0]]


class TestStaticPlan:
    def test_cycle_90(self):
        greens = static_plan(90, 3)
        assert greens == (20, 20, 19, 19)
        assert sum(greens) + 4 * 3 == 90

    def test_cycle_120_exact_split(self):
        assert static_plan(120, 3) == (27, 27, 27, 27)

    def test_boundary_cycle(self):
        greens = static_plan(32, 3)
        assert greens == (5, 5, 5, 5)
        assert sum(greens) + 4 * 3 == 32

    def test_too_small_cycle_rejected(self):
        for policy in ("static", "dynamic", "hybrid"):
            with pytest.raises(ValueError, match=re.escape("cycle 31s with 3s yellows cannot give 4 greens of 5s")):
                build_program(MinuteTmc([INT1_COUNTS]), policy, 31)

    def test_phase_structure(self):
        assert lit(PROTECTED_LEFT[1], "G") == {Movement.WBL, Movement.EBL}
        assert lit(PROTECTED_LEFT[0], "g") == {Movement.WBL, Movement.EBL}
        assert lit(PROTECTED_LEFT[0], "G") == {Movement.WBT, Movement.WBR, Movement.EBT, Movement.EBR}
        assert lit(PROTECTED_LEFT[3], "g") == set()


class TestDynamicPlan:
    def test_observed_counts_oracle(self):
        cc = critical_counts([INT1_COUNTS])[0].tolist()
        quotas = [x / sum(cc) * 90 - 3 for x in cc]
        assert brute_force_allocation(quotas, 78) == (29, 21, 20, 8)
        assert dynamic_plan(INT1_COUNTS, 90, 3) == (29, 21, 20, 8)

    def test_zero_table_falls_back_to_static(self):
        assert dynamic_plan((0,) * 12, 90, 3) == static_plan(90, 3)

    def test_symmetric_counts_match_static_allocation(self):
        assert dynamic_plan((64,) * 12, 90, 3) == static_plan(90, 3)

    @given(tmc_tables, cycles)
    def test_cycle_conservation(self, tmc, cycle):
        assert sum(dynamic_plan(tmc, cycle, 3)) + 4 * 3 == cycle

    @given(tmc_tables, cycles)
    def test_a_matrix_row_plans_as_its_table(self, tmc, cycle):
        assert dynamic_plan(tmc, cycle, 3) == plan_oracle.dynamic_plan(tmc, cycle, 3)
        assert critical_counts([tmc])[0].tolist() == list(plan_oracle.critical_counts(tmc))

    @given(tmc_tables, st.sampled_from([60, 90]))
    @settings(max_examples=40, deadline=None)
    def test_achieves_brute_force_optimum_when_no_clamp(self, tmc, cycle):
        # Largest remainder minimizes the L2 distance to the fractional quotas;
        # ties between equal-cost splits may resolve differently, so compare costs.
        cc = plan_oracle.critical_counts(tmc)
        if sum(cc) == 0:
            return
        quotas = [x / sum(cc) * cycle - 3 for x in cc]
        if min(quotas) < MIN_GREEN + 1:  # keep clear of the clamp/negative region
            return
        greens = dynamic_plan(tmc, cycle, 3)
        oracle = brute_force_allocation(quotas, cycle - 12)
        cost = lambda gs: sum((g - q) ** 2 for g, q in zip(gs, quotas))
        assert cost(greens) == pytest.approx(cost(oracle))

    @given(tmc_tables, cycles)
    def test_proportionality_within_one_second(self, tmc, cycle):
        cc = plan_oracle.critical_counts(tmc)
        if sum(cc) == 0:
            return
        quotas = [x / sum(cc) * cycle - 3 for x in cc]
        if min(quotas) < MIN_GREEN:
            return
        greens = dynamic_plan(tmc, cycle, 3)
        for g, q in zip(greens, quotas):
            assert abs(g - q) <= 1

    @given(tmc_tables, cycles, st.integers(1, 400))
    def test_increasing_ebt_never_shrinks_phase1(self, tmc, cycle, k):
        bumped = tuple(c + k if i == Movement.EBT else c for i, c in enumerate(tmc))
        assert dynamic_plan(bumped, cycle, 3)[0] >= dynamic_plan(tmc, cycle, 3)[0]


class TestAllocateGreens:
    def test_clamped_phase_pins_at_min_green(self):
        greens = allocate_greens([[70.0, 4.0, 2.0, 2.0]], 78)
        assert greens.dtype == np.int64 and greens.shape == (1, 4)
        assert greens.sum() == 78
        assert greens[0, 1] == greens[0, 2] == greens[0, 3] == MIN_GREEN

    def test_budget_too_small(self):
        for quotas in ([[1, 1, 1, 1]], np.zeros((0, 4))):
            with pytest.raises(ValueError, match=re.escape("budget 19s cannot give 4 phases 5s each")):
                allocate_greens(quotas, 19)

    @given(st.lists(st.lists(st.floats(0, 1000), min_size=4, max_size=4), min_size=1, max_size=3), cycles)
    def test_always_conserves_and_respects_floor(self, quotas, cycle):
        greens = allocate_greens(quotas, cycle - 12)
        assert (greens.sum(axis=1) == cycle - 12).all()
        assert greens.min() >= MIN_GREEN


@pytest.fixture(scope="module")
def minute_tmcs():
    rows = []
    for minute in range(240):
        base = 5 + (minute % 7)
        rows.append([(base + i) % 11 for i in range(12)])
    return MinuteTmc(rows)


class TestBuildProgram:
    def test_static_repeats_one_plan(self, minute_tmcs):
        program = build_program(minute_tmcs, "static", 90)
        assert len(program) == 240
        assert program.layout == PROTECTED_LEFT
        assert (program.greens == plan_oracle.static_plan(90)).all()

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
            assert hybrid.greens[minute].tolist() == expected.greens[minute].tolist(), minute

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.one_of(tmc_tables, st.just((0,) * 12)), min_size=1, max_size=6),
        st.sampled_from(["static", "dynamic", "hybrid"]),
        st.integers(18, 160),
        st.integers(0, 6),
        st.sets(st.integers(-1, 7)),
    )
    def test_every_policy_equals_the_per_minute_oracle(self, tables, policy, cycle, yellow, peaks):
        """The programs, or the error texts, of the per-minute build that the quota matrix replaced."""
        try:
            fixed = plan_oracle.static_plan(cycle, yellow)
            expected = [
                plan_oracle.dynamic_plan(t, cycle, yellow)
                if policy == "dynamic" or (policy == "hybrid" and minute in peaks)
                else fixed
                for minute, t in enumerate(tables)
            ]
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                build_program(MinuteTmc(tables), policy, cycle, yellow, peaks)
            return
        program = build_program(MinuteTmc(tables), policy, cycle, yellow, peaks)
        assert program.greens.tolist() == [list(greens) for greens in expected]

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
    def test_split_phase_plan_serves_one_approach_per_phase(self, minute_tmcs):
        assert build_program(minute_tmcs, "rl", 90, q=rl.QFunction(seed=0)).layout == SPLIT_PHASE
        assert lit(SPLIT_PHASE[0], "G") == {Movement.WBL, Movement.WBT, Movement.WBR}
        assert lit(SPLIT_PHASE[3], "G") == {Movement.SBL, Movement.SBT, Movement.SBR}
        assert all(lit(state, "g") == set() for state in SPLIT_PHASE)

    def test_every_movement_gets_a_green_once_per_cycle(self):
        for layout in (PROTECTED_LEFT, SPLIT_PHASE):
            assert sorted(m for state in layout for m in lit(state, "G")) == list(Movement)

    def test_phase_validation(self):
        # One case per constructor check: (layout, greens, yellow, cycle, message).
        cases = [
            (("G" * 12,) * 4, [(20, 20, 19, 19)], 3, 90, "unknown phase layout"),
            (PROTECTED_LEFT, [], 3, 90, "at least one minute"),
            (PROTECTED_LEFT, [(26, 26, 26)], 3, 90, "shape"),
            (PROTECTED_LEFT, [(20.0, 20, 19, 19)], 3, 90, "whole seconds"),
            (PROTECTED_LEFT, [(26, 26, 25, 25)], -1, 98, "yellow must be non-negative"),
            (PROTECTED_LEFT, [(20, 20, 19, 19), (34, 4, 20, 20)], 3, 90, "green must be >= 5s, got 4 in minute 1"),
            (PROTECTED_LEFT, [(20, 20, 20, 20)], 3, 91, "minute 0: phase durations sum to 92, cycle is 91"),
        ]
        for layout, greens, yellow, cycle, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                SignalProgram(layout, greens, yellow, cycle)

    def test_program_needs_uniform_cycle(self):
        with pytest.raises(ValueError, match="minute 1: phase durations sum to 120, cycle is 90"):
            SignalProgram(PROTECTED_LEFT, [static_plan(90), static_plan(120)], 3, 90)

    def test_boundary_values_are_accepted(self):
        program = SignalProgram(SPLIT_PHASE, [(MIN_GREEN,) * 4], 0, 4 * MIN_GREEN)
        assert len(program) == 1 and program.cycle == 20

    def test_equality_compares_every_field_and_the_greens(self):
        program = SignalProgram(PROTECTED_LEFT, [(20, 20, 19, 19), (29, 21, 20, 8)], 3, 90)
        assert program == SignalProgram(PROTECTED_LEFT, np.array([(20, 20, 19, 19), (29, 21, 20, 8)]), 3, 90)
        assert program != SignalProgram(SPLIT_PHASE, [(20, 20, 19, 19), (29, 21, 20, 8)], 3, 90)
        assert program != SignalProgram(PROTECTED_LEFT, [(20, 20, 19, 19), (29, 21, 21, 7)], 3, 90)
        assert program != SignalProgram(PROTECTED_LEFT, [(20, 20, 19, 19)], 3, 90)
        assert program != SignalProgram(PROTECTED_LEFT, [(21, 21, 20, 20), (30, 22, 21, 9)], 2, 90)

    def test_greens_are_read_only_int64(self):
        source = np.array([(20, 20, 19, 19)], dtype=np.int32)
        program = SignalProgram(PROTECTED_LEFT, source, 3, 90)
        source[0, 0] = 99
        assert program.greens.dtype == np.int64 and program.greens.tolist() == [[20, 20, 19, 19]]
        with pytest.raises(ValueError):
            program.greens[0, 0] = 21


def test_program_csv_roundtrip(tmp_path):
    tables = MinuteTmc([range(i, i + 12) for i in range(10)])
    program = build_program(tables, "dynamic", 90)
    path = tmp_path / "program.csv"
    write_program(program, path)
    assert read_program(path) == program


def test_split_phase_program_csv_roundtrip(tmp_path):
    tables = MinuteTmc([range(i, i + 12) for i in range(10)])
    program = build_program(tables, "rl", 90, q=rl.QFunction(seed=0))
    path = tmp_path / "program.csv"
    write_program(program, path)
    assert path.read_text().startswith("minute,gWB,yWB,")
    assert read_program(path) == program


def test_program_csv_roundtrip_keeps_a_yellow_past_int64(tmp_path):
    path = tmp_path / "program.csv"
    path.write_text(f"minute,g1,y1,g2,y2,g3,y3,g4,y4\n" + "0,21" + f",{2**64},21" * 3 + f",{2**64}\n")
    program = read_program(path)
    assert program.cycle == 84 + 4 * 2**64
    write_program(program, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == path.read_text()


def test_program_csv_unknown_header_rejected(tmp_path):
    path = tmp_path / "program.csv"
    path.write_text("minute,a1,b1,a2,b2,a3,b3,a4,b4\n0,20,3,20,3,19,3,19,3\n")
    with pytest.raises(ValueError):
        read_program(path)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(tmc_tables, min_size=1, max_size=4),
    cycles,
    st.integers(0, 5),
    st.booleans(),
)
def test_program_csv_roundtrip_property(tmp_path_factory, tables, cycle, yellow, split):
    greens = [dynamic_plan(t, cycle, yellow) for t in tables]
    program = SignalProgram(SPLIT_PHASE if split else PROTECTED_LEFT, greens, yellow, cycle)
    path = tmp_path_factory.mktemp("p") / "program.csv"
    write_program(program, path)
    assert read_program(path) == program


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("minute,g1,y1,g2,y2,g3,y3,g4\n0,21,3,21,3,21,3,21\n", id="dropped-column"),
        pytest.param("minute,g1,y1,g2,y2,g3,y3,g4,y4\n0,21,3,21,3,21,3,21,3\n1,21,3,21,3,21,3,21\n", id="short-row"),
        pytest.param("minute,g1,y1,g2,y2,g3,y3,g4,y4\n0,21,3,21,3,21,3,2x,3\n", id="non-integer-green"),
        pytest.param("minute,g1,y1,g2,y2,g3,y3,g4,y4\n0,21,3,21,3,21,3,21,3\n0,21,3,21,3,21,3,21,3\n", id="repeated-minute"),
        pytest.param("minute,gWB,yWB,gNB,yNB,gEB,yEB,gSB,ySB\n1,21,3,21,3,21,3,21,3\n", id="first-minute-is-not-0"),
        pytest.param("minute,g1,y1,g2,y2,g3,y3,g4,y4\n", id="header-only"),
        pytest.param("minute,g1,y1,g2,y2,g3,y3,g4,y4\n0,21,3,21,3,21,3,21,3\n1,21,3,21,3,21,3,22,3\n", id="mixed-cycles"),
        pytest.param("minute,g1,y1,g2,y2,g3,y3,g4,y4\n0,21,3,21,3,21,3,21,3\n1,22,2,22,2,22,2,22,2\n", id="mixed-yellows"),
        pytest.param("minute,g1,y1,g2,y2,g3,y3,g4,y4\n0,21,3,21,3,21,4,21,3\n", id="unequal-yellows-in-a-row"),
        pytest.param("minute,g1,y1,g2,y2,g3,y3,g4,y4\n0,38,3,4,3,21,3,21,3\n", id="short-green"),
        pytest.param(f"minute,g1,y1,g2,y2,g3,y3,g4,y4\n0,{2**63},3,21,3,21,3,21,3\n", id="green-past-int64"),
    ],
)
def test_program_csv_rejects_malformed_rows(tmp_path, text):
    path = tmp_path / "program.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_program(path)
