"""Tests for the point-queue simulator."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import demand_oracle
from departure_rows import departures, rows_of
from tmcsignal import sim
from tmcsignal.model import MOVEMENTS, IntersectionGeometry, Movement, Zone
from tmcsignal.sim import (
    SimConfig,
    SimResult,
    _rate_index,
    assign_lanes,
    evaluate,
    run,
    write_queue_series,
    write_summary,
)
from tmcsignal.model import read_geometries
from tmcsignal.signals import (
    LAYOUTS,
    MIN_GREEN,
    PROTECTED_LEFT,
    SPLIT_PHASE,
    SignalProgram,
    allocate_greens,
    build_program,
)
from tmcsignal.trafficgen import Departures, MinuteTmc


# --- the scalar reference: one cell, one second, one movement at a time ---------------
#
# This is the simulator loop the batched kernel replaced, kept unchanged as the
# oracle that the kernel must match field for field.


def _service_rates(
    geo: IntersectionGeometry,
    program: SignalProgram,
    cfg: SimConfig,
) -> list[list[float]]:
    """Per-second, per-movement discharge rates implied by the signal program.

    Phases cycle continuously; a minute plan takes effect at the first cycle
    boundary inside that minute, so phases are never truncated mid-green.
    """
    lanes = demand_oracle.assign_lanes(geo)
    rates = np.zeros((cfg.horizon, 12))
    full = np.array([lanes[m] / cfg.saturation_headway for m in MOVEMENTS])
    t = 0
    while t < cfg.horizon:
        greens = program.greens[min(t // 60, len(program) - 1)].tolist()
        for state, green in zip(program.layout, greens):
            end = min(t + green, cfg.horizon)
            if end > t:
                for m, light in enumerate(state):
                    if light == "G":
                        rates[t:end, m] = full[m]
                    elif light == "g":
                        rates[t:end, m] = cfg.permissive_left_factor * full[m]
            t += green + program.yellow
            if t >= cfg.horizon:
                break
    return rates.tolist()


def loop_rate_index(program: SignalProgram, horizon: int) -> np.ndarray:
    """The rate-table row in force each second, walked phase by phase as the kernel once did.

    Row 0 is all-red and phase i of ``LAYOUTS[k]`` is row 1 + 4k + i.
    """
    out = np.zeros(horizon, dtype=np.uint8)
    first = 1 + 4 * LAYOUTS.index(program.layout)
    t = 0
    while t < horizon:
        greens = program.greens[min(t // 60, len(program) - 1)].tolist()
        for phase, green in enumerate(greens):
            out[t : t + green] = first + phase
            t += green + program.yellow
            if t >= horizon:
                break
    return out


def scalar_run(
    geo: IntersectionGeometry,
    plans: Departures,
    program: SignalProgram,
    cfg: SimConfig,
) -> SimResult:
    """Simulate the horizon tick by tick and report waiting/queue measurements."""
    minutes_needed = math.ceil(cfg.horizon / 60)
    if len(program) < minutes_needed:
        raise ValueError(
            f"program covers {len(program)} minutes, horizon needs {minutes_needed}"
        )
    arrivals: dict[int, list[int]] = {}
    injected = 0
    last = -1
    for p in rows_of(plans):
        if p.depart < last:
            raise ValueError("vehicle plans must be sorted by departure time")
        last = p.depart
        if p.depart < cfg.horizon:
            arrivals.setdefault(p.depart, []).append(int(p.movement))
            injected += 1

    rates = _service_rates(geo, program, cfg)
    queues = [0] * 12
    credit = [0.0] * 12
    total_wait = 0
    served = 0
    n_minutes = minutes_needed
    zone_max = [[0, 0, 0, 0] for _ in range(n_minutes)]

    for t in range(cfg.horizon):
        new = arrivals.get(t)
        if new is not None:
            for m in new:
                queues[m] += 1
        rate_row = rates[t]
        for m in range(12):
            q = queues[m]
            if q:
                r = rate_row[m]
                if r > 0.0:
                    c = credit[m] + r
                    n = int(c)
                    if n >= q:
                        served += q
                        queues[m] = 0
                        credit[m] = 0.0
                    elif n:
                        served += n
                        queues[m] = q - n
                        credit[m] = c - n
                    else:
                        credit[m] = c
                else:
                    credit[m] = 0.0
            else:
                credit[m] = 0.0
        total_wait += sum(queues)
        row = zone_max[t // 60]
        for z in range(4):
            zq = queues[3 * z] + queues[3 * z + 1] + queues[3 * z + 2]
            if zq > row[z]:
                row[z] = zq

    residual = sum(queues)
    return SimResult(
        injected=injected,
        served=served,
        residual_queue=residual,
        total_wait=total_wait,
        nwt=total_wait / max(1, injected),
        queue_series=tuple(tuple(row) for row in zone_max),
    )


def static_program(cycle: int = 90, minutes: int = 60) -> SignalProgram:
    return build_program(MinuteTmc(np.zeros((minutes, 12), dtype=np.int64)), "static", cycle, 3)


def sorted_plans(raw: list[tuple[int, Movement]]) -> Departures:
    ordered = sorted(raw)
    return departures([(f"v{i:04d}", t, m) for i, (t, m) in enumerate(ordered)])


@pytest.fixture(scope="module")
def geometries():
    return read_geometries()


class TestAssignLanes:
    def test_six_lane_approach(self):
        geo = IntersectionGeometry("X", (6, 6, 6, 6), (4, 4, 4, 4))
        lanes = assign_lanes([geo])[0]
        assert lanes[Movement.WBL] == 1.0
        assert lanes[Movement.WBT] == 3.0
        assert lanes[Movement.WBR] == 2.0

    def test_single_lane_shared_fractionally(self):
        geo = IntersectionGeometry("X", (1, 1, 1, 1), (1, 1, 1, 1))
        lanes = assign_lanes([geo])
        assert lanes.shape == (1, 12) and lanes.dtype == np.float64
        assert lanes[0, :3].tolist() == [0.25, 0.5, 0.25]

    def test_zone_sums_preserved_for_bundled_geometries(self, geometries):
        for geo in geometries.values():
            lanes = assign_lanes([geo])[0]
            for zone in Zone:
                share = sum(lanes[m] for m in Movement if m.origin is zone)
                assert share == pytest.approx(geo.lanes_in[zone.index])
                assert all(
                    lanes[m] > 0 for m in Movement if m.origin is zone
                )

    def test_every_lane_combination_equals_the_per_zone_oracle(self):
        counts = (1, 2, 3, 4, 5, 7, 10, 99, 2**31 - 1)
        grid = [IntersectionGeometry("X", lanes, (1, 1, 1, 1)) for lanes in itertools.product(counts, repeat=4)]
        expected = np.array([demand_oracle.assign_lanes(geo) for geo in grid])
        assert assign_lanes(grid).tobytes() == expected.tobytes()
        assert assign_lanes([]).shape == (0, 12)

    def test_a_batch_assigns_each_distinct_geometry_once(self, geometries, monkeypatch):
        assigned = []

        def spy(geos):
            assigned.append([geo.id for geo in geos])
            return assign_lanes(geos)

        monkeypatch.setattr(sim, "assign_lanes", spy)
        cells = [geometries["INT1"], geometries["INT2"], geometries["INT1"], geometries["INT1"]]
        plans = departures([("v0", 0, Movement.WBT), ("v1", 3, Movement.NBL)])
        results = run(cells, [plans] * 4, [static_program()] * 4, SimConfig(horizon=120))
        assert assigned == [["INT1", "INT2", "INT1", "INT1"]]
        assert results[0] == results[2] == run(cells[:1], [plans], [static_program()], SimConfig(horizon=120))[0]


class TestRunBasics:
    def test_no_vehicles(self, geometries):
        result = run([geometries["INT1"]], [departures([])], [static_program()], SimConfig(horizon=3600))[0]
        assert result.nwt == 0.0
        assert result.injected == result.served == result.residual_queue == 0
        assert all(row == (0, 0, 0, 0) for row in result.queue_series)

    def test_immediate_service_at_green_onset(self, geometries):
        plans = departures([("v0", 0, Movement.EBT)])
        result = run([geometries["INT1"]], [plans], [static_program()], SimConfig(horizon=3600))[0]
        assert result.total_wait <= 2  # within one saturation headway
        assert result.served == 1

    def test_hand_timed_cross_street_trace(self, geometries):
        # P1 green 20 + yellow 3 + P2 green 20 + yellow 3 pass before the
        # north-south through phase opens at t=46.
        plans = departures([("v0", 0, Movement.NBT)])
        result = run([geometries["INT1"]], [plans], [static_program()], SimConfig(horizon=3600))[0]
        assert 46 <= result.total_wait <= 48
        assert result.served == 1

    def test_program_must_cover_horizon(self, geometries):
        with pytest.raises(ValueError):
            run([geometries["INT1"]], [departures([])], [static_program(minutes=30)], SimConfig(horizon=3600))[0]

    def test_rejects_unsorted_plans(self, geometries):
        plans = departures([("a", 50, Movement.WBT), ("b", 10, Movement.WBT)])
        with pytest.raises(ValueError):
            run([geometries["INT1"]], [plans], [static_program()], SimConfig(horizon=3600))[0]

    def test_nwt_definition(self, geometries):
        plans = sorted_plans([(i * 7 % 600, Movement((i * 5) % 12)) for i in range(200)])
        result = run([geometries["INT2"]], [plans], [static_program()], SimConfig(horizon=1200))[0]
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
        program = static_program(cycle, minutes=12)
        result = run([geo], [plans], [program], SimConfig(horizon=horizon))[0]
        assert result.injected == sum(1 for p in rows_of(plans) if p.depart < horizon)
        assert result.served + result.residual_queue == result.injected

    def test_bit_identical_reruns(self, geometries):
        plans = sorted_plans([(i * 13 % 3600, Movement(i % 12)) for i in range(500)])
        cfg = SimConfig(horizon=3600)
        first = run([geometries["INT3"]], [plans], [static_program()], cfg)[0]
        second = run([geometries["INT3"]], [plans], [static_program()], cfg)[0]
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
            return SignalProgram(PROTECTED_LEFT, [greens] * 90, 3, sum(greens) + 12)

        base = run([geometries["INT1"]], [plans], [program_with((20, 20, 19, 19))], cfg)[0]
        wider = run([geometries["INT1"]], [plans], [program_with((20, 20, 25, 13))], cfg)[0]
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
        program = SignalProgram(SPLIT_PHASE, [(20, 20, 19, 19)] * 20, 3, 90)
        result = run([geometries["INT1"]], [plans], [program], SimConfig(horizon=1200))[0]
        assert result.served == 60


def test_result_csv_exports(tmp_path, geometries):
    plans = sorted_plans([(i, Movement.WBT) for i in range(30)])
    result = run([geometries["INT1"]], [plans], [static_program()], SimConfig(horizon=120))[0]
    summary, series = tmp_path / "summary.csv", tmp_path / "queues.csv"
    write_summary(result, summary)
    write_queue_series(result, series)
    lines = summary.read_text().splitlines()
    assert lines[0] == "injected,served,residual_queue,total_wait,nwt"
    assert lines[1].startswith(f"{result.injected},{result.served}")
    assert len(series.read_text().splitlines()) == 1 + len(result.queue_series)


# --- the batched kernel against the scalar oracle -------------------------------------


@st.composite
def signal_programs(draw, minutes: int, cycles=st.sampled_from([60, 90]), vary_yellow: bool = False) -> SignalProgram:
    """A program of either layout; yellows of 3 s unless varied.

    Minute i takes its greens from a drawn pool of one to three rows, at the
    pool index ``pattern[i % len(pattern)]`` for a drawn pattern of one to six
    indices. Adjacent minutes can differ, and a failure shrinks over a few
    values rather than one row per minute of a four-hour program.
    """
    cycle = draw(cycles)
    yellow = draw(st.integers(0, min(5, (cycle - 4 * MIN_GREEN) // 4))) if vary_yellow else 3
    quotas = st.lists(st.integers(0, 50), min_size=4, max_size=4)
    pool = allocate_greens(draw(st.lists(quotas, min_size=1, max_size=3)), cycle - 4 * yellow).tolist()
    pattern = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    greens = [pool[pattern[i % len(pattern)]] for i in range(minutes)]
    return SignalProgram(draw(st.sampled_from(LAYOUTS)), greens, yellow, cycle)


@st.composite
def departure_sets(draw, horizon: int) -> Departures:
    """Sparse or dense departures: up to 120 on any movements, or 100-400 on one to three over at most 600 s.

    Dense demand queues several vehicles on a movement, so that columns or zone
    triples mixed up between cells show in their waits and zone maxima. Its
    seconds and movements come from a drawn numpy seed, so a failure shrinks
    over a few numbers rather than hundreds of departures.
    """
    if draw(st.booleans()):
        # One integer per vehicle, second * 12 + movement, so that a failure shrinks over fewer choices.
        vehicles = draw(st.lists(st.integers(0, 12 * (horizon + 121) - 1), max_size=120))
        return sorted_plans([(v // 12, Movement(v % 12)) for v in vehicles])
    pool = draw(st.lists(st.sampled_from(list(Movement)), min_size=1, max_size=3, unique=True))
    span, size = draw(st.integers(1, 600)), draw(st.integers(100, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return sorted_plans(list(zip(rng.integers(0, span, size=size).tolist(), rng.choice(pool, size=size))))


@st.composite
def batches(draw):
    """A batch of cells, its config and an arrival block: pooled geometries, shared demands (one empty) and programs.

    Cells draw their programs from a pool of one to eight, so a program
    object recurs in cells next to each other or not, as the grid's cells of
    one program do, and the shared rate-index column is exercised. Geometries
    come from a pool of two or three, so cells of one demand and program share
    the columns of movements whose lane rates agree and keep their own where
    they differ. Blocks of 60 to 180 s put several block edges inside a
    horizon of up to 700 s.

    The horizon, which sets what one example costs, is drawn first. Demands,
    geometries, programs and cells are each a list whose elements are drawn
    alike, so that shrinking drops them whole, and nothing is drawn with
    ``st.tuples``: once a failure has shrunk, hypothesis's explain phase
    varies each field of a tuple strategy on its own, hundreds of runs a field.
    """
    horizon = draw(st.integers(1, 700))
    block = draw(st.sampled_from([60, 120, 180]))
    cfg = SimConfig(
        horizon=horizon,
        saturation_headway=draw(st.sampled_from([2.0, 1.7, 2.5])),
        permissive_left_factor=draw(st.sampled_from([0.5, 0.0, 1.0, 0.37])),
    )
    demands = [departures([]), *draw(st.lists(departure_sets(horizon), min_size=1, max_size=3))]
    lanes = st.lists(st.integers(1, 6), min_size=8, max_size=8)
    pool = [IntersectionGeometry("X", tuple(n[:4]), tuple(n[4:])) for n in draw(st.lists(lanes, min_size=2, max_size=3))]
    program = st.integers(0, 2).flatmap(lambda extra: signal_programs(math.ceil(horizon / 60) + extra))
    programs = draw(st.lists(program, min_size=1, max_size=8))

    @st.composite
    def cell(draw):
        return draw(st.sampled_from(pool)), draw(st.sampled_from(demands)), draw(st.sampled_from(programs))

    geometries, cell_demands, cell_programs = zip(*draw(st.lists(cell(), min_size=1, max_size=8)))
    return list(geometries), list(cell_demands), list(cell_programs), cfg, block


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rate_index_equals_the_phase_by_phase_loop(data):
    # Horizons up to four hours, most of them multiples of neither 60 nor the
    # cycle, and programs up to two minutes longer than the horizon needs.
    horizon = data.draw(st.integers(1, 14400))
    minutes = math.ceil(horizon / 60) + data.draw(st.integers(0, 2))
    program = data.draw(signal_programs(minutes, st.integers(4 * MIN_GREEN, 180), vary_yellow=True))
    out = np.zeros(horizon, dtype=np.uint8)
    _rate_index(program, horizon, out)
    assert out.tolist() == loop_rate_index(program, horizon).tolist()


def grid_in_miniature():
    """Every bundled geometry under one dense demand, one program per layout, batched as the grid batches them.

    Queues of several vehicles build up on every movement, so cells that share
    a movement's column but not a zone's, or differ in one rate, report
    different waits and zone maxima. Arrivals are counted in five 120 s blocks.
    """
    geometries = list(read_geometries().values())
    plans = sorted_plans([(i * 7 % 600, Movement(i % 12)) for i in range(600)])
    programs = [SignalProgram(layout, [(20, 20, 19, 19), (30, 15, 19, 14)] * 5, 3, 90) for layout in LAYOUTS]
    cells = [(geo, program) for program in programs for geo in geometries]
    return [g for g, _ in cells], [plans] * len(cells), [p for _, p in cells], SimConfig(horizon=600), 120


def interleaved_inputs():
    """The six bundled geometries, each cell with one of two demands and one of two programs.

    Demands alternate cell by cell and programs go in pairs, so every input
    object recurs with other cells between its uses, and all four
    (demand, program) pairings occur. Arrival blocks of 180 s leave a last
    block of 60 s.
    """
    geometries = list(read_geometries().values())
    demands = [
        sorted_plans([(i * 7 % 600, Movement(i % 12)) for i in range(600)]),
        sorted_plans([(i * 11 % 500, Movement(i * 5 % 12)) for i in range(400)]),
    ]
    programs = [
        SignalProgram(PROTECTED_LEFT, [(20, 20, 19, 19), (30, 15, 19, 14)] * 5, 3, 90),
        SignalProgram(SPLIT_PHASE, [(30, 30, 24, 24), (40, 20, 24, 24)] * 5, 3, 120),
    ]
    cells = range(len(geometries))
    programs = [programs[b // 2 % 2] for b in cells]
    return geometries, [demands[b % 2] for b in cells], programs, SimConfig(horizon=600), 180


def pinned(lanes_in, demands, horizon: int, saturation_headway: float = 2.0):
    """A batch as a kernel mutant's failure shrinks: one cell per inbound lane row, one program, 60 s blocks.

    Every outbound zone has one lane, and every cell runs the same 60 s
    protected-left program with greens of 12 s.
    """
    program = SignalProgram(PROTECTED_LEFT, [(12, 12, 12, 12)] * math.ceil(horizon / 60), 3, 60)
    geometries = [IntersectionGeometry("X", lanes, (1, 1, 1, 1)) for lanes in lanes_in]
    cfg = SimConfig(horizon=horizon, saturation_headway=saturation_headway)
    return geometries, demands, [program] * len(geometries), cfg, 60


def at_zero(*groups: tuple[int, Movement]) -> Departures:
    """``count`` vehicles departing at second 0 on ``movement``, for each (count, movement) group."""
    return sorted_plans([(0, movement) for count, movement in groups for _ in range(count)])


ZONE_DEMAND = at_zero((44, Movement.WBL), (56, Movement.NBT))


@given(batches())
@example(grid_in_miniature())
@example(interleaved_inputs())
# The shrunk failures of five kernel mutants, each named by what it breaks.
# Rate left out of the column key: the second cell is served at the first's rate.
@example(pinned([(1, 1, 1, 1), (1, 2, 1, 1)], [departures([]), at_zero((100, Movement.NBL))], 37, 1.7))
# Zone triple keyed by its first column only: the cells' north zones share NBL but not NBT.
@example(pinned([(1, 3, 1, 1), (1, 4, 1, 1)], [ZONE_DEMAND, ZONE_DEMAND], 61))
# Column-to-cell map rolled by one cell.
@example(pinned([(1, 1, 1, 1)] * 2, [departures([]), at_zero((100, Movement.WBL))], 1))
# Block edges counted one second late: the departures at second 0 fall out of block 0.
@example(pinned([(1, 1, 1, 1)], [at_zero((100, Movement.WBL))], 1))
# The last, partial block never counted: the departure at second 60 is lost.
@example(pinned([(1, 1, 1, 1)], [sorted_plans([(60, Movement.WBT)])], 61))
@settings(max_examples=150, deadline=None)
def test_batched_kernel_equals_scalar_oracle(batch):
    geometries, demands, programs, cfg, block = batch
    with mock.patch.object(sim, "ARRIVAL_BLOCK", block):
        batched = run(geometries, demands, programs, cfg)
    assert batched == [scalar_run(g, d, p, cfg) for g, d, p in zip(geometries, demands, programs)]


def test_batch_needs_one_demand_and_one_program_per_geometry(geometries):
    geo, cfg = geometries["INT1"], SimConfig(horizon=600)
    with pytest.raises(ValueError):
        run([geo, geo], [departures([])], [static_program(), static_program()], cfg)
    with pytest.raises(ValueError):
        run([geo, geo], [departures([]), departures([])], [static_program()], cfg)
    with pytest.raises(ValueError):
        run([geo], [departures([])], [static_program(), static_program()], cfg)


def test_memory_does_not_grow_with_horizon_times_demands(geometries):
    # Seven demands of a day each: a full-horizon (seconds, demands, 12) int32
    # count array alone would take 29 MB.
    horizon, vehicles = 86400, 100_000
    rng = np.random.default_rng(5)
    demands = [
        Departures(np.sort(rng.integers(0, horizon, vehicles)), rng.integers(0, 12, vehicles), np.arange(vehicles))
        for _ in range(7)
    ]
    program = static_program(minutes=horizon // 60)
    tracemalloc.start()
    try:
        results = run([geometries["INT1"]] * 7, demands, [program] * 7, SimConfig(horizon=horizon))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.injected for r in results] == [vehicles] * 7
    assert peak < 4 * 2**20
