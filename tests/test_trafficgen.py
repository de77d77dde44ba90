"""Tests for demand generation: hourly draws, splits, departures, aggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import demand_oracle
from departure_rows import Row, departures, rows_of
from tmcsignal.model import MOVEMENTS, Movement, Zone
from tmcsignal.trafficgen import (
    PATTERNS,
    UNIVERSAL_WEIGHTS,
    BimodalProfile,
    Departures,
    DemandSpec,
    MinuteTmc,
    TurnRatio,
    TmcTable,
    ZonePattern,
    aggregate_per_minute,
    departure_order,
    generate_demand,
    parse_demand_spec,
    read_departures,
    read_minute_tmc,
    schedule_departures,
    split_counts,
    write_departures,
    write_minute_tmc,
)


def hourly_of(*hours: dict[Movement, int]) -> np.ndarray:
    """The (hours, 12) count matrix with one row per dict, absent movements 0."""
    return np.array([[hour.get(m, 0) for m in MOVEMENTS] for hour in hours], dtype=np.int64).reshape(-1, 12)


# --- the list pipeline: one row per vehicle, the oracle for the column code ---


def schedule_departures_oracle(hourly_tmcs, seed) -> list[Row]:
    rng = np.random.default_rng(seed)
    plans = []
    serial = 0
    for hour, tmc in enumerate(hourly_tmcs):
        lo, hi = 3600 * hour, 3600 * (hour + 1)
        for movement in MOVEMENTS:
            n = tmc[movement]
            if n == 0:
                continue
            for t in rng.integers(lo, hi, size=n):
                plans.append(Row(f"v{serial:06d}", int(t), movement))
                serial += 1
    plans.sort(key=lambda p: (p.depart, p.id))
    return plans


def aggregate_per_minute_oracle(plans, minutes=None) -> MinuteTmc:
    if minutes is None:
        minutes = 0 if not plans else max(p.depart for p in plans) // 60 + 1
    buckets = [[0] * 12 for _ in range(minutes)]
    for p in plans:
        if p.depart // 60 < minutes:
            buckets[p.depart // 60][p.movement] += 1
    return MinuteTmc(np.array(buckets, dtype=np.int64).reshape(-1, 12))


def generate_demand_oracle(spec: DemandSpec) -> tuple[list[Row], MinuteTmc]:
    tables, s_depart = demand_oracle.hourly_tables(spec)
    plans = schedule_departures_oracle(tables, s_depart)
    return plans, aggregate_per_minute_oracle(plans, minutes=60 * len(tables))


def split_counts_oracle(counts, fractions, mode, seeds) -> list[list[int]]:
    """Each count of each row split on its own by the scalar splits: one Generator per row in sampled mode."""
    out = []
    for r, row in enumerate(counts):
        rng = np.random.default_rng(seeds[r]) if mode == "sampled" else None
        parts = []
        for count, triple in zip(row, fractions):
            if rng is None:
                parts += demand_oracle.proportional_split(triple, count)
            else:
                parts += rng.multinomial(count, triple).tolist()
        out.append(parts)
    return out


def hourly_totals(profile: BimodalProfile, seed: int) -> list[int]:
    """The vehicles of each hour of the demand ``profile`` and ``seed`` give."""
    _, minute_tmc = generate_demand(DemandSpec(profile=profile, seed=seed))
    return minute_tmc.counts.reshape(len(profile.hours), -1).sum(axis=1).tolist()


# Up to three hours of up to 60 vehicles per movement: enough same-second ties
# that an unstable sort or a wrong tie order shows.
hourly_tables = st.lists(st.tuples(*[st.integers(0, 60)] * 12), max_size=3).map(
    lambda rows: np.array(rows, dtype=np.int64).reshape(-1, 12)
)


weight_vectors = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4).map(
    lambda ws: ZonePattern(tuple(w / sum(ws) for w in ws))
)

# A zone's (left, through, right) shares: zeros and ties as well as any mix.
turn_triples = (
    st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.01, 1.0)), min_size=3, max_size=3)
    .filter(lambda fs: sum(fs) > 0)
    .map(lambda fs: tuple(f / sum(fs) for f in fs))
)


class TestHourlyCounts:
    def test_default_profile_peak_hours_within_five_sigma(self):
        profile = BimodalProfile()
        for seed in range(20):
            counts = hourly_totals(profile, seed)
            assert len(counts) == 4
            for peak_hour in (1, 2):
                assert 18000 <= counts[peak_hour] <= 22000

    def test_degenerate_sigma_returns_means_exactly(self):
        profile = BimodalProfile(100, 0, 200, 0)
        assert hourly_totals(profile, 123) == [100, 200, 200, 100]

    def test_deterministic_per_seed(self):
        profile = BimodalProfile()
        assert hourly_totals(profile, 7) == hourly_totals(profile, 7)

    def test_mean_of_offpeak_hour_over_200_seeds(self):
        profile = BimodalProfile(hours=("offpeak",))
        mean = sum(hourly_totals(profile, s)[0] for s in range(200)) / 200
        half_width = 4 * profile.sigma_offpeak / 200**0.5
        assert abs(mean - profile.mu_offpeak) <= half_width

    def test_negative_draws_clamped(self):
        profile = BimodalProfile(mu_offpeak=1, sigma_offpeak=1000, hours=("offpeak",) * 50)
        assert min(hourly_totals(profile, 3)) == 0


class TestPatternLibrary:
    def test_complement_definitions(self):
        lib = PATTERNS
        assert lib["PD"].weights == (0.1, 0.4, 0.1, 0.4)
        assert lib["PF"].weights == (0.1, 0.1, 0.4, 0.4)
        assert lib["PG"].weights == (0.4, 0.1, 0.1, 0.4)

    def test_every_pattern_sums_to_one(self):
        for pattern in PATTERNS.values():
            assert sum(pattern.weights) == 1.0

    def test_complement_algebra_bit_exact(self):
        lib = PATTERNS
        for base, comp in (("PC", "PD"), ("PB", "PF"), ("PE", "PG")):
            total = tuple(a + b for a, b in zip(lib[base].weights, lib[comp].weights))
            assert total == UNIVERSAL_WEIGHTS

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            ZonePattern((0.5, 0.5, 0.5, 0.5))


class TestSplitByZone:
    def test_uniform_worked_example(self):
        assert split_counts([[100]], [PATTERNS["PA"].weights]).tolist() == [[25, 25, 25, 25]]

    def test_zero_total(self):
        assert split_counts([[0]], [PATTERNS["PB"].weights]).tolist() == [[0, 0, 0, 0]]

    def test_largest_remainder_example(self):
        assert split_counts([[10]], [PATTERNS["PB"].weights]).tolist() == [[4, 4, 1, 1]]

    @given(st.integers(0, 100_000), weight_vectors)
    def test_deterministic_mode_conserves_total(self, total, pattern):
        assert split_counts([[total]], [pattern.weights]).sum() == total

    @given(st.integers(0, 10_000), weight_vectors, st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_sampled_mode_conserves_total(self, total, pattern, seed):
        assert split_counts([[total]], [pattern.weights], "sampled", [seed]).sum() == total


class TestSplitByMovement:
    def test_hand_example(self):
        ratios = TurnRatio.uniform(0.25, 0.60, 0.15)
        table = split_counts([[20, 0, 0, 0]], ratios.by_zone)[0]
        assert (table[Movement.WBL], table[Movement.WBT], table[Movement.WBR]) == (5, 12, 3)

    def test_all_left(self):
        table = split_counts([[7, 8, 9, 10]], TurnRatio.uniform(1, 0, 0).by_zone)[0]
        assert all(table[m] == 0 for m in Movement if m.turn != 0)
        assert table.sum() == 34

    @given(st.tuples(*[st.integers(0, 5000)] * 4))
    def test_total_preserved(self, zone_counts):
        table = split_counts([zone_counts], TurnRatio.default().by_zone)
        assert table.shape == (1, 12) and table.dtype == np.int64
        for zone in Zone:
            zone_total = sum(table[0, m] for m in Movement if m.origin is zone)
            assert zone_total == zone_counts[zone.index]

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            TurnRatio.uniform(0.5, 0.6, 0.2)


@pytest.mark.parametrize("mode", ["deterministic", "sampled"])
def test_split_counts_of_no_rows(mode):
    split = split_counts(np.zeros((0, 4), dtype=np.int64), TurnRatio.default().by_zone, mode, [])
    assert split.shape == (0, 12) and split.dtype == np.int64


@pytest.mark.parametrize("mode", ["deterministic", "sampled"])
def test_no_hours_is_an_empty_demand(mode):
    departures, minute_tmc = generate_demand(DemandSpec(profile=BimodalProfile(hours=()), mode=mode))
    assert len(departures) == 0 and minute_tmc.counts.shape == (0, 12)


@st.composite
def split_cases(draw):
    """(counts, fractions, mode, seeds): up to 4 rows of up to 4 counts, each split over 1-4 parts.

    The counts hold zeros, and the fractions zeros and ties; every fraction row
    has a positive sum. A sampled split needs rows that sum to 1, so it gets
    them normalised; a deterministic one keeps them as drawn, so that the order
    of the row sum shows.
    """
    rows, k, parts = draw(st.integers(0, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["deterministic", "sampled"]))
    count = st.one_of(st.just(0), st.integers(0, 50), st.integers(0, 10**6))
    counts = draw(st.lists(st.lists(count, min_size=k, max_size=k), min_size=rows, max_size=rows))
    value = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.4, 1.0]), st.floats(0, 10))
    fractions = []
    for _ in range(k):
        row = draw(st.lists(value, min_size=parts, max_size=parts).filter(lambda r: sum(r) > 0))
        fractions.append([f / sum(row) for f in row] if mode == "sampled" else row)
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=rows, max_size=rows))
    return counts, fractions, mode, seeds


@settings(max_examples=300, deadline=None)
@given(split_cases())
@example(([[10], [0]], [[0.4, 0.4, 0.1, 0.1]], "deterministic", [0, 0]))
# Row sums added out of order show: reversed in the first, pairwise in the second.
@example(([[3, 152]], [[0.7, 0.6, 0.2], [0.1, 0.1, 0.7]], "deterministic", [0]))
@example(([[8]], [[0.6, 0.7, 0.6, 0.1]], "deterministic", [0]))
def test_split_counts_equals_the_scalar_splits(case):
    counts, fractions, mode, seeds = case
    k = len(fractions)
    got = split_counts(np.array(counts, dtype=np.int64).reshape(len(counts), k), fractions, mode, seeds)
    assert got.dtype == np.int64
    assert got.tolist() == split_counts_oracle(counts, fractions, mode, seeds)


class TestScheduleDepartures:
    def test_single_vehicle_lands_in_its_hour(self):
        plans = schedule_departures(hourly_of({}, {}, {Movement.NBT: 1}), seed=5)
        assert len(plans) == 1
        assert 7200 <= plans.departs[0] < 10800

    def test_empty_demand(self):
        assert len(schedule_departures(hourly_of({}), seed=1)) == 0
        assert len(schedule_departures(hourly_of(), seed=1)) == 0

    def test_empirical_mean_of_first_hour(self):
        plans = schedule_departures(hourly_of({Movement.EBT: 1000}), seed=11)
        mean = sum(plans.departs.tolist()) / len(plans)
        assert 1500 <= mean <= 2100

    def test_sorted_and_unique_ids(self):
        plans = schedule_departures(hourly_of(*[{m: 20 for m in Movement}] * 2), seed=3)
        departs = plans.departs.tolist()
        assert departs == sorted(departs)
        assert len(set(plans.ids)) == len(plans)

    def test_deterministic(self):
        tables = hourly_of({Movement.WBL: 50, Movement.SBR: 50})
        assert schedule_departures(tables, 9) == schedule_departures(tables, 9)


class TestColumnsEqualTheListPipeline:
    @settings(max_examples=60, deadline=None)
    @given(hourly_tables, st.integers(0, 2**32), st.none() | st.integers(0, 200))
    def test_schedule_and_aggregate(self, tables, seed, minutes):
        expected = schedule_departures_oracle(tables, seed)
        departures = schedule_departures(tables, seed)
        assert rows_of(departures) == expected
        assert aggregate_per_minute(departures, minutes) == aggregate_per_minute_oracle(expected, minutes)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.tuples(st.floats(0, 400), st.floats(0, 200), st.floats(0, 1500), st.floats(0, 200)),
        st.lists(st.sampled_from(["offpeak", "peak"]), max_size=4),
        st.one_of(st.sampled_from(list(PATTERNS.values())), weight_vectors),
        st.one_of(st.just(TurnRatio.default()), st.tuples(*[turn_triples] * 4).map(TurnRatio)),
        st.sampled_from(["deterministic", "sampled"]),
    )
    @example(0, (101.5, 0.0, 200.5, 0.0), ["offpeak", "peak"], PATTERNS["PB"], TurnRatio.default(), "deterministic")
    @example(7, (50.0, 5.0, 80.0, 5.0), ["offpeak", "peak"], PATTERNS["PC"], TurnRatio.default(), "sampled")
    def test_generate_demand(self, seed, levels, hours, pattern, ratios, mode):
        profile = BimodalProfile(*levels, tuple(hours))
        spec = DemandSpec(profile=profile, pattern=pattern, ratios=ratios, seed=seed, mode=mode)
        departures, minute_tmc = generate_demand(spec)
        expected, expected_tmc = generate_demand_oracle(spec)
        assert rows_of(departures) == expected
        assert minute_tmc == expected_tmc

    def test_order_past_serial_999999(self):
        # 'v1000000' < 'v999999' as strings, so at one second the wider id comes first.
        serials = np.array([999_998, 999_999, 1_000_000, 1_000_001, 5])
        order = departure_order(np.zeros(5, dtype=np.int64), serials)
        assert [f"v{s:06d}" for s in serials[order]] == ["v000005", "v1000000", "v1000001", "v999998", "v999999"]

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(999_900, 1_000_100)), unique_by=lambda r: r[1], max_size=40)
    )
    def test_order_matches_id_strings_across_the_width_change(self, rows):
        departs = np.array([d for d, _ in rows], dtype=np.int64)
        serials = np.array([s for _, s in rows], dtype=np.int64)
        expected = sorted(range(len(rows)), key=lambda i: (rows[i][0], f"v{rows[i][1]:06d}"))
        assert departure_order(departs, serials).tolist() == expected


class TestDepartures:
    rows = [("b", 3, Movement.NBT), ("a", 3, Movement.WBL), ("c", 9, Movement.SBR)]

    def test_serial_ids_are_spelled_when_asked(self):
        plans = Departures(np.array([0, 1]), np.array([0, 11]), np.array([7, 1_000_000]))
        assert plans.ids == ["v000007", "v1000000"]

    def test_equality_compares_the_columns_and_the_spelled_ids(self):
        plans = departures(self.rows)
        assert plans == departures(self.rows) and len(plans) == 3
        assert plans != departures(self.rows[:2])
        assert plans != departures([*self.rows[:2], ("c", 9, Movement.SBT)])
        assert plans != departures([*self.rows[:2], ("c", 8, Movement.SBR)])
        assert plans != departures([*self.rows[:2], ("d", 9, Movement.SBR)])
        assert departures([("v000007", 0, Movement.WBL)]) == Departures([0], [0], np.array([7]))
        assert departures([]) == departures([]) != rows_of(departures([]))

    def test_columns_must_have_one_length(self):
        with pytest.raises(ValueError):
            Departures(np.array([0, 1]), np.array([0]), ("a", "b"))

    def test_negative_departure_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            departures([("a", 0, Movement.WBL), ("b", -1, Movement.WBL)])


class TestAggregatePerMinute:
    def test_single_vehicle_bucketed(self):
        plans = departures([("v0", 61, Movement.WBL)])
        minute_tmc = aggregate_per_minute(plans)
        assert len(minute_tmc) == 2
        assert minute_tmc[0].total == 0
        assert minute_tmc.counts[1, Movement.WBL] == 1
        assert minute_tmc[1].total == 1

    def test_empty_plans_fixed_minutes(self):
        minute_tmc = aggregate_per_minute(departures([]), minutes=5)
        assert len(minute_tmc) == 5
        assert minute_tmc.counts.tolist() == [[0] * 12] * 5

    def test_rejects_unsorted(self):
        plans = departures([("a", 100, Movement.WBL), ("b", 10, Movement.WBL)])
        with pytest.raises(ValueError):
            aggregate_per_minute(plans)

    @given(st.lists(st.integers(0, 3599), max_size=200), st.integers(0, 11))
    def test_conservation(self, departs, movement_idx):
        movement = Movement(movement_idx)
        plans = departures(
            [(f"v{i}", t, movement) for i, t in enumerate(sorted(departs))]
        )
        minute_tmc = aggregate_per_minute(plans, minutes=60)
        assert minute_tmc.total == len(plans)


class TestPipeline:
    def test_conservation_through_all_stages(self):
        spec = DemandSpec(seed=42, pattern=PATTERNS["PC"])
        plans, minute_tmc = generate_demand(spec)
        assert minute_tmc.total == len(plans)
        assert len(minute_tmc) == 240

    def test_bit_identical_for_fixed_seed(self):
        spec = DemandSpec(seed=7, mode="sampled")
        first = generate_demand(spec)
        second = generate_demand(spec)
        assert first == second

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'Deterministic'"):
            DemandSpec(mode="Deterministic")

    def test_distinct_seeds_differ(self):
        a, _ = generate_demand(DemandSpec(seed=1))
        b, _ = generate_demand(DemandSpec(seed=2))
        assert a != b


class TestDemandSpecFile:
    def test_parse_full(self):
        spec = parse_demand_spec(
            """
            # demand scenario
            mu_offpeak = 1000
            sigma_offpeak = 10
            mu_peak = 5000
            sigma_peak = 20
            hours = offpeak, peak, offpeak
            pattern = pc
            turn_ratios = 0.3, 0.5, 0.2
            seed = 99
            """
        )
        assert spec.profile.mu_peak == 5000
        assert spec.profile.hours == ("offpeak", "peak", "offpeak")
        assert spec.pattern == PATTERNS["PC"]
        assert spec.ratios.by_zone[Zone.WEST.index] == (0.3, 0.5, 0.2)
        assert spec.seed == 99

    def test_parse_explicit_weights(self):
        spec = parse_demand_spec("weights = 0.7, 0.1, 0.1, 0.1")
        assert spec.pattern.weights == (0.7, 0.1, 0.1, 0.1)

    def test_rejects_unknown_keys_and_bad_pattern(self):
        with pytest.raises(ValueError):
            parse_demand_spec("wibble = 3")
        with pytest.raises(ValueError):
            parse_demand_spec("pattern = PZ")
        with pytest.raises(ValueError):
            parse_demand_spec("pattern = PA\nweights = 0.25,0.25,0.25,0.25")
        with pytest.raises(ValueError, match="unknown mode 'fast'"):
            parse_demand_spec("mode = fast")

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="line 2: key 'seed' given twice"):
            parse_demand_spec("seed = 1\nSeed = 2")


def test_minute_tmc_roundtrip(tmp_path):
    _, minute_tmc = generate_demand(DemandSpec(seed=3, profile=BimodalProfile(50, 5, 100, 5)))
    out = tmp_path / "m.csv"
    write_minute_tmc(minute_tmc, out)
    assert read_minute_tmc(out) == minute_tmc


def test_departures_roundtrip(tmp_path):
    plans, _ = generate_demand(DemandSpec(seed=3, profile=BimodalProfile(50, 5, 100, 5)))
    out = tmp_path / "d.csv"
    write_departures(plans, out)
    assert read_departures(out) == plans


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 10**6)] * 12), max_size=5))
def test_minute_tmc_roundtrip_property(tmp_path_factory, counts):
    minute_tmc = MinuteTmc(np.array(counts, dtype=np.int64).reshape(-1, 12))
    out = tmp_path_factory.mktemp("m") / "m.csv"
    write_minute_tmc(minute_tmc, out)
    assert read_minute_tmc(out) == minute_tmc


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(min_size=1, max_size=6), st.integers(0, 10**6), st.sampled_from(MOVEMENTS)),
        max_size=8,
        unique_by=lambda p: p[0],
    )
)
def test_departures_roundtrip_property(tmp_path_factory, rows):
    plans = departures(rows)
    out = tmp_path_factory.mktemp("d") / "d.csv"
    write_departures(plans, out)
    assert read_departures(out) == plans


MINUTE_HEADER = "minute,WBL,WBT,WBR,NBL,NBT,NBR,EBL,EBT,EBR,SBL,SBT,SBR"
ONES = ",".join(["1"] * 12)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(f"{MINUTE_HEADER.replace(',WBT', '')}\n0,{ONES[2:]}\n", id="dropped-column"),
        pytest.param(f"{MINUTE_HEADER}\n0,{ONES}\n1,{ONES[2:]}\n", id="short-row"),
        pytest.param(f"{MINUTE_HEADER}\n0,{ONES[:-1]}x\n", id="non-integer-count"),
        pytest.param(f"{MINUTE_HEADER}\n0,{ONES}\n0,{ONES}\n", id="repeated-minute"),
        pytest.param(f"{MINUTE_HEADER}\n1,{ONES}\n0,{ONES}\n", id="minutes-out-of-order"),
        pytest.param(f"{MINUTE_HEADER}\n0,{ONES}\n2,{ONES}\n", id="missing-minute"),
        pytest.param(f"{MINUTE_HEADER}\n0,{ONES}\n1,{ONES[:-1]}{2**32}\n", id="count-past-bound"),
        pytest.param(f"{MINUTE_HEADER}\n0,-1{ONES[1:]}\n", id="negative-count"),
    ],
)
def test_minute_tmc_file_rejects_malformed_rows(tmp_path, text):
    bad = tmp_path / "m.csv"
    bad.write_text(text)
    with pytest.raises(ValueError):
        read_minute_tmc(bad)


def test_minute_tmc_file_names_the_line_of_a_count_outside_the_bound(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(f"{MINUTE_HEADER}\n0,{ONES}\n1,{ONES[:-1]}{2**32 - 1}\n")
    assert read_minute_tmc(path)[1].counts == (1,) * 11 + (2**32 - 1,)
    for count in (2**32, -1, "9" * 401):
        path.write_text(f"{MINUTE_HEADER}\n0,{ONES}\n1,{ONES[:-1]}{count}\n")
        with pytest.raises(ValueError, match=r"m\.csv, line 3: count must lie in \[0, 2\*\*32\)"):
            read_minute_tmc(path)


def test_header_only_minute_tmc_file_is_no_minutes(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(MINUTE_HEADER + "\n")
    minute_tmc = read_minute_tmc(path)
    assert minute_tmc.counts.shape == (0, 12) and len(minute_tmc) == 0 and minute_tmc.total == 0
    write_minute_tmc(minute_tmc, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == MINUTE_HEADER + "\n"


class TestMinuteTmc:
    def test_counts_are_a_read_only_int64_copy(self):
        source = np.array([[1] * 12, [2] * 12], dtype=np.int32)
        minute_tmc = MinuteTmc(source)
        source[0, 0] = 99
        assert minute_tmc.counts.dtype == np.int64 and minute_tmc.counts.tolist() == [[1] * 12, [2] * 12]
        with pytest.raises(ValueError):
            minute_tmc.counts[0, 0] = 3

    def test_minute_is_a_table_and_total_sums_every_count(self):
        minute_tmc = MinuteTmc([range(12), range(12, 24)])
        assert minute_tmc[1] == TmcTable(tuple(range(12, 24)))
        assert minute_tmc[-1] == minute_tmc[1]
        assert len(minute_tmc) == 2 and minute_tmc.total == sum(range(24))

    def test_equality_compares_the_counts(self):
        assert MinuteTmc([[1] * 12]) == MinuteTmc(np.ones((1, 12), dtype=np.uint8))
        assert MinuteTmc([[1] * 12]) != MinuteTmc([[1] * 11 + [2]])
        assert MinuteTmc([[1] * 12]) != MinuteTmc([[1] * 12] * 2)
        assert MinuteTmc(np.zeros((0, 12), dtype=np.int64)) == MinuteTmc(np.zeros((0, 12), dtype=np.int8))

    @pytest.mark.parametrize(
        "counts",
        [
            pytest.param([], id="no-rows-and-no-columns"),
            pytest.param([1] * 12, id="one-dimensional"),
            pytest.param([[1] * 11], id="eleven-columns"),
            pytest.param([[[1] * 12]], id="three-dimensional"),
            pytest.param([[1.0] * 12], id="float-counts"),
            pytest.param([[True] * 12], id="boolean-counts"),
            pytest.param([[2**63] * 12], id="past-int64"),
            pytest.param(np.full((1, 12), 2**63, dtype=np.uint64), id="uint64"),
            pytest.param([[0] * 11 + [-1]], id="negative-count"),
        ],
    )
    def test_rejects_anything_but_a_matrix_of_counts(self, counts):
        with pytest.raises(ValueError):
            MinuteTmc(counts)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("id,depart\nv0,0\n", id="dropped-column"),
        pytest.param("id,depart,movement\nv0,0,WBT\nv1,5\n", id="short-row"),
        pytest.param("id,depart,movement\nv0,0.5,WBT\n", id="non-integer-departure"),
        pytest.param("id,depart,movement\nv0,-1,WBT\n", id="negative-departure"),
        pytest.param(f"id,depart,movement\nv0,{2**63},WBT\n", id="departure-past-int64"),
        pytest.param("id,depart,movement\nv0,0,WBT\nv0,5,NBT\n", id="repeated-id"),
        pytest.param("id,depart,movement\nv0,0,XYZ\n", id="unknown-movement"),
        pytest.param("depart,id,movement\n0,v0,WBT\n", id="reordered-columns"),
    ],
)
def test_departures_file_rejects_malformed_rows(tmp_path, text):
    bad = tmp_path / "d.csv"
    bad.write_text(text)
    with pytest.raises(ValueError, match="d.csv"):
        read_departures(bad)
