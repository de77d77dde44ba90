"""Tests for demand generation: hourly draws, splits, departures, aggregation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcsignal.model import Movement, TmcTable, Zone
from tmcsignal.trafficgen import (
    PATTERNS,
    UNIVERSAL_WEIGHTS,
    BimodalProfile,
    DemandSpec,
    MinuteTmc,
    TurnRatio,
    VehiclePlan,
    ZonePattern,
    aggregate_per_minute,
    generate_demand,
    hourly_counts,
    parse_demand_spec,
    pattern_library,
    read_minute_tmc,
    schedule_departures,
    split_by_movement,
    split_by_zone,
    write_minute_tmc,
)

weight_vectors = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4).map(
    lambda ws: ZonePattern(tuple(w / sum(ws) for w in ws))
)


class TestHourlyCounts:
    def test_default_profile_peak_hours_within_five_sigma(self):
        profile = BimodalProfile()
        for seed in range(20):
            counts = hourly_counts(profile, seed)
            assert len(counts) == 4
            for peak_hour in (1, 2):
                assert 18000 <= counts[peak_hour] <= 22000

    def test_degenerate_sigma_returns_means_exactly(self):
        profile = BimodalProfile(100, 0, 200, 0)
        assert hourly_counts(profile, 123) == [100, 200, 200, 100]

    def test_deterministic_per_seed(self):
        profile = BimodalProfile()
        assert hourly_counts(profile, 7) == hourly_counts(profile, 7)

    def test_mean_of_offpeak_hour_over_200_seeds(self):
        profile = BimodalProfile()
        mean = sum(hourly_counts(profile, s)[0] for s in range(200)) / 200
        half_width = 4 * profile.sigma_offpeak / 200**0.5
        assert abs(mean - profile.mu_offpeak) <= half_width

    def test_negative_draws_clamped(self):
        profile = BimodalProfile(mu_offpeak=1, sigma_offpeak=1000, hours=("offpeak",) * 50)
        assert min(hourly_counts(profile, 3)) == 0


class TestPatternLibrary:
    def test_complement_definitions(self):
        lib = pattern_library()
        assert lib["PD"].weights == (0.1, 0.4, 0.1, 0.4)
        assert lib["PF"].weights == (0.1, 0.1, 0.4, 0.4)
        assert lib["PG"].weights == (0.4, 0.1, 0.1, 0.4)

    def test_every_pattern_sums_to_one(self):
        for pattern in pattern_library().values():
            assert sum(pattern.weights) == 1.0

    def test_complement_algebra_bit_exact(self):
        lib = pattern_library()
        for base, comp in (("PC", "PD"), ("PB", "PF"), ("PE", "PG")):
            total = tuple(a + b for a, b in zip(lib[base].weights, lib[comp].weights))
            assert total == UNIVERSAL_WEIGHTS

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            ZonePattern((0.5, 0.5, 0.5, 0.5))


class TestSplitByZone:
    def test_uniform_worked_example(self):
        assert split_by_zone(100, PATTERNS["PA"]) == (25, 25, 25, 25)

    def test_zero_total(self):
        assert split_by_zone(0, PATTERNS["PB"]) == (0, 0, 0, 0)

    def test_largest_remainder_example(self):
        assert split_by_zone(10, PATTERNS["PB"]) == (4, 4, 1, 1)

    @given(st.integers(0, 100_000), weight_vectors)
    def test_deterministic_mode_conserves_total(self, total, pattern):
        assert sum(split_by_zone(total, pattern)) == total

    @given(st.integers(0, 10_000), weight_vectors, st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_sampled_mode_conserves_total(self, total, pattern, seed):
        assert sum(split_by_zone(total, pattern, "sampled", seed)) == total


class TestSplitByMovement:
    def test_hand_example(self):
        ratios = TurnRatio.uniform(0.25, 0.60, 0.15)
        table = split_by_movement((20, 0, 0, 0), ratios)
        assert (table[Movement.WBL], table[Movement.WBT], table[Movement.WBR]) == (5, 12, 3)

    def test_all_left(self):
        table = split_by_movement((7, 8, 9, 10), TurnRatio.uniform(1, 0, 0))
        assert all(table[m] == 0 for m in Movement if m.turn != 0)
        assert table.total == 34

    @given(st.tuples(*[st.integers(0, 5000)] * 4))
    def test_total_preserved(self, zone_counts):
        table = split_by_movement(zone_counts, TurnRatio.default())
        assert table.total == sum(zone_counts)
        for zone in Zone:
            zone_total = sum(table[m] for m in Movement if m.origin is zone)
            assert zone_total == zone_counts[zone.index]

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            TurnRatio.uniform(0.5, 0.6, 0.2)


class TestScheduleDepartures:
    def test_single_vehicle_lands_in_its_hour(self):
        tables = [TmcTable.zero(), TmcTable.zero(), TmcTable.from_mapping({Movement.NBT: 1})]
        plans = schedule_departures(tables, seed=5)
        assert len(plans) == 1
        assert 7200 <= plans[0].depart < 10800

    def test_empty_demand(self):
        assert schedule_departures([TmcTable.zero()], seed=1) == []

    def test_empirical_mean_of_first_hour(self):
        tables = [TmcTable.from_mapping({Movement.EBT: 1000})]
        plans = schedule_departures(tables, seed=11)
        mean = sum(p.depart for p in plans) / len(plans)
        assert 1500 <= mean <= 2100

    def test_sorted_and_unique_ids(self):
        tables = [TmcTable.from_mapping({m: 20 for m in Movement})] * 2
        plans = schedule_departures(tables, seed=3)
        departs = [p.depart for p in plans]
        assert departs == sorted(departs)
        assert len({p.id for p in plans}) == len(plans)

    def test_deterministic(self):
        tables = [TmcTable.from_mapping({Movement.WBL: 50, Movement.SBR: 50})]
        assert schedule_departures(tables, 9) == schedule_departures(tables, 9)


class TestAggregatePerMinute:
    def test_single_vehicle_bucketed(self):
        plans = [VehiclePlan("v0", 61, Movement.WBL)]
        minute_tmc = aggregate_per_minute(plans)
        assert len(minute_tmc) == 2
        assert minute_tmc[0].total == 0
        assert minute_tmc[1][Movement.WBL] == 1
        assert minute_tmc[1].total == 1

    def test_empty_plans_fixed_minutes(self):
        minute_tmc = aggregate_per_minute([], minutes=5)
        assert len(minute_tmc) == 5
        assert all(t == TmcTable.zero() for t in minute_tmc.tables)

    def test_rejects_unsorted(self):
        plans = [VehiclePlan("a", 100, Movement.WBL), VehiclePlan("b", 10, Movement.WBL)]
        with pytest.raises(ValueError):
            aggregate_per_minute(plans)

    @given(st.lists(st.integers(0, 3599), max_size=200), st.integers(0, 11))
    def test_conservation(self, departs, movement_idx):
        movement = Movement(movement_idx)
        plans = [
            VehiclePlan(f"v{i}", t, movement) for i, t in enumerate(sorted(departs))
        ]
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
        assert spec.ratios.for_zone(Zone.WEST) == (0.3, 0.5, 0.2)
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

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="line 2: key 'seed' given twice"):
            parse_demand_spec("seed = 1\nSeed = 2")


def test_minute_tmc_roundtrip(tmp_path):
    _, minute_tmc = generate_demand(DemandSpec(seed=3, profile=BimodalProfile(50, 5, 100, 5)))
    out = tmp_path / "m.csv"
    write_minute_tmc(minute_tmc, out)
    assert read_minute_tmc(out) == minute_tmc
