"""Tests for the quantized-allocation Q-learner."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tmcsignal.model import TmcTable
from tmcsignal.rl import (
    ACTIONS,
    N_ACTIONS,
    EpsilonSchedule,
    Hyperparams,
    QFunction,
    VolumeStreamEnv,
    action_fractions,
    best_action_by_exhaustion,
    build_rl_program,
    delay,
    direction_volumes,
    rl_plan,
    train,
)
from tmcsignal.trafficgen import MinuteTmc

DOMINANT_WB = TmcTable((20, 60, 20, 2, 6, 2, 2, 6, 2, 2, 6, 2))
SYMMETRIC = TmcTable((10, 30, 10) * 4)


def constant_stream(table: TmcTable, minutes: int = 60) -> MinuteTmc:
    return MinuteTmc((table,) * minutes)


class TestActionSet:
    def test_size_is_84(self):
        assert N_ACTIONS == 84
        assert len(set(ACTIONS)) == 84

    def test_every_action_sums_exactly(self):
        # Exactness lives in the integer-tenths representation; the float view
        # is checked with a correctly-rounded sum.
        for action in ACTIONS:
            assert sum(action) == 10
            assert min(action) >= 1
            assert math.fsum(action_fractions(action)) == 1.0


class TestDelay:
    def test_uniform(self):
        assert delay((10, 10, 10, 10), (20, 20, 20, 20)) == 2.0

    def test_zero_volumes(self):
        assert delay((0, 0, 0, 0), (5, 5, 5, 5)) == 0.0

    def test_worked_example(self):
        usable = 90 - 4 * 3
        greens = [f * usable for f in (0.4, 0.3, 0.2, 0.1)]
        assert delay((100, 50, 25, 25), greens) == pytest.approx(10.1496, abs=1e-3)

    def test_zero_green_rejected(self):
        with pytest.raises(ValueError):
            delay((1, 1, 1, 1), (0, 10, 10, 10))

    @given(
        st.tuples(*[st.integers(0, 500)] * 4),
        st.sampled_from(ACTIONS),
        st.integers(0, 3),
    )
    def test_more_green_never_more_delay(self, volumes, action, bump_dir):
        greens = [f * 78 for f in action_fractions(action)]
        base = delay(volumes, greens)
        greens[bump_dir] += 5.0
        assert delay(volumes, greens) <= base


class TestEnv:
    def test_rewards_are_never_positive(self):
        env = VolumeStreamEnv(constant_stream(DOMINANT_WB, 5))
        env.reset()
        done = False
        while not done:
            reward, _, done = env.step(ACTIONS[0])
            assert reward <= 0

    def test_terminates_at_stream_end(self):
        env = VolumeStreamEnv(constant_stream(DOMINANT_WB, 3))
        env.reset()
        for _ in range(3):
            reward, next_state, done = env.step(ACTIONS[10])
        assert done and next_state is None
        with pytest.raises(RuntimeError):
            env.step(ACTIONS[0])

    def test_state_normalized_to_unit_interval(self):
        env = VolumeStreamEnv(constant_stream(DOMINANT_WB, 4))
        state = env.reset()
        assert max(state) == 1.0 and min(state) >= 0.0

    def test_worked_reward(self):
        table = TmcTable((40, 40, 20, 20, 20, 10, 10, 10, 5, 10, 10, 5))
        assert direction_volumes(table) == (100, 50, 25, 25)
        env = VolumeStreamEnv(constant_stream(table, 2), cycle=90, yellow=3)
        env.reset()
        action = (4, 3, 2, 1)
        reward, _, _ = env.step(action)
        assert reward == pytest.approx(-10.1496, abs=1e-3)


class TestTraining:
    def test_deterministic_for_fixed_seed(self):
        stream = constant_stream(DOMINANT_WB, 20)
        q1 = train(stream, episodes=5, seed=3)
        q2 = train(stream, episodes=5, seed=3)
        for w1, w2 in zip(q1.weights + q1.biases, q2.weights + q2.biases):
            assert np.array_equal(w1, w2)

    def test_zero_demand_trains_without_error(self):
        stream = constant_stream(TmcTable.zero(), 10)
        q = train(stream, episodes=3, seed=0)
        assert q.norm == 1.0

    def test_exhaustive_optimum_favors_dominant_direction(self):
        for action in (best_action_by_exhaustion(direction_volumes(DOMINANT_WB), 78),):
            assert action[0] == max(action)

    def test_converges_to_dominant_direction(self):
        stream = constant_stream(DOMINANT_WB, 60)
        state = tuple(v / 100 for v in direction_volumes(DOMINANT_WB))
        hits = 0
        for seed in range(10):
            q = train(stream, episodes=100, seed=seed)
            action = q.greedy_action(state)
            hits += action[0] == max(action)
        assert hits >= 8

    def test_learning_progress(self, tmp_path):
        log = tmp_path / "log.csv"
        train(constant_stream(DOMINANT_WB, 30), episodes=50, seed=1, log_path=log)
        with open(log) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        rewards = [float(r["mean_reward"]) for r in rows]
        epsilons = [float(r["epsilon"]) for r in rows]
        assert epsilons == sorted(epsilons, reverse=True)
        first_decile = rewards[:5]
        last_decile = rewards[-5:]
        assert sum(last_decile) / 5 >= sum(first_decile) / 5

    def test_rejects_zero_episodes(self):
        with pytest.raises(ValueError):
            train(constant_stream(DOMINANT_WB, 5), episodes=0)


class TestEpsilonSchedule:
    def test_monotone_within_bounds(self):
        schedule = EpsilonSchedule(start=1.0, end=0.1, decay=0.9)
        values = [schedule.value(e) for e in range(100)]
        assert values == sorted(values, reverse=True)
        assert values[0] == 1.0
        assert min(values) == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(start=0.1, end=0.5)


class TestRlPlan:
    def test_symmetric_demand_near_equal_greens(self):
        # Single-minute episodes make every target terminal (no bootstrap
        # noise), which pins the action ranking down tightly.
        stream = constant_stream(SYMMETRIC, 1)
        hp = Hyperparams(lr_decay=0.999)
        q = train(stream, episodes=3000, seed=2, hp=hp)
        plan = rl_plan(q, SYMMETRIC, cycle=90)
        greens = plan.greens
        assert sum(greens) + sum(plan.yellows) == 90
        # within one quantization step: shares differ by at most 0.1 of usable green
        assert max(greens) - min(greens) <= 0.1 * 78 + 1

    def test_dominant_demand_gets_max_share(self):
        stream = constant_stream(DOMINANT_WB, 60)
        q = train(stream, episodes=100, seed=4)
        plan = rl_plan(q, DOMINANT_WB, cycle=90)
        assert plan.greens[0] == max(plan.greens)

    def test_zero_demand_plan_still_conserves_cycle(self):
        q = QFunction(seed=0)
        plan = rl_plan(q, TmcTable.zero(), cycle=120)
        assert sum(plan.greens) + sum(plan.yellows) == 120

    def test_split_phasing_structure(self):
        q = QFunction(seed=0)
        plan = rl_plan(q, DOMINANT_WB, cycle=90)
        served_sets = [p.served for p in plan.phases]
        assert all(len(s) == 3 for s in served_sets)

    def test_program_builder_covers_stream(self):
        stream = constant_stream(DOMINANT_WB, 7)
        q = QFunction(seed=1)
        program = build_rl_program(q, stream, cycle=90)
        assert len(program) == 7


def test_weights_roundtrip(tmp_path):
    stream = constant_stream(DOMINANT_WB, 10)
    q = train(stream, episodes=4, seed=9)
    path = tmp_path / "weights.txt"
    q.save(path)
    loaded = QFunction.load(path)
    assert loaded.sizes == q.sizes
    assert loaded.seed == q.seed
    assert loaded.episodes_trained == 4
    assert loaded.norm == q.norm
    for a, b in zip(q.weights + q.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)
    state = (1.0, 0.1, 0.1, 0.1)
    assert loaded.greedy_action(state) == q.greedy_action(state)


def test_snapshot_header_lines_in_any_order_but_all_present(tmp_path):
    q = QFunction(hidden_width=4, seed=2, norm=50.0)
    path = tmp_path / "weights.txt"
    q.save(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([lines[3], lines[0], lines[2], lines[1], *lines[4:]]))
    assert QFunction.load(path).norm == 50.0
    path.write_text("".join(lines[:3]))
    with pytest.raises(ValueError, match="'norm'"):
        QFunction.load(path)
