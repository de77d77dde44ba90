"""Tests for the quantized-allocation Q-learner."""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
import signal
import tempfile
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcsignal import rl as rl_mod
from tmcsignal.model import TmcTable, write_csv
from tmcsignal.rl import (
    ACTIONS,
    N_ACTIONS,
    EpsilonSchedule,
    Hyperparams,
    QFunction,
    _stream_tables,
    action_fractions,
    build_rl_program,
    rl_plan,
    train,
)
from tmcsignal.signals import DEFAULT_YELLOW, SPLIT_PHASE
from tmcsignal.trafficgen import MinuteTmc

DOMINANT_WB = (20, 60, 20, 2, 6, 2, 2, 6, 2, 2, 6, 2)
SYMMETRIC = (10, 30, 10) * 4


def direction_volumes(tmc: TmcTable) -> tuple[int, int, int, int]:
    """Aggregate the 12 movements into per-approach volumes (WB, NB, EB, SB)."""
    c = tmc.counts
    return tuple(c[3 * z] + c[3 * z + 1] + c[3 * z + 2] for z in range(4))


def delay(volumes: Sequence[float], greens: Sequence[float]) -> float:
    """Total delay figure: sum over directions of volume / allocated green seconds."""
    if len(volumes) != 4 or len(greens) != 4:
        raise ValueError("expected 4 volumes and 4 greens")
    if min(greens) <= 0:
        raise ValueError("greens must be positive")
    if min(volumes) < 0:
        raise ValueError("volumes must be non-negative")
    return float(sum(v / g for v, g in zip(volumes, greens)))


class VolumeStreamEnv:
    """Episode over a per-minute TMC stream; reward is the negative delay.

    The slow reference for the trainer's stream tables: Python ints and floats,
    one minute and one action at a time.
    """

    def __init__(self, minute_tmcs: MinuteTmc, cycle: int = 90, yellow: int = DEFAULT_YELLOW):
        self.volumes = [direction_volumes(minute_tmcs[m]) for m in range(len(minute_tmcs))]
        peak = max(max(v) for v in self.volumes)
        self.norm = float(peak) if peak > 0 else 1.0
        self.states = [tuple(v / self.norm for v in vols) for vols in self.volumes]
        self.usable_green = cycle - 4 * yellow
        self._t = 0

    def __len__(self) -> int:
        return len(self.volumes)

    def reset(self) -> tuple[float, float, float, float]:
        self._t = 0
        return self.states[0]

    def step(self, action: tuple[int, int, int, int]):
        """Apply an allocation to the current minute.

        Returns (reward, next_state, done); the final minute of the stream is
        terminal and its next_state is None.
        """
        if self._t >= len(self.volumes):
            raise RuntimeError("episode is over; call reset()")
        shares = action_fractions(action)
        greens = [s * self.usable_green for s in shares]
        reward = -delay(self.volumes[self._t], greens)
        self._t += 1
        done = self._t == len(self.volumes)
        next_state = None if done else self.states[self._t]
        return reward, next_state, done


def best_action_by_exhaustion(volumes: Sequence[float], usable_green: float) -> tuple[int, ...]:
    """Argmin-delay action over the full action set: the oracle for the learned allocation."""
    best, best_delay = None, None
    for action in ACTIONS:
        greens = [s * usable_green for s in action_fractions(action)]
        d = delay(volumes, greens)
        if best_delay is None or d < best_delay - 1e-12:
            best, best_delay = action, d
    return best


def constant_stream(counts: Sequence[int], minutes: int = 60) -> MinuteTmc:
    return MinuteTmc([counts] * minutes)


# The one-stream training loop that `train` replaced, kept unchanged as the
# slow reference for the lockstep trainer.
def scalar_train(
    minute_tmcs: MinuteTmc,
    episodes: int,
    seed: int = 0,
    hp: Hyperparams | None = None,
    cycle: int = 90,
    yellow: int = DEFAULT_YELLOW,
    log_path: str | Path | None = None,
) -> QFunction:
    """Epsilon-greedy one-step TD learning with a small uniform replay buffer.

    Deterministic for a fixed seed; optionally appends one
    ``episode,epsilon,mean_reward`` CSV row per episode to ``log_path``.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    hp = hp or Hyperparams()
    env = VolumeStreamEnv(minute_tmcs, cycle, yellow)
    rng = np.random.default_rng(seed)
    q = QFunction(hp.hidden_width, seed=seed, norm=env.norm)
    opt = _Adam(q, hp.learning_rate)
    buffer: deque = deque(maxlen=hp.buffer_capacity)
    log_rows = []

    for episode in range(episodes):
        eps = hp.epsilon.value(episode)
        opt.lr = hp.lr_at(episode)
        state = env.reset()
        done = False
        rewards = []
        while not done:
            if rng.random() < eps:
                action_idx = int(rng.integers(N_ACTIONS))
            else:
                action_idx = int(np.argmax(q.forward(np.asarray(state))[0]))
            reward, next_state, done = env.step(ACTIONS[action_idx])
            rewards.append(reward)
            buffer.append((state, action_idx, reward, next_state))
            if len(buffer) >= hp.batch_size:
                batch_idx = rng.choice(len(buffer), size=hp.batch_size, replace=False)
                _td_update(q, opt, [buffer[i] for i in batch_idx], hp.gamma)
            if not done:
                state = next_state
        log_rows.append((episode, eps, sum(rewards) / len(rewards)))

    q.episodes_trained = episodes
    if log_path is not None:
        rows = ((episode, f"{eps:.6f}", f"{mean_reward:.6f}") for episode, eps, mean_reward in log_rows)
        write_csv(log_path, ("episode", "epsilon", "mean_reward"), rows)
    return q


class _Adam:
    """Adam over the QFunction's parameter list."""

    def __init__(self, q: QFunction, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.q = q
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        params = q.weights + q.biases
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        params = self.q.weights + self.q.biases
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**self.t)
            v_hat = v / (1 - self.beta2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _td_update(q: QFunction, opt: _Adam, batch, gamma: float) -> None:
    states = np.array([b[0] for b in batch])
    actions = np.array([b[1] for b in batch])
    rewards = np.array([b[2] for b in batch])
    non_terminal = np.array([b[3] is not None for b in batch])
    next_states = np.array([b[3] if b[3] is not None else (0.0,) * 4 for b in batch])

    targets = rewards.copy()
    if non_terminal.any():
        next_q = q.forward(next_states[non_terminal])
        targets[non_terminal] += gamma * next_q.max(axis=1)

    # Forward pass with caches.
    h0 = states
    z1 = h0 @ q.weights[0] + q.biases[0]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ q.weights[1] + q.biases[1]
    h2 = np.maximum(z2, 0.0)
    out = h2 @ q.weights[2] + q.biases[2]

    # MSE on the taken actions only.
    n = len(batch)
    d_out = np.zeros_like(out)
    rows = np.arange(n)
    d_out[rows, actions] = 2.0 * (out[rows, actions] - targets) / n

    g_w2 = h2.T @ d_out
    g_b2 = d_out.sum(axis=0)
    d_h2 = (d_out @ q.weights[2].T) * (z2 > 0)
    g_w1 = h1.T @ d_h2
    g_b1 = d_h2.sum(axis=0)
    d_h1 = (d_h2 @ q.weights[1].T) * (z1 > 0)
    g_w0 = h0.T @ d_h1
    g_b0 = d_h1.sum(axis=0)

    opt.step([g_w0, g_w1, g_w2, g_b0, g_b1, g_b2])


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
        env = VolumeStreamEnv(constant_stream(table.counts, 2), cycle=90, yellow=3)
        env.reset()
        action = (4, 3, 2, 1)
        reward, _, _ = env.step(action)
        assert reward == pytest.approx(-10.1496, abs=1e-3)
        _, _, rewards = _stream_tables(constant_stream(table.counts, 2), 90, 3)
        assert rewards[0, ACTIONS.index(action)] == reward


@given(
    st.lists(st.tuples(*[st.integers(0, 2**32 - 1)] * 12), min_size=1, max_size=6),
    st.sampled_from([(90, 3), (60, 4), (150, 0), (21, 5)]),
)
@settings(max_examples=100, deadline=None)
def test_stream_tables_equal_the_env_bit_for_bit(rows, timing):
    cycle, yellow = timing
    stream = MinuteTmc(rows)
    states, norm, rewards = _stream_tables(stream, cycle, yellow)
    env = VolumeStreamEnv(stream, cycle, yellow)
    assert norm == env.norm
    assert states.tolist() == [list(state) for state in env.states]
    for a, action in enumerate(ACTIONS):
        env.reset()
        assert [env.step(action)[0] for _ in range(len(env))] == rewards[:, a].tolist()


def test_training_needs_a_minute_and_some_green():
    with pytest.raises(ValueError, match="at least one minute"):
        train([MinuteTmc(np.zeros((0, 12), dtype=np.int64))], episodes=1, seeds=[0])
    with pytest.raises(ValueError, match="no usable green"):
        train([constant_stream(DOMINANT_WB, 2)], episodes=1, seeds=[0], cycle=12, yellow=3)


class TestTraining:
    def test_deterministic_for_fixed_seed(self):
        stream = constant_stream(DOMINANT_WB, 20)
        [q1] = train([stream], episodes=5, seeds=[3])
        [q2] = train([stream], episodes=5, seeds=[3])
        for w1, w2 in zip(q1.weights + q1.biases, q2.weights + q2.biases):
            assert np.array_equal(w1, w2)

    def test_zero_demand_trains_without_error(self):
        stream = constant_stream((0,) * 12, 10)
        [q] = train([stream], episodes=3, seeds=[0])
        assert q.norm == 1.0

    def test_exhaustive_optimum_favors_dominant_direction(self):
        for action in (best_action_by_exhaustion(direction_volumes(TmcTable(DOMINANT_WB)), 78),):
            assert action[0] == max(action)

    def test_converges_to_dominant_direction(self, dominant_wb_allocators):
        state = tuple(v / 100 for v in direction_volumes(TmcTable(DOMINANT_WB)))
        hits = 0
        # dominant_wb_allocators is train([constant_stream(DOMINANT_WB, 60)] * 10, episodes=100, seeds=range(10)).
        for q in dominant_wb_allocators:
            action = q.greedy_action(state)
            hits += action[0] == max(action)
        assert hits >= 8

    def test_learning_progress(self, tmp_path):
        log = tmp_path / "log.csv"
        train([constant_stream(DOMINANT_WB, 30)], episodes=50, seeds=[1], log_path=log)
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
            train([constant_stream(DOMINANT_WB, 5)], episodes=0, seeds=[0])


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
        [q] = train([stream], episodes=3000, seeds=[2], hp=hp)
        greens = rl_plan(q, SYMMETRIC, cycle=90)
        assert sum(greens) + 4 * 3 == 90
        # within one quantization step: shares differ by at most 0.1 of usable green
        assert max(greens) - min(greens) <= 0.1 * 78 + 1

    def test_dominant_demand_gets_max_share(self, dominant_wb_allocators):
        # Seed 4's allocator of the shared batch has the bits of
        # train([constant_stream(DOMINANT_WB, 60)], episodes=100, seeds=[4]).
        q = dominant_wb_allocators[4]
        greens = rl_plan(q, DOMINANT_WB, cycle=90)
        assert greens[0] == max(greens)

    def test_zero_demand_plan_still_conserves_cycle(self):
        q = QFunction(seed=0)
        assert sum(rl_plan(q, (0,) * 12, cycle=120)) + 4 * 3 == 120

    def test_split_phasing_structure(self):
        q = QFunction(seed=0)
        program = build_rl_program(q, constant_stream(DOMINANT_WB, 3), cycle=90)
        assert program.layout == SPLIT_PHASE
        assert program.greens.tolist() == [list(rl_plan(q, DOMINANT_WB, cycle=90))] * 3

    def test_program_builder_covers_stream(self):
        stream = constant_stream(DOMINANT_WB, 7)
        q = QFunction(seed=1)
        program = build_rl_program(q, stream, cycle=90)
        assert len(program) == 7


def test_weights_roundtrip(tmp_path):
    stream = constant_stream(DOMINANT_WB, 10)
    [q] = train([stream], episodes=4, seeds=[9])
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


# --- the lockstep trainer against the scalar oracle -----------------------------------


@st.composite
def training_batches(draw):
    """Streams of unequal length (some all zero), a replay ring that wraps, seeds and episodes."""
    tables = st.one_of(
        st.just((0,) * 12),
        st.tuples(*[st.integers(0, 60)] * 12),
    )
    streams = [
        MinuteTmc(draw(st.lists(tables, min_size=minutes, max_size=minutes)))
        for minutes in draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    ]
    episodes = draw(st.integers(1, 4))
    steps = episodes * max(len(stream) for stream in streams)
    hp = Hyperparams(
        buffer_capacity=draw(st.integers(1, max(1, steps - 1))),
        batch_size=draw(st.integers(1, 12)),
        hidden_width=draw(st.integers(1, 12)),
        epsilon=EpsilonSchedule(start=draw(st.floats(0.0, 1.0)), end=0.0, decay=draw(st.floats(0.3, 1.0))),
    )
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(streams), max_size=len(streams)))
    return streams, episodes, seeds, hp


@given(training_batches())
@settings(max_examples=150, deadline=None)
def test_batched_train_equals_scalar_oracle(batch):
    streams, episodes, seeds, hp = batch
    with tempfile.TemporaryDirectory() as tmp:
        log, scalar_log = Path(tmp) / "log.csv", Path(tmp) / "scalar_log.csv"
        lone = len(streams) == 1
        trained = train(streams, episodes, seeds, hp, log_path=log if lone else None)
        oracle = [
            scalar_train(stream, episodes, seed, hp, log_path=scalar_log if lone else None)
            for stream, seed in zip(streams, seeds)
        ]
        if lone:
            assert log.read_bytes() == scalar_log.read_bytes()
    for q, ref in zip(trained, oracle, strict=True):
        assert (q.seed, q.norm, q.episodes_trained) == (ref.seed, ref.norm, ref.episodes_trained)
        for a, b in zip(q.weights + q.biases, ref.weights + ref.biases, strict=True):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_training_log_needs_a_batch_of_one(tmp_path):
    streams = [constant_stream(DOMINANT_WB, 3)] * 2
    with pytest.raises(ValueError, match="batch of one"):
        train(streams, episodes=1, seeds=[0, 1], log_path=tmp_path / "log.csv")
    with pytest.raises(ValueError, match="seeds"):
        train(streams, episodes=1, seeds=[0])


def test_every_seed_is_checked_before_training(monkeypatch):
    monkeypatch.setattr(rl_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(rl_mod, "_train_forked", lambda *args: pytest.fail("training started"))
    streams = [constant_stream(DOMINANT_WB, 3)] * 3
    for bad in (-1, 1.0, "1", None):
        with pytest.raises(ValueError, match=f"stream 2: seed must be a non-negative integer, got {bad!r}"):
            train(streams, episodes=1, seeds=[0, 1, bad])
    assert len(train(streams[:1], episodes=1, seeds=[np.int64(0)])) == 1


# --- one job per CPU: forked children ---------------------------------------------------


def trained_bits(qs: Sequence[QFunction]) -> list:
    return [(q.seed, q.norm, q.episodes_trained, [a.tobytes() for a in q.weights + q.biases]) for q in qs]


@contextmanager
def time_limit(seconds: int):
    """Turn a wait longer than ``seconds`` into a ``TimeoutError`` (forked children inherit no alarm)."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def unequal_streams() -> list[MinuteTmc]:
    """Five streams in two length groups (6 and 4 minutes), interleaved."""
    rng = np.random.default_rng(3)
    return [MinuteTmc(rng.integers(0, 30, size=(minutes, 12))) for minutes in (6, 4, 6, 6, 4)]


def test_job_count_does_not_change_the_result(monkeypatch):
    streams, seeds = unequal_streams(), [11, 0, 7, 2**32 - 1, 5]
    hp = Hyperparams(buffer_capacity=8, batch_size=4, hidden_width=5)
    job_counts, jobs = [], rl_mod._jobs

    def counted_jobs(*args):
        split = jobs(*args)
        job_counts.append(len(split))
        return split

    monkeypatch.setattr(rl_mod, "_jobs", counted_jobs)
    results = {}
    for cpus in (1, 2, 3, len(streams)):
        monkeypatch.setattr(rl_mod, "_usable_cpus", lambda: cpus)
        with time_limit(60):
            results[cpus] = trained_bits(train(streams, episodes=3, seeds=seeds, hp=hp))
        assert multiprocessing.active_children() == []
    assert job_counts == [1, 2, 3, len(streams)]
    lone = [trained_bits(train([stream], episodes=3, seeds=[seed], hp=hp))[0] for stream, seed in zip(streams, seeds)]
    assert all(bits == lone for bits in results.values())


def test_jobs_split_length_groups_by_stream_count():
    assert rl_mod._jobs([list(range(7))], 2) == [[[0, 1, 2, 3]], [[4, 5, 6]]]
    assert rl_mod._jobs([[0, 2, 3], [1, 4]], 1) == [[[0, 2, 3], [1, 4]]]
    assert rl_mod._jobs([[0], [1], [2]], 2) == [[[0], [2]], [[1]]]
    assert rl_mod._jobs([[0, 1]], 8) == [[[0]], [[1]]]


def split_lockstep(in_parent, in_child):
    """A ``_train_lockstep`` that first calls ``in_parent`` in this process or ``in_child`` in a child."""
    parent, lockstep = os.getpid(), rl_mod._train_lockstep

    def patched(*args):
        (in_parent if os.getpid() == parent else in_child)()
        return lockstep(*args)

    return patched


def boom():
    raise ValueError("boom")


@pytest.mark.parametrize(
    "in_parent, in_child, error, match",
    [
        pytest.param(lambda: None, boom, ValueError, "boom", id="child-raises"),
        pytest.param(lambda: None, lambda: os._exit(1), RuntimeError, "exited with code 1", id="child-exits"),
        pytest.param(boom, lambda: time.sleep(60), ValueError, "boom", id="parent-raises-while-child-trains"),
    ],
)
def test_a_failed_job_raises_and_leaves_no_child(monkeypatch, in_parent, in_child, error, match):
    monkeypatch.setattr(rl_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(rl_mod, "_train_lockstep", split_lockstep(in_parent, in_child))
    with time_limit(20), pytest.raises(error, match=match):
        train(unequal_streams(), episodes=2, seeds=range(5))
    assert multiprocessing.active_children() == []
