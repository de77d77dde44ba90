"""DQN-style green-time allocator over direction-level volumes.

State is the 4-vector of normalized approach volumes (WB, NB, EB, SB); actions
are quantized allocation splits of the usable green time; the reward is the
negative total delay (volume over allocated green, summed over directions).
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from tmcsignal.model import TmcTable
from tmcsignal.signals import (
    DEFAULT_YELLOW,
    MIN_GREEN,
    PhasePlan,
    SignalProgram,
    allocate_greens,
    split_phase_plan,
)
from tmcsignal.trafficgen import MinuteTmc

# Allocation actions: every split of 10 tenths over 4 directions with at least
# one tenth each; 84 such compositions. Stored as integer tenths so sums are
# exact, enumerated lexicographically for a stable action indexing.
ACTIONS: tuple[tuple[int, int, int, int], ...] = tuple(
    (i, j, k, 10 - i - j - k)
    for i in range(1, 8)
    for j in range(1, 9 - i)
    for k in range(1, 10 - i - j)
)

N_ACTIONS = len(ACTIONS)


def action_fractions(action: tuple[int, int, int, int]) -> tuple[float, float, float, float]:
    """Allocation shares in [0.1, 0.7] that sum to 1 exactly (tenths over 10)."""
    return tuple(t / 10 for t in action)


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


@dataclass(frozen=True)
class EpsilonSchedule:
    """Exploration rate: starts fully random and decays once per episode."""

    start: float = 1.0
    end: float = 0.05
    decay: float = 0.97

    def __post_init__(self) -> None:
        if not 0 <= self.end <= self.start <= 1:
            raise ValueError("need 0 <= end <= start <= 1")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must be in (0, 1]")

    def value(self, episode: int) -> float:
        return max(self.end, self.start * self.decay**episode)


@dataclass(frozen=True)
class Hyperparams:
    gamma: float = 0.9
    learning_rate: float = 3e-3
    # Per-episode multiplicative decay; the late low-rate phase averages out the
    # bootstrap-target noise so the action ranking settles.
    lr_decay: float = 0.98
    lr_floor: float = 1e-4
    buffer_capacity: int = 1000
    batch_size: int = 32
    hidden_width: int = 32
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)

    def lr_at(self, episode: int) -> float:
        return max(self.lr_floor, self.learning_rate * self.lr_decay**episode)


class QFunction:
    """Three-layer ReLU action-value network (4 -> hidden -> hidden -> 84)."""

    def __init__(self, hidden_width: int = 32, seed: int = 0, norm: float = 1.0):
        rng = np.random.default_rng(seed)
        self.sizes = (4, hidden_width, hidden_width, N_ACTIONS)
        self.seed = seed
        self.episodes_trained = 0
        self.norm = float(norm)
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(self.sizes, self.sizes[1:]):
            scale = np.sqrt(2.0 / n_in)
            self.weights.append(rng.normal(0.0, scale, size=(n_in, n_out)))
            self.biases.append(np.zeros(n_out))

    def forward(self, states: np.ndarray) -> np.ndarray:
        """Action values for a batch of states, shape (batch, 84)."""
        h = np.atleast_2d(np.asarray(states, dtype=float))
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
        return h @ self.weights[-1] + self.biases[-1]

    def greedy_action(self, state: Sequence[float]) -> tuple[int, int, int, int]:
        """Best quantized allocation for a normalized state (lowest index on ties)."""
        q = self.forward(np.asarray(state, dtype=float))[0]
        return ACTIONS[int(np.argmax(q))]

    def save(self, path: str | Path) -> None:
        """Snapshot: header (layer sizes, seed, episodes, norm) + flat weight list."""
        flat = np.concatenate(
            [w.ravel() for w in self.weights] + [b.ravel() for b in self.biases]
        )
        with open(path, "w") as fh:
            fh.write("layers " + " ".join(str(s) for s in self.sizes) + "\n")
            fh.write(f"seed {self.seed}\n")
            fh.write(f"episodes {self.episodes_trained}\n")
            fh.write(f"norm {self.norm!r}\n")
            for value in flat:
                fh.write(f"{float(value)!r}\n")

    @classmethod
    def load(cls, path: str | Path) -> QFunction:
        lines = Path(path).read_text().splitlines()
        header = {}
        for line in lines[:4]:
            key, _, value = line.partition(" ")
            header[key] = value
        sizes = tuple(int(s) for s in header["layers"].split())
        if len(sizes) != 4 or sizes[0] != 4 or sizes[-1] != N_ACTIONS:
            raise ValueError(f"unexpected layer sizes {sizes}")
        q = cls(hidden_width=sizes[1], seed=int(header["seed"]), norm=float(header["norm"]))
        q.episodes_trained = int(header["episodes"])
        flat = np.array([float(v) for v in lines[4:]])
        expected = sum(a * b for a, b in zip(sizes, sizes[1:])) + sum(sizes[1:])
        if flat.size != expected:
            raise ValueError(f"expected {expected} weights, found {flat.size}")
        offset = 0
        for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
            q.weights[i] = flat[offset : offset + n_in * n_out].reshape(n_in, n_out)
            offset += n_in * n_out
        for i, n_out in enumerate(sizes[1:]):
            q.biases[i] = flat[offset : offset + n_out]
            offset += n_out
        return q


class VolumeStreamEnv:
    """Episode over a per-minute TMC stream; reward is the negative delay."""

    def __init__(
        self,
        minute_tmcs: MinuteTmc,
        cycle: int = 90,
        yellow: int = DEFAULT_YELLOW,
        norm: float | None = None,
    ):
        if len(minute_tmcs) == 0:
            raise ValueError("need at least one minute of TMC data")
        self.volumes = [direction_volumes(t) for t in minute_tmcs.tables]
        if norm is None:
            peak = max(max(v) for v in self.volumes)
            norm = float(peak) if peak > 0 else 1.0
        self.norm = norm
        self.states = [tuple(v / norm for v in vols) for vols in self.volumes]
        self.usable_green = cycle - 4 * yellow
        if self.usable_green <= 0:
            raise ValueError("cycle leaves no usable green time")
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


def train(
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
        with open(log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("episode", "epsilon", "mean_reward"))
            for episode, eps, mean_reward in log_rows:
                writer.writerow((episode, f"{eps:.6f}", f"{mean_reward:.6f}"))
    return q


def rl_plan(
    q: QFunction,
    tmc: TmcTable,
    cycle: int,
    yellow: int = DEFAULT_YELLOW,
    min_green: int = MIN_GREEN,
) -> PhasePlan:
    """Greedy allocation mapped onto a split-phasing plan (WB, NB, EB, SB order)."""
    vols = direction_volumes(tmc)
    state = tuple(v / q.norm for v in vols)
    action = q.greedy_action(state)
    budget = cycle - 4 * yellow
    shares = action_fractions(action)
    greens = allocate_greens([s * budget for s in shares], budget, min_green)
    return split_phase_plan(greens, yellow, cycle)


def build_rl_program(
    q: QFunction,
    minute_tmcs: MinuteTmc,
    cycle: int,
    yellow: int = DEFAULT_YELLOW,
) -> SignalProgram:
    """Per-minute program from the greedy policy of a trained allocator."""
    return SignalProgram(
        tuple(rl_plan(q, minute_tmcs[m], cycle, yellow) for m in range(len(minute_tmcs)))
    )


def best_action_by_exhaustion(volumes: Sequence[float], usable_green: float) -> tuple[int, ...]:
    """Argmin-delay action over the full action set (reference for tests/analysis)."""
    best, best_delay = None, None
    for action in ACTIONS:
        greens = [s * usable_green for s in action_fractions(action)]
        d = delay(volumes, greens)
        if best_delay is None or d < best_delay - 1e-12:
            best, best_delay = action, d
    return best


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
