"""DQN-style green-time allocator over direction-level volumes.

State is the 4-vector of normalized approach volumes (WB, NB, EB, SB), a
minute's counts summed per approach and divided by the stream's peak approach
volume; actions are quantized allocation splits of the usable green time; the
reward is the negative total delay, volume over allocated green summed over the
directions: for volumes v and greens g = action / 10 * usable green it is
``-(((v0 / g0 + v1 / g1) + v2 / g2) + v3 / g3)``, added in that order.

``train`` learns a batch of allocators in lockstep, one per TMC stream, and
each comes out with the bits it would have if trained alone. The networks'
weights and biases, gradients and Adam moments are each one flat buffer, seen
per layer as (streams, in, out) views, so one minute of every stream is one
stacked greedy forward, one stacked TD forward and backward pass, and one Adam
update of about a dozen in-place ufunc calls. Each stream keeps its own
``Generator``, called as a lone run calls it: ``random()``, then
``integers(84)`` only when exploring, then the replay sample. Rewards come from
a (minutes, 84) table per stream, added in the order above. This is exact
because Adam and the rewards are elementwise, and because a slice of a
stacked (S, k, n) @ (S, n, m) product, like a stacked ``sum`` or ``max``, has
the bits of the same 2-D operation. A row of a product can, however, change in
its last bit with the number of rows computed alongside it. So the bootstrap
forward keeps the rows a lone run uses: the stacked pass over all sampled next
states serves only the streams whose sample holds no terminal transition, and
any other stream is recomputed on its own non-terminal rows. For the same
reason ``rl_plan`` runs one forward per minute, never one (minutes, 4) product,
since a last-bit change can flip an argmax near a tie. Streams of unequal
length train in separate lockstep groups.

Because no stream's bits depend on the streams trained beside it, ``train``
also splits its streams into at most one job per usable CPU, each job a few
lockstep calls on parts of the length groups. The calling process runs the
first job; every other job runs in a child forked from it, which inherits the
stream tables without copying and sends its allocators back through a pipe.
Any split gives the same bits as one call for all streams.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from tmcsignal.model import write_csv
from tmcsignal.signals import DEFAULT_YELLOW, SPLIT_PHASE, SignalProgram, allocate_greens
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

    def __post_init__(self) -> None:
        if self.buffer_capacity < 1 or self.batch_size < 1:
            raise ValueError("buffer_capacity and batch_size must be >= 1")

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
        """Read a snapshot ``save`` wrote.

        ``ValueError`` naming the file for a missing header line, unexpected
        layer sizes or a weight count that does not match them, and naming the
        line too for a value that is not a number, a weight that is not finite,
        a norm that is not finite and positive, or a negative seed or episode
        count.
        """
        lines = Path(path).read_text().splitlines()
        header = {}
        for lineno, line in enumerate(lines[:4], start=1):
            key, _, value = line.partition(" ")
            header[key] = (lineno, value)
        if missing := [k for k in ("layers", "seed", "episodes", "norm") if k not in header]:
            raise ValueError(f"{path}: snapshot header has no {missing[0]!r} line")

        def parse(lineno: int, text: str, convert):
            try:
                return convert(text)
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None

        sizes = parse(*header["layers"], lambda text: tuple(int(s) for s in text.split()))
        if len(sizes) != 4 or sizes[0] != 4 or sizes[-1] != N_ACTIONS or not sizes[1] == sizes[2] >= 1:
            raise ValueError(f"{path}: unexpected layer sizes {sizes}")
        seed, norm = parse(*header["seed"], _non_negative_int), parse(*header["norm"], _positive_norm)
        q = cls(hidden_width=sizes[1], seed=seed, norm=norm)
        q.episodes_trained = parse(*header["episodes"], _non_negative_int)
        flat = np.array([parse(lineno, text, _finite) for lineno, text in enumerate(lines[4:], start=5)])
        expected = sum(a * b for a, b in zip(sizes, sizes[1:])) + sum(sizes[1:])
        if flat.size != expected:
            raise ValueError(f"{path}: expected {expected} weights, found {flat.size}")
        offset = 0
        for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
            q.weights[i] = flat[offset : offset + n_in * n_out].reshape(n_in, n_out)
            offset += n_in * n_out
        for i, n_out in enumerate(sizes[1:]):
            q.biases[i] = flat[offset : offset + n_out]
            offset += n_out
        return q


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _non_negative_int(text: str) -> int:
    if (value := int(text)) < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return value


def _positive_norm(text: str) -> float:
    if (norm := _finite(text)) <= 0:
        raise ValueError(f"norm must be positive, got {text!r}")
    return norm


def _stream_tables(minute_tmcs: MinuteTmc, cycle: int, yellow: int) -> tuple[np.ndarray, float, np.ndarray]:
    """One stream's (minutes, 4) states, its norm and its (minutes, 84) rewards, added in the order given above."""
    if len(minute_tmcs) == 0:
        raise ValueError("need at least one minute of TMC data")
    volumes = minute_tmcs.counts.reshape(-1, 4, 3).sum(axis=2)
    norm = float(volumes.max()) or 1.0
    usable_green = cycle - 4 * yellow
    if usable_green <= 0:
        raise ValueError("cycle leaves no usable green time")
    ratios = volumes[:, None, :] / (np.array(ACTIONS) / 10 * usable_green)
    rewards = -(((ratios[..., 0] + ratios[..., 1]) + ratios[..., 2]) + ratios[..., 3])
    return volumes / norm, norm, rewards


def train(
    minute_tmcs: Sequence[MinuteTmc],
    episodes: int,
    seeds: Sequence[int],
    hp: Hyperparams | None = None,
    cycle: int = 90,
    yellow: int = DEFAULT_YELLOW,
    log_path: str | Path | None = None,
) -> list[QFunction]:
    """Epsilon-greedy one-step TD learning with a small uniform replay buffer.

    Trains one allocator per stream, seeded by the matching entry of ``seeds``,
    all in lockstep; returns them in stream order. Deterministic for fixed
    seeds, and each allocator is the one its stream and seed give alone. For a
    batch of one, ``log_path`` gets one ``episode,epsilon,mean_reward`` CSV row
    per episode.

    With more than one stream and more than one usable CPU, the streams are
    split into at most one job per CPU, balanced by stream count (7 streams on
    2 CPUs train as 4 here and 3 in one forked child). That cannot move a bit,
    since each stream trains as it would alone. Every argument, seeds included,
    is checked before any child starts; an error in a child is raised here, and
    no child outlives the call. With one job the training runs in this process
    and forks nothing.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if len(seeds) != len(minute_tmcs):
        raise ValueError(f"{len(minute_tmcs)} streams but {len(seeds)} seeds")
    for i, seed in enumerate(seeds):
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"stream {i}: seed must be a non-negative integer, got {seed!r}")
    if log_path is not None and len(minute_tmcs) != 1:
        raise ValueError("a training log needs a batch of one stream")
    hp = hp or Hyperparams()
    streams = [_stream_tables(m, cycle, yellow) for m in minute_tmcs]
    groups: dict[int, list[int]] = {}
    for i, (states, _, _) in enumerate(streams):
        groups.setdefault(len(states), []).append(i)
    jobs = _jobs(list(groups.values()), _usable_cpus())
    if len(jobs) == 1:
        trained = _train_job(jobs[0], streams, episodes, seeds, hp, log_path)
    else:
        trained = _train_forked(jobs, streams, episodes, seeds, hp)
    return [trained[i] for i in range(len(streams))]


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say, so nothing forks there."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _jobs(groups: list[list[int]], cpus: int) -> list[list[list[int]]]:
    """Stream indices per job and per lockstep call: at most ``cpus`` jobs, balanced by stream count.

    The largest piece of a length group is halved until there is a piece per
    CPU or none holds two streams. With more pieces than CPUs, each piece,
    largest first, joins the job with the fewest streams.
    """
    pieces = sorted(groups, key=len, reverse=True)
    while len(pieces) < cpus and len(pieces[0]) > 1:
        largest = pieces.pop(0)
        half = (len(largest) + 1) // 2
        pieces = sorted([*pieces, largest[:half], largest[half:]], key=len, reverse=True)
    jobs: list[list[list[int]]] = [[] for _ in range(min(cpus, len(pieces)))]
    for piece in pieces:
        min(jobs, key=lambda job: sum(map(len, job))).append(piece)
    return jobs


def _train_job(job, streams, episodes, seeds, hp, log_path) -> dict[int, QFunction]:
    """One job's lockstep calls, in this process; the allocators by stream index."""
    trained = {}
    for members in job:
        qs = _train_lockstep([streams[i] for i in members], episodes, [seeds[i] for i in members], hp, log_path)
        trained.update(zip(members, qs))
    return trained


def _train_forked(jobs, streams, episodes, seeds, hp) -> dict[int, QFunction]:
    """Job 0 in this process and each other job in a forked child; every child is reaped before returning.

    ``fork`` rather than ``spawn``: a forked child shares the stream tables
    and the imported modules with this process, where a spawned one would
    import numpy and this package again and be sent every table. The child
    runs only numpy arithmetic and one pipe write, then exits.
    """
    import multiprocessing  # here, so that importing the package imports no multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for job in jobs[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_train_child, args=(sender, job, streams, episodes, seeds, hp))
            child.start()
            sender.close()  # the child holds the only write end, so its death ends the pipe
            children.append((child, receiver))
        trained = _train_job(jobs[0], streams, episodes, seeds, hp, None)
        for child, receiver in children:
            try:
                ok, result = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"training child exited with code {child.exitcode} and sent no allocators") from None
            if not ok:
                raise result
            trained.update(result)
            child.join()
        return trained
    finally:
        for child, receiver in children:
            receiver.close()
            child.terminate()  # no-op for a child already joined
            child.join()


def _train_child(sender, job, streams, episodes, seeds, hp) -> None:
    """A forked child's job: sends ``(True, allocators by stream)``, or ``(False, exception)`` if training raised."""
    try:
        result = (True, _train_job(job, streams, episodes, seeds, hp, None))
    except Exception as exc:
        result = (False, exc)
    sender.send(result)


def rl_plan(
    q: QFunction,
    counts: Sequence[int],
    cycle: int,
    yellow: int = DEFAULT_YELLOW,
) -> tuple[int, int, int, int]:
    """Greens of the greedy allocation for the split phases WB, NB, EB, SB, from one minute's 12 counts."""
    state = [sum(counts[3 * z : 3 * z + 3]) / q.norm for z in range(4)]
    action = q.greedy_action(state)
    budget = cycle - 4 * yellow
    return allocate_greens([s * budget for s in action_fractions(action)], budget)


def build_rl_program(
    q: QFunction,
    minute_tmcs: MinuteTmc,
    cycle: int,
    yellow: int = DEFAULT_YELLOW,
) -> SignalProgram:
    """Per-minute split-phasing program from the greedy policy of a trained allocator."""
    greens = [rl_plan(q, counts, cycle, yellow) for counts in minute_tmcs.counts.tolist()]
    return SignalProgram(SPLIT_PHASE, greens, yellow, cycle)


class _Lockstep:
    """S same-shape networks trained together with Adam.

    Weights and biases, their gradients and Adam's two moments are each one
    flat buffer, seen per layer as (S, in, out) and (S, 1, out) views.
    """

    def __init__(self, qs: Sequence[QFunction], beta1=0.9, beta2=0.999, eps=1e-8):
        sizes = qs[0].sizes
        shapes = [*zip(sizes, sizes[1:]), *((1, n) for n in sizes[1:])]
        self.params = np.concatenate(
            [np.stack(layer).ravel() for layer in zip(*(q.weights + q.biases for q in qs))]
        )
        self.grads = np.empty_like(self.params)
        self.m, self.v = np.zeros_like(self.params), np.zeros_like(self.params)
        self._a, self._b = np.empty_like(self.params), np.empty_like(self.params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        layers = len(sizes) - 1
        params, grads = self._views(self.params, len(qs), shapes), self._views(self.grads, len(qs), shapes)
        self.weights, self.biases = params[:layers], params[layers:]
        self.grad_weights, self.grad_biases = grads[:layers], grads[layers:]

    @staticmethod
    def _views(flat: np.ndarray, stack: int, shapes) -> list[np.ndarray]:
        views, offset = [], 0
        for n_in, n_out in shapes:
            views.append(flat[offset : offset + stack * n_in * n_out].reshape(stack, n_in, n_out))
            offset += stack * n_in * n_out
        return views

    def forward(self, states: np.ndarray, s=slice(None)) -> np.ndarray:
        """Action values of every network for (S, batch, 4) states, or of network ``s`` for (batch, 4)."""
        h = states
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w[s] + b[s], 0.0)
        return h @ self.weights[-1][s] + self.biases[-1][s]

    def td_update(self, states, actions, rewards, next_states, non_terminal, gamma: float, lr: float) -> None:
        """One TD step on each network's (batch,) sample: MSE on the taken actions, then Adam."""
        targets = rewards.copy()
        full = non_terminal.all(axis=1)
        if full.any():
            targets[full] += gamma * self.forward(next_states).max(axis=2)[full]
        for s in np.flatnonzero(~full & non_terminal.any(axis=1)):
            rows = non_terminal[s]
            targets[s, rows] += gamma * self.forward(next_states[s, rows], s).max(axis=1)

        hs, zs = [states], []
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            zs.append(hs[-1] @ w + b)
            hs.append(np.maximum(zs[-1], 0.0))
        out = hs[-1] @ self.weights[-1] + self.biases[-1]

        n = states.shape[1]
        at = np.arange(len(out))[:, None], np.arange(n), actions
        d = np.zeros_like(out)
        d[at] = 2.0 * (out[at] - targets) / n
        for i in reversed(range(len(self.weights))):
            np.matmul(hs[i].transpose(0, 2, 1), d, out=self.grad_weights[i])
            d.sum(axis=1, keepdims=True, out=self.grad_biases[i])
            if i:
                d = (d @ self.weights[i].transpose(0, 2, 1)) * (zs[i - 1] > 0)
        self._adam_step(lr)

    def _adam_step(self, lr: float) -> None:
        """Adam over the whole flat buffer, in a lone network's operation order."""
        self.t += 1
        g, m, v, a, b = self.grads, self.m, self.v, self._a, self._b
        m *= self.beta1
        np.multiply(g, 1 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(g, 1 - self.beta2, out=a)
        a *= g
        v += a
        np.divide(v, 1 - self.beta2**self.t, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, 1 - self.beta1**self.t, out=b)
        b *= lr
        b /= a
        self.params -= b


def _train_lockstep(
    streams: Sequence[tuple[np.ndarray, float, np.ndarray]],
    episodes: int,
    seeds: Sequence[int],
    hp: Hyperparams,
    log_path: str | Path | None,
) -> list[QFunction]:
    """``train`` for streams of one length, each given by its ``_stream_tables``: one stacked step per minute."""
    n, minutes = len(streams), len(streams[0][0])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    qs = [QFunction(hp.hidden_width, seed=seed, norm=norm) for (_, norm, _), seed in zip(streams, seeds)]
    nets = _Lockstep(qs)
    states = np.array([stream[0] for stream in streams])  # (S, minutes, 4)
    rewards = np.array([stream[2] for stream in streams])  # (S, minutes, 84)

    # Replay ring: deque index i of a buffer holding `size` of `stored`
    # transitions is slot (stored - size + i) % capacity.
    capacity = hp.buffer_capacity
    ring_states, ring_next = np.zeros((n, capacity, 4)), np.zeros((n, capacity, 4))
    ring_actions = np.zeros((n, capacity), dtype=np.intp)
    ring_rewards = np.zeros((n, capacity))
    ring_live = np.zeros((n, capacity), dtype=bool)
    stream = np.arange(n)
    stored = 0
    log_rows = []

    for episode in range(episodes):
        eps = hp.epsilon.value(episode)
        lr = hp.lr_at(episode)
        taken = np.empty((n, minutes), dtype=np.intp)
        for t in range(minutes):
            explore = [rng.random() < eps for rng in rngs]
            if not all(explore):
                greedy = nets.forward(states[:, t : t + 1]).argmax(axis=2)[:, 0]
            for s, rng in enumerate(rngs):
                taken[s, t] = rng.integers(N_ACTIONS) if explore[s] else greedy[s]
            slot = stored % capacity
            ring_states[:, slot] = states[:, t]
            ring_actions[:, slot] = taken[:, t]
            ring_rewards[:, slot] = rewards[stream, t, taken[:, t]]
            ring_live[:, slot] = t + 1 < minutes
            ring_next[:, slot] = states[:, t + 1] if t + 1 < minutes else 0.0
            stored += 1
            size = min(stored, capacity)
            if size >= hp.batch_size:
                picks = np.array([rng.choice(size, size=hp.batch_size, replace=False) for rng in rngs])
                at = stream[:, None], (stored - size + picks) % capacity
                nets.td_update(
                    ring_states[at], ring_actions[at], ring_rewards[at], ring_next[at], ring_live[at], hp.gamma, lr
                )
        if log_path is not None:
            mean_reward = sum(rewards[0, range(minutes), taken[0]].tolist()) / minutes
            log_rows.append((episode, f"{eps:.6f}", f"{mean_reward:.6f}"))

    if log_path is not None:
        write_csv(log_path, ("episode", "epsilon", "mean_reward"), log_rows)
    for s, q in enumerate(qs):
        q.weights = [w[s].copy() for w in nets.weights]
        q.biases = [b[s, 0].copy() for b in nets.biases]
        q.episodes_trained = episodes
    return qs
