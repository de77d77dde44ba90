"""Trajectory-file analytics: LCSS similarity and typical-path classification.

Every LCSS length in this module comes from one batched kernel, ``lcss_matrix``:
the bit-vector LCS recurrence of Allison & Dix (1986) and Hyyro (2004),
"Bit-parallel LCS-length computation revisited", applied to the LCSS
trajectory similarity of Vlachos, Kollios & Gunopulos (ICDE 2002), where two
points match when max(|dx|, |dy|) <= eps.

**Recurrence.** For a path of m points, ``V`` holds one bit per path point,
all set at the start. For each track point i, ``M`` has bit j set when track
point i matches path point j, and

    U = V & M,    V' = (V + U) | (V - U)

where ``V - U`` equals ``V & ~U`` because U is a subset of V. After the last
track point the LCSS length is ``m - popcount(V)``. The recurrence needs only
the 0/1 row-difference property of the LCS table, which holds for any match
relation, so the result equals the O(n*m) dynamic program cell for cell.

**Word layout.** A path is a little-endian bit vector of uint64 words: point
j is bit j % 64 of word j // 64, so a path of more than 64 points takes more
than one word, and ``V + U`` carries from each word into the next. A step
never moves information from a higher bit to a lower one, so the bits above a
path's length are masked off once, before the popcount.

**Batching.** One kernel step advances every (track, path) pair by one track
point. Tracks are sorted by length and taken ``LCSS_CHUNK`` at a time; shorter
tracks in a chunk are padded with NaN points. A NaN point matches nothing
(every comparison with NaN is false), so ``M = 0``, ``U = 0`` and ``V`` is left
unchanged, as in the scalar table, where such a row copies the one above.

**Classification.** Similarity is ``lcss / min(len(track), len(path))`` as a
float64 division. A track goes to the first path of highest similarity in
the order ``sorted(paths, key=movement)``, a stable sort that keeps paths of
the same movement in their given order, and is accepted when that similarity
is ``>= min_sim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from tmcsignal.model import (
    MOVEMENTS,
    Movement,
    convert_column,
    group_rows,
    movement_named,
    read_csv,
    write_csv,
)
from tmcsignal.trafficgen import MinuteTmc

Point = tuple[float, float]

VEHICLE = 1

DEFAULT_EPS = 25.0
DEFAULT_MIN_SIMILARITY = 0.6

# Tracks per batch of the LCSS kernel. A kernel step holds a few arrays of
# (chunk x paths x path bits) values, about 150 KB each for 64 tracks against
# 12 paths of 21 points; larger chunks were no faster and use more memory.
LCSS_CHUNK = 64


@dataclass(frozen=True)
class Trajectory:
    """Tracked road user: id, class label (0 pedestrian, 1 vehicle), pixel path."""

    id: str
    class_label: int
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("a trajectory needs at least two points")


@dataclass(frozen=True)
class TypicalPath:
    """Reference pixel path for one turning movement."""

    movement: Movement
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("a typical path needs at least two points")


def _check_eps(eps: float) -> None:
    # An infinite radius matches every point, so every similarity would be 1.
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be a positive finite number, got {eps}")


def _padded_xy(seqs: Sequence[Sequence[Point]], width: int) -> np.ndarray:
    """(2, len(seqs), width) float64 x and y coordinates, NaN past each sequence's end."""
    xy = np.full((2, len(seqs), width), np.nan)
    for k, seq in enumerate(seqs):
        if len(seq):
            xy[:, k, : len(seq)] = np.asarray(seq, dtype=np.float64).T
    return xy


def lcss_matrix(tracks: Sequence[Sequence[Point]], paths: Sequence[Sequence[Point]], eps: float) -> np.ndarray:
    """LCSS length of every (track, path) pair, as an int64 (tracks x paths) matrix.

    Two points match when max(|dx|, |dy|) <= eps. See the module docstring for
    the bit-parallel recurrence, the word layout and the NaN padding.
    """
    _check_eps(eps)
    path_len = np.array([len(p) for p in paths], dtype=np.int64)
    # Points are compared over whole bytes of path bits only; the rest of the last word stays 0.
    n_bytes = max(1, -(-int(path_len.max(initial=0)) // 8))
    words, width = -(-n_bytes // 8), 8 * n_bytes
    px, py = _padded_xy(paths, width)
    live = np.packbits(np.arange(64 * words) < path_len[:, None], axis=-1, bitorder="little").view("<u8")
    track_len = np.array([len(t) for t in tracks], dtype=np.int64)
    order = np.argsort(track_len, kind="stable")
    out = np.empty((len(tracks), len(paths)), dtype=np.int64)
    for start in range(0, len(order), LCSS_CHUNK):
        rows = order[start : start + LCSS_CHUNK]
        tx, ty = _padded_xy([tracks[r] for r in rows], int(track_len[rows[-1]]))
        shape = (len(rows), len(paths), width)
        dx, dy, match = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
        mask = np.zeros((len(rows), len(paths), 8 * words), dtype=np.uint8)
        v = np.broadcast_to(live, (len(rows), len(paths), words)).copy()
        for i in range(tx.shape[1]):
            np.abs(np.subtract(tx[:, i, None, None], px, out=dx), out=dx)
            np.abs(np.subtract(ty[:, i, None, None], py, out=dy), out=dy)
            np.less_equal(np.maximum(dx, dy, out=dx), eps, out=match)
            mask[..., :n_bytes] = np.packbits(match, axis=-1, bitorder="little")
            u = v & mask.view("<u8")
            v = _add_words(v, u) | (v ^ u)  # V ^ U == V - U, as U is a subset of V
        out[rows] = path_len - np.bitwise_count(v & live).sum(axis=-1, dtype=np.int64)
    return out


def _add_words(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b`` over the last axis as one little-endian multi-word integer per row."""
    total = a + b
    carry = total < a
    for w in range(1, total.shape[-1]):
        c = carry[..., w - 1]
        total[..., w] += c
        carry[..., w] |= c & (total[..., w] == 0)
    return total


def lcss(a: Sequence[Point], b: Sequence[Point], eps: float) -> int:
    """Longest common subsequence length with Chebyshev matching radius ``eps``."""
    return int(lcss_matrix([a], [b], eps)[0, 0])


def similarity(a: Sequence[Point], b: Sequence[Point], eps: float) -> float:
    """LCSS normalized by the shorter sequence, robust to unequal path lengths."""
    return lcss(a, b, eps) / min(len(a), len(b))


def _best_paths(
    trajectories: Sequence[Trajectory], paths: Sequence[TypicalPath], eps: float, min_sim: float
) -> np.ndarray:
    """Index into ``paths`` of each trajectory's first most similar path, or -1 below ``min_sim``."""
    lengths = lcss_matrix([t.points for t in trajectories], [p.points for p in paths], eps)
    shorter = np.minimum.outer([len(t.points) for t in trajectories], [len(p.points) for p in paths])
    sims = lengths / shorter
    best = sims.argmax(axis=1)
    return np.where(sims[np.arange(len(best)), best] >= min_sim, best, -1)


def _ordered_paths(paths: Sequence[TypicalPath], eps: float, min_sim: float) -> list[TypicalPath]:
    """``paths`` in tie-break order, after checking every classifier argument."""
    _check_eps(eps)
    if not 0.0 <= min_sim <= 1.0:
        raise ValueError(f"min_sim must lie in [0, 1], got {min_sim}")
    if not paths:
        raise ValueError("need at least one typical path")
    # At an eps this wide every path point matches every other, so a track
    # inside the paths' frame is as similar to one path as to any other.
    diameter = np.ptp(np.concatenate([p.points for p in paths]), axis=0).max()
    if eps >= diameter:
        raise ValueError(f"eps must be below the typical paths' Chebyshev diameter {diameter}, got {eps}")
    return sorted(paths, key=lambda p: p.movement)


def classify(
    trajectory: Trajectory,
    paths: Sequence[TypicalPath],
    eps: float = DEFAULT_EPS,
    min_sim: float = DEFAULT_MIN_SIMILARITY,
) -> Movement | None:
    """Best-matching movement, or None when nothing reaches ``min_sim``.

    Ties are broken by movement order (WBL first), so classification is
    deterministic for any path set. ``ValueError`` for eps <= 0, NaN, or at
    least the Chebyshev diameter of all path points, ``min_sim`` outside
    [0, 1], or no paths.
    """
    ordered = _ordered_paths(paths, eps, min_sim)
    best = int(_best_paths([trajectory], ordered, eps, min_sim)[0])
    return ordered[best].movement if best >= 0 else None


def count_movements(
    trajectories: Iterable[Trajectory],
    paths: Sequence[TypicalPath],
    eps: float = DEFAULT_EPS,
    min_sim: float = DEFAULT_MIN_SIMILARITY,
) -> MinuteTmc:
    """Tally classified vehicle trajectories as one row of 12 counts; pedestrians and unmatched are dropped.

    The arguments are checked as in ``classify``, before any trajectory is read.
    """
    ordered = _ordered_paths(paths, eps, min_sim)
    vehicles = [t for t in trajectories if t.class_label == VEHICLE]
    best = _best_paths(vehicles, ordered, eps, min_sim)
    movements = np.array([p.movement for p in ordered], dtype=np.int64)
    return MinuteTmc(np.bincount(movements[best[best >= 0]], minlength=12)[None])


# --- synthetic reference paths --------------------------------------------------------


def synthetic_typical_paths(
    size: float = 400.0, points_per_path: int = 21
) -> tuple[TypicalPath, ...]:
    """Geometric 12-path reference set over a square frame, for demos and tests.

    Each path runs from its approach edge to the exit edge via the frame
    center as a two-segment polyline; entry and exit points are offset from the
    edge midlines so opposite directions stay distinguishable.
    """
    mid, lo, hi = size / 2, 0.4 * size, 0.6 * size
    entries = {1: (0.0, hi), 2: (lo, 0.0), 3: (size, lo), 4: (hi, size)}
    exits = {1: (0.0, lo), 2: (hi, 0.0), 3: (size, hi), 4: (lo, size)}
    center = (mid, mid)
    paths = []
    for m in MOVEMENTS:
        start = entries[m.origin.value]
        end = exits[m.destination.value]
        pts: list[Point] = []
        half = points_per_path // 2
        for k in range(half + 1):
            f = k / half
            pts.append((start[0] + f * (center[0] - start[0]), start[1] + f * (center[1] - start[1])))
        for k in range(1, points_per_path - half):
            f = k / (points_per_path - half - 1)
            pts.append((center[0] + f * (end[0] - center[0]), center[1] + f * (end[1] - center[1])))
        paths.append(TypicalPath(m, tuple(pts)))
    return tuple(paths)


# --- file interchange -----------------------------------------------------------------


TRAJECTORY_FIELDS = ("id", "class", "frame", "x", "y")
PATH_FIELDS = ("movement", "x", "y")


def read_trajectories(path: str | Path) -> list[Trajectory]:
    """Read the tracker export: CSV ``id,class,frame,x,y``, one block of rows per track.

    ``ValueError`` for another header or field count, a track split apart by
    another, a class that changes within a track, frames out of order, a
    non-numeric field, a NaN or infinite coordinate, or a track of fewer than
    two points.
    """
    _, (ids, classes, frames, xs, ys) = read_csv(path, TRAJECTORY_FIELDS)
    classes = convert_column(path, classes, int)
    frames = convert_column(path, frames, int)
    xs = convert_column(path, xs, float)
    ys = convert_column(path, ys, float)
    out = []
    for tid, rows in group_rows(path, ids).items():
        labels = set(classes[rows])
        if len(labels) != 1:
            raise ValueError(f"{path}: trajectory {tid} changes class")
        track_frames = frames[rows]
        if track_frames != sorted(track_frames):
            raise ValueError(f"{path}: trajectory {tid}: frames out of order")
        if len(track_frames) < 2:
            raise ValueError(f"{path}: trajectory {tid}: needs at least two points")
        if not all(map(math.isfinite, chain(xs[rows], ys[rows]))):
            raise ValueError(f"{path}: trajectory {tid}: a coordinate is not a finite number")
        out.append(Trajectory(tid, labels.pop(), tuple(zip(xs[rows], ys[rows]))))
    return out


def write_trajectories(trajectories: Iterable[Trajectory], path: str | Path) -> None:
    rows = (
        (t.id, t.class_label, frame, x, y) for t in trajectories for frame, (x, y) in enumerate(t.points)
    )
    write_csv(path, TRAJECTORY_FIELDS, rows)


def read_typical_paths(path: str | Path) -> tuple[TypicalPath, ...]:
    """Read the reference-path file: CSV ``movement,x,y``, one block of rows per movement.

    Paths come back in movement order. ``ValueError`` for another header or field
    count, an unknown movement, a path split apart by another, a non-numeric,
    NaN or infinite coordinate, or a path of fewer than two points.
    """
    _, (names, xs, ys) = read_csv(path, PATH_FIELDS)
    movements = convert_column(path, names, movement_named)
    xs = convert_column(path, xs, float)
    ys = convert_column(path, ys, float)
    paths = []
    for name, rows in group_rows(path, names).items():
        if rows.stop - rows.start < 2:
            raise ValueError(f"{path}: path {name}: needs at least two points")
        if not all(map(math.isfinite, chain(xs[rows], ys[rows]))):
            raise ValueError(f"{path}: path {name}: a coordinate is not a finite number")
        paths.append(TypicalPath(movements[rows.start], tuple(zip(xs[rows], ys[rows]))))
    paths.sort(key=lambda p: p.movement)
    return tuple(paths)


def write_typical_paths(paths: Iterable[TypicalPath], path: str | Path) -> None:
    rows = ((p.movement.name, x, y) for p in paths for x, y in p.points)
    write_csv(path, PATH_FIELDS, rows)
