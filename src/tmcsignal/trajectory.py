"""Trajectory-file analytics: LCSS similarity and typical-path classification."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from tmcsignal.model import (
    MOVEMENTS,
    Movement,
    TmcTable,
    convert_rows,
    group_rows,
    movement_named,
    read_csv,
    write_csv,
)

Point = tuple[float, float]

PEDESTRIAN = 0
VEHICLE = 1

DEFAULT_EPS = 25.0
DEFAULT_MIN_SIMILARITY = 0.6


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


def lcss(a: Sequence[Point], b: Sequence[Point], eps: float) -> int:
    """Longest common subsequence length with Chebyshev matching radius ``eps``.

    Two points match when max(|dx|, |dy|) <= eps. O(len(a) * len(b)).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    na, nb = len(a), len(b)
    prev = [0] * (nb + 1)
    for i in range(1, na + 1):
        ax, ay = a[i - 1]
        cur = [0] * (nb + 1)
        for j in range(1, nb + 1):
            bx, by = b[j - 1]
            dx = ax - bx
            dy = ay - by
            if (dx if dx >= 0 else -dx) <= eps and (dy if dy >= 0 else -dy) <= eps:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(cur[j - 1], prev[j])
        prev = cur
    return prev[nb]


def similarity(a: Sequence[Point], b: Sequence[Point], eps: float) -> float:
    """LCSS normalized by the shorter sequence, robust to unequal path lengths."""
    return lcss(a, b, eps) / min(len(a), len(b))


def classify(
    trajectory: Trajectory,
    paths: Sequence[TypicalPath],
    eps: float = DEFAULT_EPS,
    min_sim: float = DEFAULT_MIN_SIMILARITY,
) -> Movement | None:
    """Best-matching movement, or None when nothing reaches ``min_sim``.

    Ties are broken by movement order (WBL first), so classification is
    deterministic for any path set.
    """
    if not paths:
        raise ValueError("need at least one typical path")
    best: Movement | None = None
    best_sim = -1.0
    for path in sorted(paths, key=lambda p: p.movement):
        s = similarity(trajectory.points, path.points, eps)
        if s > best_sim:
            best, best_sim = path.movement, s
    return best if best_sim >= min_sim else None


def count_movements(
    trajectories: Iterable[Trajectory],
    paths: Sequence[TypicalPath],
    eps: float = DEFAULT_EPS,
    min_sim: float = DEFAULT_MIN_SIMILARITY,
) -> TmcTable:
    """Tally classified vehicle trajectories; pedestrians and unmatched are dropped."""
    counts = [0] * 12
    for t in trajectories:
        if t.class_label != VEHICLE:
            continue
        movement = classify(t, paths, eps, min_sim)
        if movement is not None:
            counts[movement] += 1
    return TmcTable(tuple(counts))


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
    non-numeric field, or a track of fewer than two points.
    """
    _, rows = read_csv(path, TRAJECTORY_FIELDS)
    rows = convert_rows(path, rows, lambda row: (row[0], int(row[1]), int(row[2]), float(row[3]), float(row[4])))
    out = []
    for tid, samples in group_rows(path, rows).items():
        labels = {row[1] for row in samples}
        if len(labels) != 1:
            raise ValueError(f"{path}: trajectory {tid} changes class")
        frames = [row[2] for row in samples]
        if frames != sorted(frames):
            raise ValueError(f"{path}: trajectory {tid}: frames out of order")
        if len(samples) < 2:
            raise ValueError(f"{path}: trajectory {tid}: needs at least two points")
        points = tuple((row[3], row[4]) for row in samples)
        out.append(Trajectory(tid, labels.pop(), points))
    return out


def write_trajectories(trajectories: Iterable[Trajectory], path: str | Path) -> None:
    rows = (
        (t.id, t.class_label, frame, x, y) for t in trajectories for frame, (x, y) in enumerate(t.points)
    )
    write_csv(path, TRAJECTORY_FIELDS, rows)


def read_typical_paths(path: str | Path) -> tuple[TypicalPath, ...]:
    """Read the reference-path file: CSV ``movement,x,y``, one block of rows per movement.

    Paths come back in movement order. ``ValueError`` for another header or field
    count, an unknown movement, a path split apart by another, a non-numeric
    coordinate, or a path of fewer than two points.
    """
    _, rows = read_csv(path, PATH_FIELDS)
    rows = convert_rows(path, rows, lambda row: (row[0], movement_named(row[0]), float(row[1]), float(row[2])))
    paths = []
    for name, samples in group_rows(path, rows).items():
        if len(samples) < 2:
            raise ValueError(f"{path}: path {name}: needs at least two points")
        paths.append(TypicalPath(samples[0][1], tuple((x, y) for _, _, x, y in samples)))
    paths.sort(key=lambda p: p.movement)
    return tuple(paths)


def write_typical_paths(paths: Iterable[TypicalPath], path: str | Path) -> None:
    rows = ((p.movement.name, x, y) for p in paths for x, y in p.points)
    write_csv(path, PATH_FIELDS, rows)
