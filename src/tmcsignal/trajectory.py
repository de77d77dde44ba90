"""Trajectory-file analytics: LCSS similarity and typical-path classification."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from tmcsignal.model import MOVEMENTS, Movement, TmcTable

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


def read_trajectories(path: str | Path) -> list[Trajectory]:
    """Read the tracker export: CSV ``id,class,frame,x,y`` sorted by (id, frame)."""
    rows: dict[str, list[tuple[int, float, float]]] = {}
    labels: dict[str, int] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            tid = row["id"]
            labels[tid] = int(row["class"])
            rows.setdefault(tid, []).append(
                (int(row["frame"]), float(row["x"]), float(row["y"]))
            )
    out = []
    for tid, samples in rows.items():
        frames = [f for f, _, _ in samples]
        if frames != sorted(frames):
            raise ValueError(f"trajectory {tid}: frames out of order")
        out.append(Trajectory(tid, labels[tid], tuple((x, y) for _, x, y in samples)))
    return out


def write_trajectories(trajectories: Iterable[Trajectory], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "class", "frame", "x", "y"))
        for t in trajectories:
            for frame, (x, y) in enumerate(t.points):
                writer.writerow((t.id, t.class_label, frame, x, y))


def read_typical_paths(path: str | Path) -> tuple[TypicalPath, ...]:
    """Read the reference-path file: CSV ``movement,x,y`` ordered per movement."""
    rows: dict[str, list[Point]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["movement"], []).append((float(row["x"]), float(row["y"])))
    paths = []
    for name, pts in rows.items():
        if name not in Movement.__members__:
            raise ValueError(f"unknown movement label {name!r}")
        paths.append(TypicalPath(Movement[name], tuple(pts)))
    paths.sort(key=lambda p: p.movement)
    return tuple(paths)


def write_typical_paths(paths: Iterable[TypicalPath], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("movement", "x", "y"))
        for p in paths:
            for x, y in p.points:
                writer.writerow((p.movement.name, x, y))
