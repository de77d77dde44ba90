"""Tests for LCSS and typical-path classification."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcsignal.model import Movement, TmcTable
from tmcsignal.trajectory import (
    Trajectory,
    classify,
    count_movements,
    lcss,
    read_trajectories,
    read_typical_paths,
    similarity,
    synthetic_typical_paths,
    write_trajectories,
    write_typical_paths,
)

points = st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(
    lambda p: (float(p[0]), float(p[1]))
)
short_seqs = st.lists(points, min_size=1, max_size=8)


@pytest.fixture(scope="module")
def paths():
    return synthetic_typical_paths()


def chebyshev_close(p, q, eps):
    return max(abs(p[0] - q[0]), abs(p[1] - q[1])) <= eps


def brute_force_lcss(a, b, eps):
    """Enumerate subsequences of the shorter side; greedy order-preserving match."""

    def matchable(sub, seq):
        i = 0
        for p in sub:
            while i < len(seq) and not chebyshev_close(p, seq[i], eps):
                i += 1
            if i == len(seq):
                return False
            i += 1
        return True

    if len(a) > len(b):
        a, b = b, a
    for length in range(len(a), 0, -1):
        for idxs in combinations(range(len(a)), length):
            if matchable([a[i] for i in idxs], b):
                return length
    return 0


class TestLcss:
    def test_self_similarity(self):
        s = [(0.0, 0.0), (5.0, 1.0), (9.0, 3.0)]
        assert lcss(s, s, eps=0.5) == len(s)

    def test_everything_out_of_range(self):
        a = [(0.0, 0.0), (1.0, 0.0)]
        b = [(100.0, 100.0), (200.0, 200.0)]
        assert lcss(a, b, eps=2.0) == 0

    def test_worked_example(self):
        a = [(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]
        b = [(0.0, 1.0), (20.0, 0.0), (10.0, 1.0)]
        assert brute_force_lcss(a, b, 2.0) == 2
        assert lcss(a, b, eps=2.0) == 2

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            lcss([(0.0, 0.0)], [(0.0, 0.0)], eps=0)

    @given(short_seqs, short_seqs, st.floats(0.5, 10))
    @settings(max_examples=150)
    def test_matches_brute_force(self, a, b, eps):
        assert lcss(a, b, eps) == brute_force_lcss(a, b, eps)

    @given(short_seqs, short_seqs)
    def test_bounded_by_shorter_sequence(self, a, b):
        assert lcss(a, b, eps=3.0) <= min(len(a), len(b))

    @given(short_seqs, short_seqs, st.data())
    def test_removing_a_point_never_increases(self, a, b, data):
        if len(a) < 2:
            return
        drop = data.draw(st.integers(0, len(a) - 1))
        reduced = a[:drop] + a[drop + 1 :]
        assert lcss(reduced, b, eps=3.0) <= lcss(a, b, eps=3.0)


class TestClassify:
    def test_exact_path_matches_itself(self, paths):
        wbl = next(p for p in paths if p.movement is Movement.WBL)
        t = Trajectory("t", 1, wbl.points)
        assert classify(t, paths) is Movement.WBL
        assert similarity(t.points, wbl.points, 25.0) == 1.0

    def test_unmatched_far_trajectory(self, paths):
        t = Trajectory("t", 1, ((-900.0, -900.0), (-880.0, -900.0), (-860.0, -900.0)))
        assert classify(t, paths) is None

    def test_noisy_clone_accuracy(self, paths):
        eps = 25.0
        rng = np.random.default_rng(2024)
        target = next(p for p in paths if p.movement is Movement.EBT)
        hits = 0
        for _ in range(100):
            noise = rng.normal(0, eps / 3, size=(len(target.points), 2))
            pts = tuple(
                (x + dx, y + dy) for (x, y), (dx, dy) in zip(target.points, noise)
            )
            if classify(Trajectory("t", 1, pts), paths, eps=eps) is Movement.EBT:
                hits += 1
        assert hits >= 95

    def test_translation_invariance(self, paths):
        rng = np.random.default_rng(5)
        base = next(p for p in paths if p.movement is Movement.SBL)
        noise = rng.normal(0, 5.0, size=(len(base.points), 2))
        pts = tuple((x + dx, y + dy) for (x, y), (dx, dy) in zip(base.points, noise))
        offset = (321.5, -87.25)
        shifted_paths = tuple(
            type(p)(p.movement, tuple((x + offset[0], y + offset[1]) for x, y in p.points))
            for p in paths
        )
        shifted = tuple((x + offset[0], y + offset[1]) for x, y in pts)
        assert classify(Trajectory("t", 1, pts), paths) is classify(
            Trajectory("t", 1, shifted), shifted_paths
        )

    def test_empty_path_set_rejected(self, paths):
        with pytest.raises(ValueError):
            classify(Trajectory("t", 1, ((0.0, 0.0), (1.0, 1.0))), ())


class TestCountMovements:
    def test_empty_input(self, paths):
        assert count_movements([], paths) == TmcTable.zero()

    def test_twelve_exact_paths(self, paths):
        trajs = [Trajectory(p.movement.name, 1, p.points) for p in paths]
        table = count_movements(trajs, paths)
        assert table.counts == (1,) * 12

    def test_pedestrians_excluded(self, paths):
        wbt = next(p for p in paths if p.movement is Movement.WBT)
        trajs = [
            Trajectory("ped", 0, wbt.points),
            Trajectory("car", 1, wbt.points),
        ]
        table = count_movements(trajs, paths)
        assert table.total == 1

    def test_noisy_clone_tally(self, paths):
        eps = 25.0
        rng = np.random.default_rng(99)
        target = next(p for p in paths if p.movement is Movement.EBT)
        trajs = []
        for i in range(50):
            noise = rng.normal(0, eps / 3, size=(len(target.points), 2))
            pts = tuple(
                (x + dx, y + dy) for (x, y), (dx, dy) in zip(target.points, noise)
            )
            trajs.append(Trajectory(f"t{i}", 1, pts))
        table = count_movements(trajs, paths, eps=eps)
        assert 47 <= table[Movement.EBT] <= 50
        assert table.total <= 50

    def test_population_conserved(self, paths):
        rng = np.random.default_rng(17)
        trajs = []
        for i in range(40):
            base = paths[i % 12].points
            noise = rng.normal(0, 60.0, size=(len(base), 2))
            pts = tuple((x + dx, y + dy) for (x, y), (dx, dy) in zip(base, noise))
            trajs.append(Trajectory(f"t{i}", int(i % 3 == 0), pts))
        matched = count_movements(trajs, paths).total
        pedestrians = sum(1 for t in trajs if t.class_label != 1)
        unmatched = sum(
            1
            for t in trajs
            if t.class_label == 1 and classify(t, paths) is None
        )
        assert matched + unmatched + pedestrians == len(trajs)


def test_trajectory_file_roundtrip(tmp_path):
    paths = synthetic_typical_paths()
    trajs = [
        Trajectory("a", 1, paths[0].points),
        Trajectory("b", 0, ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0))),
    ]
    file = tmp_path / "trajs.csv"
    write_trajectories(trajs, file)
    assert read_trajectories(file) == trajs


def test_typical_path_file_roundtrip(tmp_path):
    paths = synthetic_typical_paths()
    file = tmp_path / "paths.csv"
    write_typical_paths(paths, file)
    assert read_typical_paths(file) == paths


def test_typical_path_file_rejects_unknown_movement(tmp_path):
    file = tmp_path / "paths.csv"
    file.write_text("movement,x,y\nXYZ,0,0\nXYZ,1,1\n")
    with pytest.raises(ValueError):
        read_typical_paths(file)
