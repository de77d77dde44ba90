"""Tests for LCSS and typical-path classification.

The batched bit-parallel kernel is checked against ``scalar_lcss``, the
O(n*m) dynamic program, which is itself checked against a brute-force
subsequence enumerator.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcsignal import trajectory
from tmcsignal.model import MOVEMENTS, Movement
from tmcsignal.trafficgen import MinuteTmc
from tmcsignal.trajectory import (
    Trajectory,
    TypicalPath,
    classify,
    count_movements,
    lcss,
    lcss_matrix,
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


def scalar_lcss(a, b, eps):
    """Longest common subsequence length with Chebyshev matching radius ``eps``, O(len(a) * len(b))."""
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


# Shrinking a failing example re-checks many inputs that share most of their
# (track, path) pairs, so the oracle's results are cached by value.
cached_scalar_lcss = lru_cache(maxsize=4096)(scalar_lcss)


def scalar_similarities(points, paths, eps):
    return [cached_scalar_lcss(points, p.points, eps) / min(len(points), len(p.points)) for p in paths]


def first_best(sims, min_sim):
    """Index of the first maximum of ``sims``, or None when it is below ``min_sim``."""
    best, best_sim = None, -1.0
    for k, s in enumerate(sims):
        if s > best_sim:
            best, best_sim = k, s
    return best if best_sim >= min_sim else None


class TestScalarOracle:
    @given(short_seqs, short_seqs, st.floats(0.5, 10))
    @settings(max_examples=150)
    def test_matches_brute_force(self, a, b, eps):
        assert scalar_lcss(a, b, eps) == brute_force_lcss(a, b, eps)


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
        for eps in (0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="eps must be a positive finite number"):
                lcss([(0.0, 0.0)], [(0.0, 0.0)], eps=eps)

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
        assert count_movements([], paths) == MinuteTmc([[0] * 12])

    def test_twelve_exact_paths(self, paths):
        trajs = [Trajectory(p.movement.name, 1, p.points) for p in paths]
        table = count_movements(trajs, paths)
        assert table == MinuteTmc([[1] * 12])

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
        assert 47 <= table.counts[0, Movement.EBT] <= 50
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


TRACKS = "id,class,frame,x,y\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("id,class,x,y\na,1,0,0\na,1,1,1\n", id="dropped-column"),
        pytest.param(TRACKS + "a,1,0,0,0\na,1,1,1\n", id="short-row"),
        pytest.param(TRACKS + "a,1,0,0,0\na,1,one,1,1\n", id="non-integer-frame"),
        pytest.param(TRACKS + "a,1,0,0,0\nb,1,0,5,5\na,1,1,1,1\nb,1,1,6,6\n", id="track-a-split-apart-by-b"),
        pytest.param(TRACKS + "a,1,0,0,0\na,0,1,1,1\n", id="class-changes-partway"),
        pytest.param(TRACKS + "a,1,1,0,0\na,1,0,1,1\n", id="frames-out-of-order"),
        pytest.param(TRACKS + "a,1,0,nan,0\na,1,1,1,1\n", id="nan-coordinate"),
        pytest.param(TRACKS + "a,1,0,0,0\na,1,1,1,inf\n", id="inf-coordinate"),
    ],
)
def test_trajectory_file_rejects_malformed_rows(tmp_path, text):
    file = tmp_path / "trajs.csv"
    file.write_text(text)
    with pytest.raises(ValueError):
        read_trajectories(file)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("movement,x\nWBL,0\nWBL,1\n", id="dropped-column"),
        pytest.param("movement,x,y\nWBL,0,0\nWBL,1\n", id="short-row"),
        pytest.param("movement,x,y\nWBL,0,0\nWBT,0,0\nWBL,1,1\nWBT,1,1\n", id="path-wbl-split-apart-by-wbt"),
        pytest.param("movement,x,y\nWBL,0,0\nWBL,1,y\n", id="non-numeric-coordinate"),
        pytest.param("movement,x,y\nWBL,nan,0\nWBL,1,1\n", id="nan-coordinate"),
        pytest.param("movement,x,y\nWBL,0,0\nWBL,-inf,1\n", id="inf-coordinate"),
    ],
)
def test_typical_path_file_rejects_malformed_rows(tmp_path, text):
    file = tmp_path / "paths.csv"
    file.write_text(text)
    with pytest.raises(ValueError):
        read_typical_paths(file)


# --- bit-parallel kernel against the scalar oracle --------------------------------------

grid_points = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda p: (float(p[0]), float(p[1])))


def grid_seq(min_size, max_size):
    """A point tuple of uniformly drawn length: a short drawn cycle of grid points, repeated.

    Long (multi-word) sequences are as common as short ones, yet an example is
    only an integer and a few points, so a failing one shrinks quickly.
    """
    return st.tuples(st.integers(min_size, max_size), st.lists(grid_points, min_size=1, max_size=24)).map(
        lambda drawn: tuple(drawn[1][k % len(drawn[1])] for k in range(drawn[0]))
    )


@st.composite
def classifier_inputs(draw):
    tracks = draw(st.lists(st.tuples(st.integers(0, 1), grid_seq(2, 150)), max_size=20))
    paths = draw(st.lists(st.tuples(st.sampled_from(MOVEMENTS), grid_seq(2, 200)), min_size=1, max_size=12))
    eps = draw(st.sampled_from([0.5, 1.0, 1.5, 2.5]))
    return (
        [Trajectory(f"t{k}", label, pts) for k, (label, pts) in enumerate(tracks)],
        [TypicalPath(movement, pts) for movement, pts in paths],
        eps,
    )


@given(classifier_inputs(), st.data())
@settings(max_examples=40, deadline=None)
def test_count_movements_and_classify_match_the_scalar_oracle(inputs, data):
    tracks, paths, eps = inputs
    if eps >= np.ptp([pt for p in paths for pt in p.points], axis=0).max():
        # Every path point matches every other: the classifier refuses such an eps.
        with pytest.raises(ValueError, match="diameter"):
            count_movements(tracks, paths, eps)
        return
    ordered = sorted(paths, key=lambda p: p.movement)
    sims = [scalar_similarities(t.points, ordered, eps) for t in tracks]
    # Drawing min_sim from the similarities themselves makes exact threshold ties common.
    min_sim = data.draw(st.sampled_from(sorted({0.0, 1.0, *(s for row in sims for s in row)})))
    expected = [first_best(row, min_sim) for row in sims]
    expected = [None if k is None else ordered[k].movement for k in expected]
    assert [classify(t, paths, eps, min_sim) for t in tracks] == expected
    counts = [0] * 12
    for t, movement in zip(tracks, expected):
        if t.class_label == 1 and movement is not None:
            counts[movement] += 1
    assert count_movements(tracks, paths, eps, min_sim) == MinuteTmc([counts])


@given(st.lists(grid_seq(0, 150), max_size=6), st.lists(grid_seq(0, 200), max_size=4), st.sampled_from([0.5, 1.5]))
@settings(max_examples=40, deadline=None)
def test_lcss_matrix_matches_the_scalar_oracle(tracks, paths, eps):
    expected = [[scalar_lcss(t, p, eps) for p in paths] for t in tracks]
    got = lcss_matrix(tracks, paths, eps)
    assert got.shape == (len(tracks), len(paths)) and got.tolist() == expected


def test_chunk_size_changes_nothing(monkeypatch):
    rng = np.random.default_rng(3)
    paths = list(synthetic_typical_paths())
    paths.append(TypicalPath(Movement.NBT, tuple(map(tuple, rng.uniform(0, 400, size=(130, 2)).tolist()))))
    tracks = []
    for k in range(40):
        base = np.array(paths[k % len(paths)].points)
        keep = np.sort(rng.choice(len(base), size=int(rng.integers(2, len(base) + 1)), replace=False))
        pts = base[keep] + rng.normal(0, 15.0, size=(len(keep), 2))
        tracks.append(Trajectory(f"t{k}", int(k % 5 != 0), tuple(map(tuple, pts.tolist()))))
    results = []
    for chunk in (1, 3, len(tracks) + 1):
        monkeypatch.setattr(trajectory, "LCSS_CHUNK", chunk)
        results.append((
            lcss_matrix([t.points for t in tracks], [p.points for p in paths], 25.0).tolist(),
            count_movements(tracks, paths),
            [classify(t, paths) for t in tracks],
        ))
    assert results[0] == results[1] == results[2]
    assert results[0][1].total > 0


@pytest.mark.parametrize(
    "eps, min_sim, n_paths, message",
    [
        pytest.param(0.0, 0.6, 12, "eps", id="eps-zero"),
        pytest.param(-1.0, 0.6, 12, "eps", id="eps-negative"),
        pytest.param(float("nan"), 0.6, 12, "eps", id="eps-nan"),
        pytest.param(25.0, 1.5, 12, "min_sim", id="min-sim-above-one"),
        pytest.param(25.0, -0.1, 12, "min_sim", id="min-sim-below-zero"),
        pytest.param(25.0, float("nan"), 12, "min_sim", id="min-sim-nan"),
        pytest.param(25.0, 0.6, 0, "typical path", id="no-paths"),
        pytest.param(400.0, 0.6, 12, "diameter", id="eps-as-wide-as-the-paths"),
        pytest.param(1e300, 0.6, 12, "diameter", id="eps-far-wider-than-the-paths"),
    ],
)
def test_classifier_arguments_are_checked_before_the_data(paths, eps, min_sim, n_paths, message):
    walker = Trajectory("walker", 0, paths[0].points)
    with pytest.raises(ValueError, match=message):
        count_movements([walker], paths[:n_paths], eps, min_sim)
    with pytest.raises(ValueError, match=message):
        count_movements([], paths[:n_paths], eps, min_sim)
    with pytest.raises(ValueError, match=message):
        classify(walker, paths[:n_paths], eps, min_sim)
