"""The array largest-remainder apportionment and green allocation against the scalar oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plan_oracle
from tmcsignal.apportion import largest_remainder
from tmcsignal.signals import allocate_greens


@st.composite
def quota_rows(draw, rows: int, k: int, big: float):
    """``rows`` rows of ``k`` quotas, non-negative but for one in about eight draws, for that error.

    Few distinct values, so that rows hold ties, whole quotas and zeros, and
    a few floats of every size up to ``big``.
    """
    values = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.25, 1 / 3, 2 / 3, 7.0]), st.floats(0, 100), st.floats(0, big)
    )
    quotas = draw(st.lists(st.lists(values, min_size=k, max_size=k), min_size=rows, max_size=rows))
    if rows and k and draw(st.integers(0, 7)) == 0:
        quotas[draw(st.integers(0, rows - 1))][draw(st.integers(0, k - 1))] = draw(st.floats(-3, -1e-300))
    return quotas


@st.composite
def apportionments(draw):
    """(quotas, total, where): one total for every row or one per row, and a mask of the entries that take part.

    A total is small, or a row's own total is its sum of floors give or take
    a few units, so that quotas of any size fill it exactly, under-fill it
    (the leftover wraps) or overfill it, and the oracle never wraps 2**40 times.
    """
    rows, k = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    quotas = draw(quota_rows(rows, k, 2.0**40))
    row_masks = st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=rows, max_size=rows)
    where = draw(st.one_of(st.just(True), row_masks))
    small = st.integers(-2, 40)
    if draw(st.booleans()):
        return quotas, draw(small), where
    masks = [[True] * k] * rows if where is True else where
    fits = [sum(math.floor(q) for q, w in zip(row, mask) if w and q >= 0) for row, mask in zip(quotas, masks)]
    return quotas, [draw(st.one_of(small, st.integers(-1, k + 2).map(lambda d: fit + d))) for fit in fits], where


def oracle_rows(quotas, total, where):
    """Each row by the scalar oracle over its ``where`` entries, the others 0; or the error the array raises."""
    totals = total if isinstance(total, list) else [total] * len(quotas)
    masks = where if isinstance(where, list) else [[True] * len(row) for row in quotas]
    calls = [([q for q, w in zip(row, mask) if w], t) for row, t, mask in zip(quotas, totals, masks)]
    results = plan_oracle.rows_oracle(plan_oracle.largest_remainder, calls)
    if isinstance(results, str):
        return results
    rows = []
    for mask, parts in zip(masks, results):
        parts = iter(parts)
        rows.append([next(parts) if w else 0 for w in mask])
    return rows


def outcome(call):
    """``call()`` as plain lists, or the text of the ``ValueError`` it raises."""
    try:
        return call().tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(apportionments())
@example(([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0]], 5, True))  # ties, and a zero row that wraps
@example(([[0.0, 1.0, 1.0, 1.0]], 4, [[False, True, True, True]]))  # a masked entry ranks last
@example(([[]], 0, True))
@example(([[], []], [0, 1], True))
def test_largest_remainder_equals_the_scalar_oracle(case):
    quotas, total, where = case
    k = len(quotas[0]) if quotas else 0
    got = outcome(lambda: largest_remainder(np.array(quotas, dtype=float).reshape(len(quotas), k), total, where))
    assert got == oracle_rows(quotas, total, where)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_largest_remainder_rejects_a_non_finite_quota(bad):
    with pytest.raises(ValueError, match="quotas must be finite"):
        largest_remainder([[1.0, bad]], 3)
    with pytest.raises(ValueError, match="quotas must be non-negative"):
        largest_remainder([[-1.0, bad]], 3)
    assert largest_remainder([[1.0, bad]], 3, where=[[True, False]]).tolist() == [[3, 0]]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda rows: quota_rows(rows, 4, 1e12)),
    st.one_of(st.just(20), st.integers(15, 200), st.integers(20, 2**52)),
)
@example([[0.0] * 4, [1.0, 0.0, 0.0, 0.0], [70.0, 4.0, 2.0, 2.0]], 78)
@example([[1.0, 1.0, 1.0, 0.0]], 20)
@example([[0.0, 0.5, 1.5, 3.0]], 29)  # pins two phases, then rescales the rest without them
@example([[0.0, 2 / 3, 1.5927570403565987, 111.0]], 2_251_790_891_913_054)  # a row sum added out of order shows
def test_allocate_greens_equals_the_scalar_oracle(quotas, budget):
    got = outcome(lambda: allocate_greens(quotas, budget))
    expected = plan_oracle.rows_oracle(plan_oracle.allocate_greens, [(row, budget) for row in quotas])
    assert got == (expected if isinstance(expected, str) else [list(row) for row in expected])


def test_allocate_greens_checks_the_budget_of_no_rows():
    assert allocate_greens(np.zeros((0, 4)), 20).shape == (0, 4)
    with pytest.raises(ValueError, match=r"budget 9007199254740992s is not below 2\*\*53"):
        allocate_greens([[1.0, 1.0, 1.0, 1.0]], 2**53)
