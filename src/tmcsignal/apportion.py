"""Largest-remainder apportionment of integer totals across rows of fractional quotas."""

from __future__ import annotations

import functools

import numpy as np


def row_sums(x: np.ndarray) -> np.ndarray:
    """Each row of an (n, k) float array summed left to right, ``((a + b) + c) + d``, as Python's ``sum`` adds."""
    return functools.reduce(np.add, np.asarray(x).T, np.zeros(len(x)))


def largest_remainder(quotas, total, where=True) -> np.ndarray:
    """Integerize each row of the (rows, k) ``quotas`` so it sums to its ``total`` exactly.

    ``total`` is one int for every row or one per row, below 2**53. Each quota
    is floored, then the leftover units go to the largest fractional parts;
    ties are broken by position (earliest first), which keeps the result
    deterministic. If the quotas under-fill the total (callers may clamp
    negative quotas to zero) the distribution wraps around in the same order.
    Entries outside ``where`` take no part: they count as quota 0, rank last
    and get 0. Returns an int64 (rows, k) array.
    """
    where = np.broadcast_to(where, np.shape(quotas))
    quotas = np.where(where, np.asarray(quotas, dtype=np.float64), 0.0)
    totals = np.broadcast_to(np.asarray(total, dtype=np.int64), quotas.shape[:1])
    if (totals < 0).any():
        raise ValueError("total must be non-negative")
    if (quotas < 0).any():
        raise ValueError("quotas must be non-negative")
    k = where.sum(axis=1)
    if totals[k == 0].any():
        raise ValueError("cannot apportion a positive total over no quotas")
    if not np.isfinite(quotas).all():
        raise ValueError("quotas must be finite")
    floors = np.floor(quotas)
    # Clipped at total + 1, a floor casts to int64 exactly and still overfills its row.
    ints = np.minimum(floors, totals[:, None] + 1).astype(np.int64)
    leftover = totals - ints.sum(axis=1)
    if (leftover < 0).any():
        raise ValueError("quotas exceed the total being apportioned")
    order = np.argsort(np.where(where, floors - quotas, 1.0), axis=1, kind="stable")
    rank = np.argsort(order, axis=1)
    k, leftover = np.maximum(k, 1)[:, None], leftover[:, None]
    return ints + where * (leftover // k + (rank < leftover % k))

