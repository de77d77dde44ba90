"""The scalar apportionment and per-minute plans that the quota matrices replaced, kept as the slow reference.

``largest_remainder`` and ``allocate_greens`` take one row of quotas as a
list of Python floats; ``static_plan``, ``dynamic_plan`` and ``rl_plan`` build
one minute's greens. ``signals.build_program`` and ``rl.build_rl_program`` must
give every minute the greens these give it, and the array ``largest_remainder``
and ``allocate_greens`` every row the result or the error these give it.
"""

from __future__ import annotations

import math
from typing import Sequence

from tmcsignal.model import Movement
from tmcsignal.signals import DEFAULT_YELLOW, MIN_GREEN


def largest_remainder(quotas: Sequence[float], total: int) -> list[int]:
    """Integerize ``quotas`` so the result sums to ``total`` exactly.

    Each quota is floored, then the leftover units go to the largest fractional
    parts; ties are broken by position (earliest first), which keeps the result
    deterministic. If the quotas under-fill the total (callers may clamp
    negative quotas to zero) the distribution wraps around in the same order.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if any(q < 0 for q in quotas):
        raise ValueError("quotas must be non-negative")
    if not quotas:
        if total:
            raise ValueError("cannot apportion a positive total over no quotas")
        return []
    floors = [int(math.floor(q)) for q in quotas]
    leftover = total - sum(floors)
    if leftover < 0:
        raise ValueError("quotas exceed the total being apportioned")
    order = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - floors[i]), i))
    for k in range(leftover):
        floors[order[k % len(quotas)]] += 1
    return floors


def critical_counts(t: Sequence[int]) -> tuple[float, float, float, float]:
    """Per-phase critical demand of one minute's 12 counts: paired through movements are averaged, lefts maxed."""
    return (
        max((t[Movement.WBT] + t[Movement.WBR]) / 2, (t[Movement.EBT] + t[Movement.EBR]) / 2),
        float(max(t[Movement.WBL], t[Movement.EBL])),
        max((t[Movement.NBT] + t[Movement.NBR]) / 2, (t[Movement.SBT] + t[Movement.SBR]) / 2),
        float(max(t[Movement.NBL], t[Movement.SBL])),
    )


def allocate_greens(quotas: Sequence[float], budget: int) -> tuple[int, ...]:
    """Integer greens proportional to ``quotas`` that sum to ``budget`` exactly.

    Largest-remainder apportionment, then any phase under ``MIN_GREEN`` is
    pinned there and the rest of the budget is re-apportioned among the others,
    again by largest remainder on the (rescaled) quotas.
    """
    n = len(quotas)
    if budget < n * MIN_GREEN:
        raise ValueError(f"budget {budget}s cannot give {n} phases {MIN_GREEN}s each")
    if any(q < 0 for q in quotas):
        raise ValueError("quotas must be non-negative")
    active = list(range(n))
    greens = [0] * n
    while True:
        remaining = budget - MIN_GREEN * (n - len(active))
        weights = [quotas[i] for i in active]
        s = sum(weights)
        if s <= 0:
            scaled = [remaining / len(active)] * len(active)
        else:
            scaled = [w / s * remaining for w in weights]
        allocated = largest_remainder(scaled, remaining)
        low = [i for i, g in zip(active, allocated) if g < MIN_GREEN]
        if not low:
            for i, g in zip(active, allocated):
                greens[i] = g
            return tuple(greens)
        for i in low:
            greens[i] = MIN_GREEN
        active = [i for i in active if i not in low]
        if not active:
            # Budget exactly n*MIN_GREEN: everything is pinned at the floor.
            return tuple([MIN_GREEN] * n)


def static_plan(cycle: int, yellow: int = DEFAULT_YELLOW) -> tuple[int, int, int, int]:
    """Equal greens; leftover seconds after the integer split go to the earliest phases."""
    budget = cycle - 4 * yellow
    base, extra = divmod(budget, 4)
    if base < MIN_GREEN:
        raise ValueError(
            f"cycle {cycle}s with {yellow}s yellows cannot give 4 greens of {MIN_GREEN}s"
        )
    return tuple(base + 1 if i < extra else base for i in range(4))


def dynamic_plan(counts: Sequence[int], cycle: int, yellow: int = DEFAULT_YELLOW) -> tuple[int, int, int, int]:
    """Greens proportional to the critical counts of one minute: share_i * cycle - yellow, integerized.

    Zero counts fall back to the static plan; after rounding, surplus or
    deficit seconds are redistributed by largest remainder so the cycle is
    conserved exactly.
    """
    crit = critical_counts(counts)
    total = sum(crit)
    if total == 0:
        return static_plan(cycle, yellow)
    quotas = [max(x / total * cycle - yellow, 0.0) for x in crit]
    return allocate_greens(quotas, cycle - 4 * yellow)


def action_fractions(action: tuple[int, int, int, int]) -> tuple[float, float, float, float]:
    """Allocation shares in [0.1, 0.7] that sum to 1 exactly (tenths over 10)."""
    return tuple(t / 10 for t in action)


def rl_plan(q, counts: Sequence[int], cycle: int, yellow: int = DEFAULT_YELLOW) -> tuple[int, int, int, int]:
    """Greens of the greedy allocation for the split phases WB, NB, EB, SB, from one minute's 12 counts."""
    state = [sum(counts[3 * z : 3 * z + 3]) / q.norm for z in range(4)]
    action = q.greedy_action(state)
    budget = cycle - 4 * yellow
    return allocate_greens([s * budget for s in action_fractions(action)], budget)


def rows_oracle(scalar, calls):
    """``scalar(*args)`` for each ``args`` of ``calls``: the list of results, or the error text an array call raises.

    An array call makes each check over every row before the next check, so it
    raises the error of the earliest check that any row fails: the row error
    that comes first in ``ERROR_ORDER``.
    """
    results, errors = [], []
    for args in calls:
        try:
            results.append(scalar(*args))
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        return min(errors, key=lambda text: next(i for i, part in enumerate(ERROR_ORDER) if part in text))
    return results


# The checks of both apportionments in the order they are made, each by a fragment of its error text.
ERROR_ORDER = (
    "cannot give",
    "total must be non-negative",
    "quotas must be non-negative",
    "over no quotas",
    "quotas exceed",
)
