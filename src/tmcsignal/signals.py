"""Signal programs: static, dynamic (critical-count proportional), hybrid and rl policies.

A program holds what a SUMO tlLogic holds for each minute: four phases, each a
green and then a yellow, over the 12 controlled links WBL..SBR (origin zone W,
N, E, S, then left/through/right). Which movements a phase lets go is written
once, as SUMO green-state strings, in the two phase layouts below: ``G`` the
movement is served, ``g`` it may go permissively (a left turn that yields to
oncoming traffic), ``r`` it is red. The yellow after a phase is the same string
with ``G`` and ``g`` turned into ``y``. The simulator's service rates, the
tlLogic states and the program CSV header are all read off these strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from tmcsignal.apportion import largest_remainder
from tmcsignal.model import Movement, check_minutes, convert_column, read_csv, write_csv
from tmcsignal.trafficgen import MinuteTmc

DEFAULT_YELLOW = 3
MIN_GREEN = 5

# Protected lefts in phases 2 and 4; phases 1 and 3 serve the through/right
# pairs and let the parallel lefts filter permissively.
PROTECTED_LEFT = ("gGGrrrgGGrrr", "GrrrrrGrrrrr", "rrrgGGrrrgGG", "rrrGrrrrrGrr")
# Split phasing: one phase per approach, WB, NB, EB, SB, all three movements served.
SPLIT_PHASE = ("GGGrrrrrrrrr", "rrrGGGrrrrrr", "rrrrrrGGGrrr", "rrrrrrrrrGGG")
LAYOUTS = (PROTECTED_LEFT, SPLIT_PHASE)


@dataclass(frozen=True, eq=False)
class SignalProgram:
    """Per-minute greens over one phase layout, with one yellow and one cycle.

    ``greens`` is a read-only int64 (minutes, 4) array, one row of phase greens
    per minute. ``ValueError`` unless there is at least one minute, every green
    is at least ``MIN_GREEN``, the yellow is not negative and each minute's
    greens plus four yellows last exactly ``cycle`` seconds.
    """

    layout: tuple[str, str, str, str]
    greens: np.ndarray
    yellow: int
    cycle: int

    def __post_init__(self) -> None:
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown phase layout {self.layout!r}")
        greens = np.array(self.greens)
        if greens.size == 0:
            raise ValueError("a program needs at least one minute plan")
        if greens.ndim != 2 or greens.shape[1] != 4:
            raise ValueError(f"greens must be a (minutes, 4) array, got shape {greens.shape}")
        if greens.dtype.kind not in "iu":
            raise ValueError("greens must be whole seconds within int64")
        if self.yellow < 0:
            raise ValueError("yellow must be non-negative")
        if (short := np.argwhere(greens < MIN_GREEN)).size:
            minute, phase = short[0]
            raise ValueError(f"green must be >= {MIN_GREEN}s, got {greens[minute, phase]} in minute {minute}")
        # The yellows stay Python ints: a yellow read from a file may not fit in int64.
        if (wrong := np.flatnonzero(greens.sum(axis=1) != self.cycle - 4 * self.yellow)).size:
            total = int(greens[wrong[0]].sum()) + 4 * self.yellow
            raise ValueError(f"minute {wrong[0]}: phase durations sum to {total}, cycle is {self.cycle}")
        greens = greens.astype(np.int64, copy=False)
        greens.flags.writeable = False
        object.__setattr__(self, "greens", greens)

    def __len__(self) -> int:
        return len(self.greens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignalProgram):
            return NotImplemented
        same = (self.layout, self.yellow, self.cycle) == (other.layout, other.yellow, other.cycle)
        return same and np.array_equal(self.greens, other.greens)


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


DEFAULT_PEAK_MINUTES = frozenset(range(60, 180))
POLICIES = ("static", "dynamic", "hybrid", "rl")


def build_program(
    minute_tmcs: MinuteTmc,
    policy: str,
    cycle: int,
    yellow: int = DEFAULT_YELLOW,
    peak_minutes: Iterable[int] | None = None,
    q=None,
) -> SignalProgram:
    """Per-minute program under the requested policy.

    static: one equal split repeated; dynamic: per-minute proportional greens;
    hybrid: dynamic inside ``peak_minutes`` (default: minutes 60-179 of a
    four-hour run), static elsewhere. All three use protected lefts. rl: the
    greedy split-phasing greens of the trained allocator ``q``.
    """
    if policy == "rl":
        if q is None:
            raise ValueError("the rl policy needs a trained allocator")
        from tmcsignal import rl as rl_mod

        return rl_mod.build_rl_program(q, minute_tmcs, cycle, yellow)
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    peaks = DEFAULT_PEAK_MINUTES if peak_minutes is None else frozenset(peak_minutes)
    fixed = static_plan(cycle, yellow)
    greens = [
        dynamic_plan(counts, cycle, yellow)
        if policy == "dynamic" or (policy == "hybrid" and minute in peaks)
        else fixed
        for minute, counts in enumerate(minute_tmcs.counts.tolist())
    ]
    return SignalProgram(PROTECTED_LEFT, greens, yellow, cycle)


# --- CSV interchange ------------------------------------------------------------------

PROGRAM_FIELDS = ("minute", "g1", "y1", "g2", "y2", "g3", "y3", "g4", "y4")
SPLIT_PROGRAM_FIELDS = ("minute", "gWB", "yWB", "gNB", "yNB", "gEB", "yEB", "gSB", "ySB")

# The header of a program file names its phase layout.
_LAYOUT_OF_HEADER = {PROGRAM_FIELDS: PROTECTED_LEFT, SPLIT_PROGRAM_FIELDS: SPLIT_PHASE}
_HEADER_OF_LAYOUT = {layout: header for header, layout in _LAYOUT_OF_HEADER.items()}


def write_program(program: SignalProgram, path: str | Path) -> None:
    """Export as CSV, one row of greens/yellows per minute, the header naming the layout."""
    y = program.yellow
    rows = (
        [minute, g1, y, g2, y, g3, y, g4, y]
        for minute, (g1, g2, g3, g4) in enumerate(program.greens.tolist())
    )
    write_csv(path, _HEADER_OF_LAYOUT[program.layout], rows)


def read_program(path: str | Path) -> SignalProgram:
    """Read a program CSV whose header, ``PROGRAM_FIELDS`` or ``SPLIT_PROGRAM_FIELDS``, names its layout.

    ``ValueError`` naming the file for another header or field count, minutes
    that do not count 0, 1, 2, ... in order, a non-integer duration, unequal
    yellows, or anything ``SignalProgram`` rejects: no rows, a green under
    ``MIN_GREEN``, or minutes of different cycle lengths.
    """
    header, (minutes, *durations) = read_csv(path, *_LAYOUT_OF_HEADER)
    check_minutes(path, minutes)
    yellows = [convert_column(path, column, int) for column in durations[1::2]]
    for line, row in enumerate(zip(*yellows), start=2):
        if len(set(row)) != 1:
            raise ValueError(f"{path}, line {line}: per-phase yellows must be equal")
    greens = list(zip(*(convert_column(path, column, int) for column in durations[0::2])))
    if len(set(yellows[0])) > 1:
        raise ValueError(f"{path}: all minute plans must share one yellow")
    yellow = yellows[0][0] if greens else DEFAULT_YELLOW
    cycle = sum(greens[0]) + 4 * yellow if greens else 0
    try:
        return SignalProgram(_LAYOUT_OF_HEADER[header], greens, yellow, cycle)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
