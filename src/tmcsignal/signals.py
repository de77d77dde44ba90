"""Signal programs: static, dynamic (critical-count proportional), hybrid and rl policies.

A policy is a quota row: ``allocate_greens`` splits each minute's usable green
in proportion to a row of four quotas, a zero row evenly. A program is one
(minutes, 4) quota matrix: all zeros (static), critical-count cycle shares
(dynamic), those inside the peak only (hybrid), or greedy action tenths (rl).

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
from typing import Iterable

import numpy as np

from tmcsignal.apportion import largest_remainder, row_sums
from tmcsignal.model import check_minutes, convert_column, read_csv, write_csv
from tmcsignal.trafficgen import BimodalProfile, MinuteTmc

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


def critical_counts(counts) -> np.ndarray:
    """Per-phase critical demand of (n, 12) counts, (n, 4) float64: through pairs averaged, lefts maxed.

    Phases 1-4 take the W/E through pairs, the W/E lefts, the N/S through pairs and the N/S lefts.
    """
    zones = np.asarray(counts, dtype=np.int64).reshape(-1, 4, 3)  # origin W, N, E, S; then left, through, right
    through, left = (zones[..., 1] + zones[..., 2]) / 2, zones[..., 0]
    return np.stack([np.maximum(x[:, z], x[:, z + 2]) for z in (0, 1) for x in (through, left)], axis=1)


def usable_green(cycle: int, yellow: int) -> int:
    """The green seconds a cycle leaves after four yellows.

    ``ValueError`` for a negative yellow, a cycle not below 2**53, where floats
    count seconds exactly, or fewer than ``4 * MIN_GREEN`` seconds left.
    """
    if yellow < 0:
        raise ValueError("yellow must be non-negative")
    if cycle >= 2**53:
        raise ValueError(f"cycle {cycle}s is not below 2**53")
    if (budget := cycle - 4 * yellow) < 4 * MIN_GREEN:
        raise ValueError(f"cycle {cycle}s with {yellow}s yellows cannot give 4 greens of {MIN_GREEN}s")
    return budget


def allocate_greens(quotas, budget: int) -> np.ndarray:
    """Integer greens proportional to each row of the (n, 4) ``quotas``, every row summing to ``budget``.

    Largest-remainder apportionment, then any phase under ``MIN_GREEN`` is
    pinned there and the rest of the budget is re-apportioned among the others,
    again by largest remainder on the (rescaled) quotas; a row of zero quotas
    gets equal greens. A round that pins nothing ends it. Every other pins a
    phase, and as the budget is at least ``4 * MIN_GREEN`` one phase of each
    row stays unpinned, so there are at most four rounds. Returns an int64
    (n, 4) array; the budget must be below 2**53, where floats count seconds.
    """
    if budget < 4 * MIN_GREEN:
        raise ValueError(f"budget {budget}s cannot give 4 phases {MIN_GREEN}s each")
    if budget >= 2**53:
        raise ValueError(f"budget {budget}s is not below 2**53")
    quotas = np.asarray(quotas, dtype=np.float64).reshape(-1, 4)
    if (quotas < 0).any():
        raise ValueError("quotas must be non-negative")
    active = np.ones(quotas.shape, dtype=bool)
    while True:
        k = active.sum(axis=1)
        remaining = budget - MIN_GREEN * (4 - k)
        weights = np.where(active, quotas, 0.0)
        s = row_sums(weights)
        even = s <= 0
        shares = weights / np.where(even, 1.0, s)[:, None]
        scaled = np.where(even[:, None], (remaining / k)[:, None], shares * remaining[:, None])
        greens = largest_remainder(scaled, remaining, where=active)
        low = active & (greens < MIN_GREEN)
        if not low.any():
            return np.where(active, greens, MIN_GREEN)
        active &= ~low


DEFAULT_PEAK_MINUTES = BimodalProfile().peak_minutes
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

    A policy is a quota row per minute. static: zero rows. dynamic:
    ``max(crit / total * cycle - yellow, 0)`` of the minute's critical counts,
    a zero row where they total 0. hybrid: dynamic's rows inside
    ``peak_minutes`` (default: the default profile's peak, minutes 60-179), zero rows
    elsewhere. All three use protected lefts. rl: ``rl.build_rl_program``.
    """
    budget = usable_green(cycle, yellow)  # before any quota is scaled by the cycle, which may not fit a float
    if policy == "rl":
        if q is None:
            raise ValueError("the rl policy needs a trained allocator")
        from tmcsignal import rl as rl_mod

        return rl_mod.build_rl_program(q, minute_tmcs, cycle, yellow)
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "hybrid":
        peaks = DEFAULT_PEAK_MINUTES if peak_minutes is None else peak_minutes
        dynamic = np.isin(np.arange(len(minute_tmcs)), list(peaks))
    else:
        dynamic = policy == "dynamic"
    crit = critical_counts(minute_tmcs.counts)
    total = row_sums(crit)
    rows = dynamic & (total > 0)
    quotas = np.zeros_like(crit)
    if rows.any():  # a static program never scales by the cycle, which may not fit a float
        quotas[rows] = np.maximum(crit[rows] / total[rows, None] * cycle - yellow, 0.0)
    return SignalProgram(PROTECTED_LEFT, allocate_greens(quotas, budget), yellow, cycle)


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
