"""Signal programs: static, dynamic (critical-count proportional), and hybrid policies."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from tmcsignal.apportion import largest_remainder
from tmcsignal.model import Movement, TmcTable, check_minutes, convert_rows, read_csv, write_csv
from tmcsignal.trafficgen import MinuteTmc

DEFAULT_YELLOW = 3
MIN_GREEN = 5

# Four-phase structure with protected lefts in phases 2 and 4; phases 1 and 3
# serve the through/right pairs and let the parallel lefts filter permissively.
PHASE_SERVED: tuple[frozenset[Movement], ...] = (
    frozenset({Movement.WBT, Movement.WBR, Movement.EBT, Movement.EBR}),
    frozenset({Movement.WBL, Movement.EBL}),
    frozenset({Movement.NBT, Movement.NBR, Movement.SBT, Movement.SBR}),
    frozenset({Movement.NBL, Movement.SBL}),
)
PHASE_PERMISSIVE: tuple[frozenset[Movement], ...] = (
    frozenset({Movement.WBL, Movement.EBL}),
    frozenset(),
    frozenset({Movement.NBL, Movement.SBL}),
    frozenset(),
)

# Split phasing: one phase per approach direction, all three movements served.
SPLIT_PHASE_SERVED: tuple[frozenset[Movement], ...] = tuple(
    frozenset({Movement(3 * z), Movement(3 * z + 1), Movement(3 * z + 2)})
    for z in range(4)
)


@dataclass(frozen=True)
class Phase:
    """Green interval for a conflict-free movement set, followed by its yellow."""

    served: frozenset[Movement]
    green: int
    yellow: int = DEFAULT_YELLOW
    permissive: frozenset[Movement] = frozenset()

    def __post_init__(self) -> None:
        if self.green < MIN_GREEN:
            raise ValueError(f"green must be >= {MIN_GREEN}s, got {self.green}")
        if self.yellow < 0:
            raise ValueError("yellow must be non-negative")


@dataclass(frozen=True)
class PhasePlan:
    """One full cycle: four phases whose greens+yellows sum to the cycle time."""

    phases: tuple[Phase, Phase, Phase, Phase]
    cycle: int

    def __post_init__(self) -> None:
        total = sum(p.green + p.yellow for p in self.phases)
        if total != self.cycle:
            raise ValueError(f"phase durations sum to {total}, cycle is {self.cycle}")

    @property
    def greens(self) -> tuple[int, int, int, int]:
        return tuple(p.green for p in self.phases)

    @property
    def yellows(self) -> tuple[int, int, int, int]:
        return tuple(p.yellow for p in self.phases)


@dataclass(frozen=True)
class SignalProgram:
    """Per-minute sequence of phase plans covering the simulation horizon."""

    plans: tuple[PhasePlan, ...]

    def __post_init__(self) -> None:
        if not self.plans:
            raise ValueError("a program needs at least one minute plan")
        cycles = {p.cycle for p in self.plans}
        if len(cycles) != 1:
            raise ValueError("all minute plans must share one cycle time")

    def __len__(self) -> int:
        return len(self.plans)

    @property
    def cycle(self) -> int:
        return self.plans[0].cycle

    def plan_at(self, minute: int) -> PhasePlan:
        if minute < 0 or minute >= len(self.plans):
            raise IndexError(f"program has no minute {minute}")
        return self.plans[minute]


def critical_counts(tmc: TmcTable) -> tuple[float, float, float, float]:
    """Per-phase critical demand: paired through movements are averaged, lefts maxed."""
    t = tmc
    return (
        max((t[Movement.WBT] + t[Movement.WBR]) / 2, (t[Movement.EBT] + t[Movement.EBR]) / 2),
        float(max(t[Movement.WBL], t[Movement.EBL])),
        max((t[Movement.NBT] + t[Movement.NBR]) / 2, (t[Movement.SBT] + t[Movement.SBR]) / 2),
        float(max(t[Movement.NBL], t[Movement.SBL])),
    )


def allocate_greens(
    quotas: Sequence[float],
    budget: int,
    min_green: int = MIN_GREEN,
) -> tuple[int, ...]:
    """Integer greens proportional to ``quotas`` that sum to ``budget`` exactly.

    Largest-remainder apportionment, then any phase under ``min_green`` is
    pinned there and the rest of the budget is re-apportioned among the others,
    again by largest remainder on the (rescaled) quotas.
    """
    n = len(quotas)
    if budget < n * min_green:
        raise ValueError(f"budget {budget}s cannot give {n} phases {min_green}s each")
    if any(q < 0 for q in quotas):
        raise ValueError("quotas must be non-negative")
    active = list(range(n))
    greens = [0] * n
    while True:
        remaining = budget - min_green * (n - len(active))
        weights = [quotas[i] for i in active]
        s = sum(weights)
        if s <= 0:
            scaled = [remaining / len(active)] * len(active)
        else:
            scaled = [w / s * remaining for w in weights]
        allocated = largest_remainder(scaled, remaining)
        low = [i for i, g in zip(active, allocated) if g < min_green]
        if not low:
            for i, g in zip(active, allocated):
                greens[i] = g
            return tuple(greens)
        for i in low:
            greens[i] = min_green
        active = [i for i in active if i not in low]
        if not active:
            # Budget exactly n*min_green: everything is pinned at the floor.
            return tuple([min_green] * n)


def static_plan(cycle: int, yellow: int = DEFAULT_YELLOW, min_green: int = MIN_GREEN) -> PhasePlan:
    """Equal greens; leftover seconds after the integer split go to the earliest phases."""
    budget = cycle - 4 * yellow
    base, extra = divmod(budget, 4)
    if base < min_green:
        raise ValueError(
            f"cycle {cycle}s with {yellow}s yellows cannot give 4 greens of {min_green}s"
        )
    greens = tuple(base + 1 if i < extra else base for i in range(4))
    return _protected_left_plan(greens, yellow, cycle)


def dynamic_plan(
    tmc: TmcTable,
    cycle: int,
    yellow: int = DEFAULT_YELLOW,
    min_green: int = MIN_GREEN,
) -> PhasePlan:
    """Greens proportional to critical counts: share_i * cycle - yellow, integerized.

    A zero table falls back to the static plan; after rounding, surplus or
    deficit seconds are redistributed by largest remainder so the cycle is
    conserved exactly.
    """
    crit = critical_counts(tmc)
    total = sum(crit)
    if total == 0:
        return static_plan(cycle, yellow, min_green)
    quotas = [max(x / total * cycle - yellow, 0.0) for x in crit]
    greens = allocate_greens(quotas, cycle - 4 * yellow, min_green)
    return _protected_left_plan(greens, yellow, cycle)


def split_phase_plan(greens: Sequence[int], yellow: int, cycle: int) -> PhasePlan:
    """Plan serving one approach per phase, in order WB, NB, EB, SB."""
    phases = tuple(
        Phase(served=SPLIT_PHASE_SERVED[i], green=int(greens[i]), yellow=yellow)
        for i in range(4)
    )
    return PhasePlan(phases, cycle)


def _protected_left_plan(greens: Sequence[int], yellow: int, cycle: int) -> PhasePlan:
    phases = tuple(
        Phase(
            served=PHASE_SERVED[i],
            green=int(greens[i]),
            yellow=yellow,
            permissive=PHASE_PERMISSIVE[i],
        )
        for i in range(4)
    )
    return PhasePlan(phases, cycle)


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

    static: one equal-split plan repeated; dynamic: per-minute proportional
    plans; hybrid: dynamic inside ``peak_minutes`` (default: minutes 60-179 of
    a four-hour run), static elsewhere; rl: the greedy split-phasing plans of
    the trained allocator ``q``.
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
    plans = []
    for minute in range(len(minute_tmcs)):
        if policy == "dynamic" or (policy == "hybrid" and minute in peaks):
            plans.append(dynamic_plan(minute_tmcs[minute], cycle, yellow))
        else:
            plans.append(fixed)
    return SignalProgram(tuple(plans))


# --- CSV interchange ------------------------------------------------------------------

PROGRAM_FIELDS = ("minute", "g1", "y1", "g2", "y2", "g3", "y3", "g4", "y4")
SPLIT_PROGRAM_FIELDS = ("minute", "gWB", "yWB", "gNB", "yNB", "gEB", "yEB", "gSB", "ySB")

# The header of a program file names its phase layout: protected lefts, or one
# phase per approach (WB, NB, EB, SB).
_LAYOUTS = {
    PROGRAM_FIELDS: (PHASE_SERVED, _protected_left_plan),
    SPLIT_PROGRAM_FIELDS: (SPLIT_PHASE_SERVED, split_phase_plan),
}


def write_program(program: SignalProgram, path: str | Path) -> None:
    """Export as CSV, one row of greens/yellows per minute, the header naming the layout."""
    layouts = {tuple(phase.served for phase in plan.phases) for plan in program.plans}
    header = next((h for h, (served, _) in _LAYOUTS.items() if layouts == {served}), None)
    if header is None:
        raise ValueError("program plans do not share one known phase layout")
    rows = (
        [minute, *(d for phase in plan.phases for d in (phase.green, phase.yellow))]
        for minute, plan in enumerate(program.plans)
    )
    write_csv(path, header, rows)


def read_program(path: str | Path) -> SignalProgram:
    """Read a program CSV whose header, ``PROGRAM_FIELDS`` or ``SPLIT_PROGRAM_FIELDS``, names its layout.

    ``ValueError`` for another header or field count, minutes that do not count
    0, 1, 2, ... in order, a non-integer duration, unequal yellows in a row, or
    a green under ``MIN_GREEN``.
    """
    header, rows = read_csv(path, *_LAYOUTS)
    check_minutes(path, rows)
    _, make_plan = _LAYOUTS[header]

    def plan(row: Sequence[str]) -> PhasePlan:
        greens = tuple(map(int, row[1::2]))
        yellows = tuple(map(int, row[2::2]))
        if len(set(yellows)) != 1:
            raise ValueError("per-phase yellows must be equal")
        return make_plan(greens, yellows[0], sum(greens) + sum(yellows))

    return SignalProgram(tuple(convert_rows(path, rows, plan)))
