"""Discrete-time point-queue simulator, one batch of grid cells at a time.

A cell is one intersection geometry, one demand (its ``Departures``) and one
signal program. Vehicles join per-movement FIFO queues at their departure
second; during each green, a movement discharges at effective_lanes /
saturation_headway vehicles per second (fractional service accumulates as
credit), permissive lefts at a reduced rate; yellows are lost time. Waiting
accrues one second per queued vehicle per tick. Everything is deterministic.

``run`` advances all cells of a batch together. The queues and credits of the
batch are one (cells x 12) array, and each one-second tick is the same few
numpy operations on it. Arrivals are a (seconds x 12) count matrix, built once
per distinct demand from its departure columns. Service rates are a per-cell
index per second into a fixed table of multiplier rows: an all-red row, then
one row per phase of each layout in ``signals.LAYOUTS``, read off the phase's
green-state string (``G`` 1, ``g`` the permissive left factor, ``r`` 0). The
rows are scaled by the cell's full discharge rates once a minute; consecutive
cells that share a program object share its index column. Waits and
per-minute zone maxima are reduced once a minute.

Batching is exact. Queues never interact in this model: each movement of each
cell follows its own Lindley-type recursion, driven only by its own arrivals
and its own service rate. So the batch can apply to each element the IEEE
double operations that a loop over one cell and one movement applies, in the
same order: add the rate to the credit, split off the whole vehicles, serve at
most the queue, and keep the fraction only while the movement stays queued and
green. Each step rounds the same way as the loop's: the fraction ``modf``
returns is exactly ``c - int(c)``, and a rate row of multiplier 1, 0 or the
permissive factor times the full rate is exactly the full rate, zero or the
factor's product. Queues, waits and zone sums are integers far below 2**53, so
the order of their sums does not matter, and served is injected minus the
final queue. The tests check every result field against the scalar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from tmcsignal import rl as rl_mod
from tmcsignal.apportion import largest_remainder
from tmcsignal.model import IntersectionGeometry, Zone, write_csv
from tmcsignal.signals import DEFAULT_YELLOW, LAYOUTS, SignalProgram, build_program
from tmcsignal.trafficgen import Departures, aggregate_per_minute

# Relative service weight of the (left, through, right) lane groups when an
# approach's lanes are shared fractionally.
SHARED_LANE_WEIGHTS = (1, 2, 1)


@dataclass(frozen=True)
class SimConfig:
    """Tick size is fixed at one second; the rest is tunable."""

    horizon: int = 3600
    saturation_headway: float = 2.0
    permissive_left_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least one second")
        if self.saturation_headway <= 0:
            raise ValueError("saturation headway must be positive")
        if not 0 <= self.permissive_left_factor <= 1:
            raise ValueError("permissive left factor must be in [0, 1]")


@dataclass(frozen=True)
class SimResult:
    injected: int
    served: int
    residual_queue: int
    total_wait: int
    nwt: float
    queue_series: tuple[tuple[int, int, int, int], ...]


def assign_lanes(geo: IntersectionGeometry) -> tuple[float, ...]:
    """Effective lane count serving each movement, WBL..SBR, summing to lanes_in per zone.

    With three or more lanes the left turn gets one dedicated lane and the rest
    split 2:1 between through and right by largest remainder; narrower
    approaches share fractionally in proportion 1:2:1.
    """
    eff: list[float] = [0.0] * 12
    for zone in Zone:
        n = geo.lanes_in_at(zone)
        base = 3 * zone.index
        if n >= 3:
            through, right = largest_remainder(
                [2 / 3 * (n - 1), 1 / 3 * (n - 1)], n - 1
            )
            eff[base : base + 3] = [1.0, float(through), float(right)]
        else:
            total = sum(SHARED_LANE_WEIGHTS)
            eff[base : base + 3] = [n * w / total for w in SHARED_LANE_WEIGHTS]
    return tuple(eff)


def _count_arrivals(plans: Departures, out: np.ndarray) -> None:
    """Add each plan departing before second ``len(out)`` to ``out[depart, movement]``."""
    plans.check_sorted()
    inside = plans.departs < len(out)
    cells = plans.departs[inside] * 12 + plans.movements[inside]
    out += np.bincount(cells, minlength=out.size).reshape(out.shape)


def _multipliers(permissive_left_factor: float) -> np.ndarray:
    """The rate-table rows: all-red, then each phase of each layout in ``LAYOUTS`` order."""
    weight = {"G": 1.0, "g": permissive_left_factor, "r": 0.0}
    states = [state for layout in LAYOUTS for state in layout]
    return np.array([[0.0] * 12] + [[weight[light] for light in state] for state in states])


def _rate_index(program: SignalProgram, horizon: int, out: np.ndarray) -> None:
    """Write into ``out`` the rate-table row in force each second; 0 is all-red.

    Phases cycle continuously; a minute plan takes effect at the first cycle
    boundary inside that minute, so phases are never truncated mid-green. So
    cycle k starts at ``k * cycle`` with the greens of the minute it starts in.
    """
    minutes_needed = math.ceil(horizon / 60)
    if len(program) < minutes_needed:
        raise ValueError(
            f"program covers {len(program)} minutes, horizon needs {minutes_needed}"
        )
    starts = np.arange(0, horizon, program.cycle)
    greens = program.greens[np.minimum(starts // 60, len(program) - 1)]
    durations = np.empty((len(starts), 8), dtype=np.int64)
    durations[:, 0::2] = greens
    durations[:, 1::2] = program.yellow
    first = 1 + 4 * LAYOUTS.index(program.layout)
    rows = np.tile([first, 0, first + 1, 0, first + 2, 0, first + 3, 0], len(starts))
    out[:] = np.repeat(rows, durations.ravel())[:horizon]


def _simulate(
    geometries: Sequence[IntersectionGeometry],
    demands: Sequence[Departures],
    programs: Iterable[SignalProgram],
    cfg: SimConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The batched kernel: per cell, vehicles injected, total wait, final queue and per-minute zone maxima."""
    if len(demands) != len(geometries):
        raise ValueError(f"{len(geometries)} geometries but {len(demands)} demands")
    cells, horizon = len(geometries), cfg.horizon

    distinct = list({id(plans): plans for plans in demands}.values())
    row_of = {id(plans): d for d, plans in enumerate(distinct)}
    cell_demand = np.array([row_of[id(plans)] for plans in demands], dtype=np.intp)
    arrivals = np.zeros((horizon, len(distinct), 12), dtype=np.int32)
    for d, plans in enumerate(distinct):
        _count_arrivals(plans, arrivals[:, d])
    injected = arrivals.sum(axis=(0, 2), dtype=np.int64)[cell_demand]

    rate_index = np.zeros((horizon, cells), dtype=np.uint8)
    full = np.empty((cells, 12))
    previous = None
    for b, (geo, program) in enumerate(zip(geometries, programs, strict=True)):
        if program is previous:
            rate_index[:, b] = rate_index[:, b - 1]
        else:
            _rate_index(program, horizon, rate_index[:, b])
            previous = program
        full[b] = [lanes / cfg.saturation_headway for lanes in assign_lanes(geo)]
    multipliers = _multipliers(cfg.permissive_left_factor)

    # One minute of seconds at a time: rates, green flags (1.0 where the rate
    # is positive) and arrivals; queues[0] carries the queue into the minute
    # and queues[s] holds it after second s.
    rates, green, new = (np.empty((60, cells, 12)) for _ in range(3))
    counted = np.empty((60, cells, 12), dtype=np.int32)
    queues = np.zeros((61, cells, 12))
    credit = np.zeros((cells, 12))
    c, whole, keep = (np.empty((cells, 12)) for _ in range(3))
    total_wait = np.zeros(cells, dtype=np.int64)
    n_minutes = math.ceil(horizon / 60)
    zone_max = np.zeros((cells, n_minutes, 4), dtype=np.int64)
    for minute in range(n_minutes):
        t0 = 60 * minute
        m = min(60, horizon - t0)
        # Every index is in range by construction; "clip" only spares take a buffer.
        np.take(multipliers, rate_index[t0 : t0 + m], axis=0, out=rates[:m], mode="clip")
        np.multiply(rates[:m], full, out=rates[:m])
        np.greater(rates[:m], 0.0, out=green[:m])
        np.take(arrivals[t0 : t0 + m], cell_demand, axis=1, out=counted[:m], mode="clip")
        np.copyto(new[:m], counted[:m])
        # Per second: queue the arrivals, add the rate to the credit, serve its
        # whole part but at most the queue, and keep its fraction only where the
        # movement is still queued and green.
        for before, q, a, r, g in zip(queues, queues[1 : m + 1], new, rates, green):
            np.add(before, a, out=q)
            np.add(credit, r, out=c)
            np.modf(c, c, whole)
            np.subtract(q, whole, out=q)
            np.maximum(q, 0.0, out=q)
            np.minimum(q, g, out=keep)
            np.multiply(c, keep, out=credit)
        seconds = queues[1 : m + 1]
        total_wait += seconds.sum(axis=(0, 2)).astype(np.int64)
        zone_max[:, minute] = seconds.reshape(m, cells, 4, 3).sum(axis=3).max(axis=0)
        queues[0] = queues[m]
    return injected, total_wait, queues[0].sum(axis=1).astype(np.int64), zone_max


def run(
    geometries: Sequence[IntersectionGeometry],
    demands: Sequence[Departures],
    programs: Iterable[SignalProgram],
    cfg: SimConfig,
) -> list[SimResult]:
    """Simulate one cell per (geometry, demand, program) over the horizon; one result per cell.

    All cells advance together, one (cells x 12) step per second. Cells that
    share a demand should pass the same ``Departures`` object, whose arrivals
    are then counted once. ``programs`` is read one program at a time, so it
    may be a generator; it must yield exactly one program per geometry.
    """
    injected, total_wait, residual, zone_max = _simulate(geometries, demands, programs, cfg)
    return [
        SimResult(
            injected=int(injected[b]),
            served=int(injected[b] - residual[b]),
            residual_queue=int(residual[b]),
            total_wait=int(total_wait[b]),
            nwt=int(total_wait[b]) / max(1, int(injected[b])),
            queue_series=tuple(map(tuple, zone_max[b].tolist())),
        )
        for b in range(len(injected))
    ]


def evaluate(
    geo: IntersectionGeometry,
    plans: Departures,
    policy: str,
    cycle: int,
    cfg: SimConfig,
    yellow: int = DEFAULT_YELLOW,
    rl_seed: int = 0,
    rl_episodes: int = 30,
) -> SimResult:
    """Build the program for ``policy`` from the plans' own per-minute TMC, then run.

    ``rl`` first trains a fresh allocator on the scenario's minute stream.
    """
    minute_tmcs = aggregate_per_minute(plans, minutes=math.ceil(cfg.horizon / 60))
    q = None
    if policy == "rl":
        [q] = rl_mod.train([minute_tmcs], episodes=rl_episodes, seeds=[rl_seed], cycle=cycle, yellow=yellow)
    program = build_program(minute_tmcs, policy, cycle, yellow, q=q)
    return run([geo], [plans], [program], cfg)[0]


SUMMARY_FIELDS = ("injected", "served", "residual_queue", "total_wait", "nwt")


def summary_row(r: SimResult) -> tuple:
    """The ``SUMMARY_FIELDS`` of one result, NWT to six decimals."""
    return (r.injected, r.served, r.residual_queue, r.total_wait, f"{r.nwt:.6f}")


def write_summary(result: SimResult, path: str | Path) -> None:
    """One-row CSV with the headline measurements."""
    write_csv(path, SUMMARY_FIELDS, [summary_row(result)])


def write_queue_series(result: SimResult, path: str | Path) -> None:
    """Per-minute maximum queue length per zone."""
    rows = ((minute, *row) for minute, row in enumerate(result.queue_series))
    write_csv(path, ("minute", "west", "north", "east", "south"), rows)
