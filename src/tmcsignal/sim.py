"""Discrete-time point-queue simulator, one batch of grid cells at a time.

A cell is one intersection geometry, one demand (its ``Departures``) and one
signal program. Vehicles join per-movement FIFO queues at their departure
second; during each green, a movement discharges at effective_lanes /
saturation_headway vehicles per second (fractional service accumulates as
credit), permissive lefts at a reduced rate; yellows are lost time. Waiting
accrues one second per queued vehicle per tick. Everything is deterministic.

``run`` advances all cells of a batch together, but simulates each distinct
movement column once. A column is a (demand, program, movement, full rate)
key, the rate compared bit for bit: cells that share a demand and a program
differ only through their lane rates, and two geometries with the same rate
for a movement give that movement the same queue. On the six bundled
geometries that is 20 columns per program instead of 72. The queues and
credits of the batch are one vector over the distinct columns, and each
one-second tick is the same few numpy operations on it. Arrivals are counted
one block of ``ARRIVAL_BLOCK`` seconds at a time from each distinct demand's
sorted departures: one ``searchsorted`` per demand splits them at the block
edges, and at each block start one ``bincount`` per demand refills a
(block seconds x demands x 12) count array, so memory does not grow with the
horizon. Service rates are a per-program index per second into a
fixed table of multiplier rows: an all-red row, then one row per phase of each
layout in ``signals.LAYOUTS``, read off the phase's green-state string (``G``
1, ``g`` the permissive left factor, ``r`` 0); each column's row is scaled by
its full rate. Demands and programs are told apart by object identity: cells
that pass the same ``Departures`` share its arrival counts, and cells that pass
the same ``SignalProgram`` share its index column, wherever they sit in the
batch. Once a minute the kernel sums each column's waits and, for each
distinct triple of columns that forms a zone of some cell, the per-second zone
queues and their maximum; index arrays map columns and zone triples back to
cells.

Batching is exact. Queues never interact in this model: each movement of each
cell follows its own Lindley-type recursion, driven only by its own arrivals
and its own service rate, so cells with the same key have the same column and
one copy stands for all. The batch applies to each element the IEEE double
operations that a loop over one cell and one movement applies, in the same
order: add the rate to the credit, split off the whole vehicles, serve at most
the queue, and keep the fraction only while the movement stays queued and
green. Each step rounds the same way as the loop's: the fraction ``modf``
returns is exactly ``c - int(c)``, and a rate of multiplier 1, 0 or the
permissive factor times the full rate is exactly the full rate, zero or the
factor's product. Queues, waits and zone sums are integers far below 2**53, so
the order of their sums does not matter, and served is injected minus the
final queue. The tests check every result field against the scalar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from tmcsignal import rl as rl_mod
from tmcsignal.apportion import largest_remainder
from tmcsignal.model import IntersectionGeometry, write_csv
from tmcsignal.signals import DEFAULT_YELLOW, LAYOUTS, SignalProgram, build_program
from tmcsignal.trafficgen import Departures, aggregate_per_minute

# Relative service weight of the (left, through, right) lane groups when an
# approach's lanes are shared fractionally.
SHARED_LANE_WEIGHTS = (1, 2, 1)

# The longest horizon, one week. The kernel ticks once a second and holds a
# one-byte rate-table row per second for each distinct program, so the cap
# bounds both its run time and that index.
MAX_HORIZON = 7 * 86400

# Arrivals are counted this many seconds at a time. A multiple of 60, so no
# minute of the tick loop straddles two blocks.
ARRIVAL_BLOCK = 600


@dataclass(frozen=True)
class SimConfig:
    """Tick size is fixed at one second; the rest is tunable."""

    horizon: int = 3600
    saturation_headway: float = 2.0
    permissive_left_factor: float = 0.5

    def __post_init__(self) -> None:
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ValueError(f"horizon must be 1 to {MAX_HORIZON} seconds (one week), got {self.horizon}")
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


def assign_lanes(geometries: Sequence[IntersectionGeometry]) -> np.ndarray:
    """Effective lanes serving each movement, a float64 (geometries, 12) matrix whose zones sum to their lanes_in.

    With three or more lanes the left turn gets one dedicated lane and the rest
    split 2:1 between through and right, all such approaches in one largest
    remainder call; narrower approaches share fractionally in proportion 1:2:1.
    """
    lanes = np.array([geo.lanes_in for geo in geometries], dtype=np.int64).reshape(-1, 4)
    eff = lanes[..., None] * np.array(SHARED_LANE_WEIGHTS) / sum(SHARED_LANE_WEIGHTS)
    wide = lanes >= 3
    rest = lanes[wide] - 1
    eff[wide, 0] = 1.0
    eff[wide, 1:] = largest_remainder(np.stack([2 / 3 * rest, 1 / 3 * rest], axis=1), rest)
    return eff.reshape(-1, 12)


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


def _distinct(items: Sequence) -> tuple[list, np.ndarray]:
    """The distinct objects of ``items`` by identity, in first-seen order, and each item's index among them."""
    by_id = {id(item): item for item in items}
    row_of = {key: row for row, key in enumerate(by_id)}
    return list(by_id.values()), np.array([row_of[id(item)] for item in items], dtype=np.intp)


def _simulate(
    geometries: Sequence[IntersectionGeometry],
    demands: Sequence[Departures],
    programs: Sequence[SignalProgram],
    cfg: SimConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The batched kernel: per cell, vehicles injected, total wait, final queue and per-minute zone maxima."""
    if len(demands) != len(geometries):
        raise ValueError(f"{len(geometries)} geometries but {len(demands)} demands")
    if len(programs) != len(geometries):
        raise ValueError(f"{len(geometries)} geometries but {len(programs)} programs")
    cells, horizon = len(geometries), cfg.horizon

    distinct_demands, cell_demand = _distinct(demands)
    # bounds[d, k] is the first departure of demand d at or after the start of
    # arrival block k; the last edge is the horizon.
    edges = np.minimum(np.arange(0, horizon + ARRIVAL_BLOCK, ARRIVAL_BLOCK), horizon)
    bounds = np.empty((len(distinct_demands), len(edges)), dtype=np.intp)
    for d, plans in enumerate(distinct_demands):
        plans.check_sorted()
        bounds[d] = np.searchsorted(plans.departs, edges)
    injected = bounds[:, -1].astype(np.int64)[cell_demand]

    distinct_programs, cell_program = _distinct(programs)
    rate_index = np.empty((horizon, len(distinct_programs)), dtype=np.uint8)
    for p, program in enumerate(distinct_programs):
        _rate_index(program, horizon, rate_index[:, p])
    full = assign_lanes(geometries) / cfg.saturation_headway

    # A column is a distinct (demand, program, movement, full-rate bits);
    # cell_col maps each cell's 12 movements to their columns, and cell_zone
    # each cell's 4 zones to the distinct column triples that make them up.
    keys = np.empty((cells, 12, 4), dtype=np.int64)
    keys[..., 0] = cell_demand[:, None]
    keys[..., 1] = cell_program[:, None]
    keys[..., 2] = np.arange(12)
    keys[..., 3] = full.view(np.int64)
    columns, cell_col = np.unique(keys.reshape(-1, 4), axis=0, return_inverse=True)
    cell_col = cell_col.reshape(cells, 12)
    zones, cell_zone = np.unique(cell_col.reshape(-1, 3), axis=0, return_inverse=True)
    cell_zone = cell_zone.reshape(cells, 4)
    zone_a, zone_b, zone_c = zones.T
    col_demand, col_program, col_move = columns[:, :3].T
    col_full = columns[:, 3].copy().view(np.float64)
    width = len(columns)
    # Entry r * width + u is row r of the rate table times column u's full
    # rate: the product a one-cell loop takes.
    rate_table = (_multipliers(cfg.permissive_left_factor)[:, col_move] * col_full).ravel()
    lane = np.arange(width)
    # One block of arrival counts, (second in block, distinct demand, movement).
    arrivals = np.empty((ARRIVAL_BLOCK, len(distinct_demands), 12), dtype=np.int32)
    arrival_cols = arrivals.reshape(ARRIVAL_BLOCK, -1)
    col_arrival = col_demand * 12 + col_move

    # One minute of seconds at a time: rates, green flags (1.0 where the rate
    # is positive) and arrivals; queues[0] carries the queue into the minute
    # and queues[s] holds it after second s.
    rates, green, new = (np.empty((60, width)) for _ in range(3))
    counted = np.empty((60, width), dtype=np.int32)
    queues = np.zeros((61, width))
    credit = np.zeros(width)
    c, whole, keep = (np.empty(width) for _ in range(3))
    col_wait = np.zeros(width)
    # The row views of those buffers, made once: second s of a minute reads
    # queues[s], new[s], rates[s] and green[s] and writes queues[s + 1].
    steps = list(zip(queues, queues[1:], new, rates, green))
    n_minutes = math.ceil(horizon / 60)
    zone_peak = np.empty((n_minutes, len(zones)))
    for minute in range(n_minutes):
        t0 = 60 * minute
        m = min(60, horizon - t0)
        block, r0 = divmod(t0, ARRIVAL_BLOCK)
        if r0 == 0:
            for d, plans in enumerate(distinct_demands):
                first, end = bounds[d, block : block + 2]
                slots = (plans.departs[first:end] - t0) * 12 + plans.movements[first:end]
                arrivals[:, d] = np.bincount(slots, minlength=12 * ARRIVAL_BLOCK).reshape(ARRIVAL_BLOCK, 12)
        # Every index is in range by construction; "clip" only spares take a buffer.
        row = rate_index[t0 : t0 + m].take(col_program, axis=1) * np.intp(width) + lane
        np.take(rate_table, row, out=rates[:m], mode="clip")
        np.greater(rates[:m], 0.0, out=green[:m])
        np.take(arrival_cols[r0 : r0 + m], col_arrival, axis=1, out=counted[:m], mode="clip")
        np.copyto(new[:m], counted[:m])
        # Per second: queue the arrivals, add the rate to the credit, serve its
        # whole part but at most the queue, and keep its fraction only where the
        # movement is still queued and green.
        for before, q, a, r, g in steps[:m]:
            np.add(before, a, out=q)
            np.add(credit, r, out=c)
            np.modf(c, c, whole)
            np.subtract(q, whole, out=q)
            np.maximum(q, 0.0, out=q)
            np.minimum(q, g, out=keep)
            np.multiply(c, keep, out=credit)
        seconds = queues[1 : m + 1]
        col_wait += seconds.sum(axis=0)
        zone = seconds.take(zone_a, axis=1) + seconds.take(zone_b, axis=1) + seconds.take(zone_c, axis=1)
        zone_peak[minute] = zone.max(axis=0)
        queues[0] = queues[m]
    total_wait = col_wait[cell_col].sum(axis=1).astype(np.int64)
    residual = queues[0][cell_col].sum(axis=1).astype(np.int64)
    zone_max = zone_peak[:, cell_zone].transpose(1, 0, 2).astype(np.int64)
    return injected, total_wait, residual, zone_max


def run(
    geometries: Sequence[IntersectionGeometry],
    demands: Sequence[Departures],
    programs: Sequence[SignalProgram],
    cfg: SimConfig,
) -> list[SimResult]:
    """Simulate one cell per (geometry, demand, program) over the horizon; one result per cell.

    All cells advance together, one step per second over the batch's distinct
    (demand, program, movement, full rate) columns. Cells that share a demand
    should pass the same ``Departures`` object, whose arrivals are then counted
    once, and cells that share a program the same ``SignalProgram`` object,
    whose rate-index column is then built once; the cells may come in any
    order. ``demands`` and ``programs`` hold one entry per geometry.
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
