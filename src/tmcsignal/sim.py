"""Discrete-time point-queue simulator for one signalized intersection.

Vehicles join per-movement FIFO queues at their departure second; during each
green, a movement discharges at effective_lanes / saturation_headway vehicles
per second (fractional service accumulates), permissive lefts at a reduced
rate; yellows are lost time. Waiting accrues one second per queued vehicle per
tick. Everything is deterministic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from tmcsignal import rl as rl_mod
from tmcsignal.apportion import largest_remainder
from tmcsignal.model import MOVEMENTS, IntersectionGeometry, Movement, Zone
from tmcsignal.signals import DEFAULT_YELLOW, SignalProgram, build_program
from tmcsignal.trafficgen import VehiclePlan, aggregate_per_minute

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
class LaneAssignment:
    """Effective lane count serving each movement, summing to lanes_in per zone."""

    effective_lanes: tuple[float, ...]

    def __getitem__(self, movement: Movement) -> float:
        return self.effective_lanes[movement]


@dataclass(frozen=True)
class SimResult:
    injected: int
    served: int
    residual_queue: int
    total_wait: int
    nwt: float
    queue_series: tuple[tuple[int, int, int, int], ...]


def assign_lanes(geo: IntersectionGeometry) -> LaneAssignment:
    """Derive per-movement effective lanes from each approach's inbound lanes.

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
    return LaneAssignment(tuple(eff))


def _service_rates(
    geo: IntersectionGeometry,
    program: SignalProgram,
    cfg: SimConfig,
) -> list[list[float]]:
    """Per-second, per-movement discharge rates implied by the signal program.

    Phases cycle continuously; a minute plan takes effect at the first cycle
    boundary inside that minute, so phases are never truncated mid-green.
    """
    lanes = assign_lanes(geo)
    rates = np.zeros((cfg.horizon, 12))
    full = np.array([lanes[m] / cfg.saturation_headway for m in MOVEMENTS])
    t = 0
    while t < cfg.horizon:
        plan = program.plan_at(min(t // 60, len(program) - 1))
        for phase in plan.phases:
            end = min(t + phase.green, cfg.horizon)
            if end > t:
                for m in phase.served:
                    rates[t:end, m] = full[m]
                for m in phase.permissive:
                    rates[t:end, m] = cfg.permissive_left_factor * full[m]
            t += phase.green + phase.yellow
            if t >= cfg.horizon:
                break
    return rates.tolist()


def run(
    geo: IntersectionGeometry,
    plans: Sequence[VehiclePlan],
    program: SignalProgram,
    cfg: SimConfig,
) -> SimResult:
    """Simulate the horizon tick by tick and report waiting/queue measurements."""
    minutes_needed = math.ceil(cfg.horizon / 60)
    if len(program) < minutes_needed:
        raise ValueError(
            f"program covers {len(program)} minutes, horizon needs {minutes_needed}"
        )
    arrivals: dict[int, list[int]] = {}
    injected = 0
    last = -1
    for p in plans:
        if p.depart < last:
            raise ValueError("vehicle plans must be sorted by departure time")
        last = p.depart
        if p.depart < cfg.horizon:
            arrivals.setdefault(p.depart, []).append(int(p.movement))
            injected += 1

    rates = _service_rates(geo, program, cfg)
    queues = [0] * 12
    credit = [0.0] * 12
    total_wait = 0
    served = 0
    n_minutes = minutes_needed
    zone_max = [[0, 0, 0, 0] for _ in range(n_minutes)]

    for t in range(cfg.horizon):
        new = arrivals.get(t)
        if new is not None:
            for m in new:
                queues[m] += 1
        rate_row = rates[t]
        for m in range(12):
            q = queues[m]
            if q:
                r = rate_row[m]
                if r > 0.0:
                    c = credit[m] + r
                    n = int(c)
                    if n >= q:
                        served += q
                        queues[m] = 0
                        credit[m] = 0.0
                    elif n:
                        served += n
                        queues[m] = q - n
                        credit[m] = c - n
                    else:
                        credit[m] = c
                else:
                    credit[m] = 0.0
            else:
                credit[m] = 0.0
        total_wait += sum(queues)
        row = zone_max[t // 60]
        for z in range(4):
            zq = queues[3 * z] + queues[3 * z + 1] + queues[3 * z + 2]
            if zq > row[z]:
                row[z] = zq

    residual = sum(queues)
    return SimResult(
        injected=injected,
        served=served,
        residual_queue=residual,
        total_wait=total_wait,
        nwt=total_wait / max(1, injected),
        queue_series=tuple(tuple(row) for row in zone_max),
    )


def evaluate(
    geo: IntersectionGeometry,
    plans: Sequence[VehiclePlan],
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
        q = rl_mod.train(minute_tmcs, episodes=rl_episodes, seed=rl_seed, cycle=cycle, yellow=yellow)
    program = build_program(minute_tmcs, policy, cycle, yellow, q=q)
    return run(geo, plans, program, cfg)


def write_summary(result: SimResult, path: str | Path) -> None:
    """One-row CSV with the headline measurements."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("injected", "served", "residual_queue", "total_wait", "nwt"))
        writer.writerow(
            (result.injected, result.served, result.residual_queue, result.total_wait, f"{result.nwt:.6f}")
        )


def write_queue_series(result: SimResult, path: str | Path) -> None:
    """Per-minute maximum queue length per zone."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("minute", "west", "north", "east", "south"))
        for minute, row in enumerate(result.queue_series):
            writer.writerow((minute, *row))
