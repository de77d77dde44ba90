"""Experiment harness: the intersection x pattern x policy x cycle comparison grid."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from tmcsignal import rl as rl_mod
from tmcsignal.model import parse_file, read_geometries, write_csv
from tmcsignal.sim import MAX_HORIZON, SUMMARY_FIELDS, SimConfig, SimResult, run, summary_row
from tmcsignal.signals import POLICIES, build_program
from tmcsignal.trafficgen import (
    PATTERNS,
    BimodalProfile,
    DemandSpec,
    TurnRatio,
    generate_demand,
    parse_keyed,
    profile_from_fields,
)

DEFAULT_CYCLES = (60, 90, 120, 150)
WINNER_TIE_THRESHOLD = 0.005

CellKey = tuple[str, str, str, int]  # geometry id, pattern, policy, cycle


class ExperimentError(ValueError):
    """A grid cell failed; the message carries the cell coordinates."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid definition; defaults reproduce the full comparison matrix."""

    geometry_ids: tuple[str, ...] = ()  # empty = all bundled intersections
    patterns: tuple[str, ...] = tuple(sorted(PATTERNS))
    policies: tuple[str, ...] = POLICIES
    cycles: tuple[int, ...] = DEFAULT_CYCLES
    seed: int = 7
    profile: BimodalProfile = field(default_factory=BimodalProfile)
    rl_episodes: int = 20
    geometry_file: str | None = None

    def __post_init__(self) -> None:
        for p in self.patterns:
            if p not in PATTERNS:
                raise ValueError(f"unknown pattern {p!r}")
        for p in self.policies:
            if p not in POLICIES:
                raise ValueError(f"unknown policy {p!r}")
        for name, one in (("patterns", "pattern"), ("policies", "policy"), ("cycles", "cycle time")):
            if not getattr(self, name):
                raise ValueError(f"need at least one {one}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 1 <= len(self.profile.hours) <= MAX_HORIZON // 3600:
            raise ValueError(f"need 1 to {MAX_HORIZON // 3600} hours, got {len(self.profile.hours)}")
        for name in ("geometry_ids", "patterns", "policies", "cycles"):
            values = getattr(self, name)
            repeated = [value for i, value in enumerate(values) if value in values[:i]]
            if repeated:
                raise ValueError(f"{name} lists {repeated[0]!r} more than once")


def parse_experiment_spec(text: str) -> ExperimentSpec:
    """Keyed-text grid file: geometries/patterns/policies/cycles/seed lines."""
    fields = parse_keyed(text)

    def split(value: str) -> tuple[str, ...]:
        return tuple(v.strip() for v in value.split(",") if v.strip())

    kwargs: dict = {}
    if "geometries" in fields:
        value = fields.pop("geometries")
        kwargs["geometry_ids"] = () if value.lower() == "all" else split(value)
    if "patterns" in fields:
        kwargs["patterns"] = tuple(p.upper() for p in split(fields.pop("patterns")))
    if "policies" in fields:
        kwargs["policies"] = split(fields.pop("policies"))
    if "cycles" in fields:
        kwargs["cycles"] = tuple(int(c) for c in split(fields.pop("cycles")))
    if "seed" in fields:
        kwargs["seed"] = int(fields.pop("seed"))
    if "rl_episodes" in fields:
        kwargs["rl_episodes"] = int(fields.pop("rl_episodes"))
    if "geometry_file" in fields:
        kwargs["geometry_file"] = fields.pop("geometry_file")
    kwargs["profile"] = profile_from_fields(fields)
    if fields:
        raise ValueError(f"unknown experiment spec keys: {sorted(fields)}")
    return ExperimentSpec(**kwargs)


def read_experiment_spec(path: str | Path) -> ExperimentSpec:
    """``parse_experiment_spec`` on a file; its ``ValueError`` names the file."""
    return parse_file(path, parse_experiment_spec)


def run_experiment(spec: ExperimentSpec) -> dict[CellKey, SimResult]:
    """Simulate every grid cell deterministically, all cells in one batch; one result per cell key.

    Demand is drawn once per pattern (seeded from the grid seed and the
    pattern's index) and shared across intersections, policies, and cycles.
    The RL allocator is likewise trained once per pattern, all patterns in one
    ``rl.train`` call: its delay objective scales uniformly with the usable
    green, so the greedy allocation does not depend on the cycle time. That
    call trains the patterns in lockstep, split over the usable CPUs with forked
    children; each allocator has the bits it would have if trained alone, so
    the report does not depend on the CPU count.
    A hybrid program is dynamic in the minutes of the profile's peak hours.
    A program depends only on (pattern, policy, cycle), so each is built once
    and every geometry's cell passes that same object to the kernel, which
    shares inputs by identity.
    """
    geometries = read_geometries(spec.geometry_file)
    if not geometries:
        raise ValueError(f"{spec.geometry_file}: no geometry rows")
    if spec.geometry_ids:
        missing = [g for g in spec.geometry_ids if g not in geometries]
        if missing:
            raise ValueError(f"unknown geometry ids: {missing}")
        geometries = {g: geometries[g] for g in spec.geometry_ids}

    horizon = 3600 * len(spec.profile.hours)
    cfg = SimConfig(horizon=horizon)

    demands = {}
    for pattern in spec.patterns:
        pattern_seed = spec.seed * 1000 + sorted(PATTERNS).index(pattern)
        plans, minute_tmcs = generate_demand(
            DemandSpec(
                profile=spec.profile,
                pattern=PATTERNS[pattern],
                ratios=TurnRatio.default(),
                seed=pattern_seed,
            )
        )
        demands[pattern] = (plans, minute_tmcs, pattern_seed)

    allocators = {}
    if "rl" in spec.policies:
        trained = rl_mod.train(
            [minute_tmcs for _, minute_tmcs, _ in demands.values()],
            episodes=spec.rl_episodes,
            seeds=[pattern_seed for _, _, pattern_seed in demands.values()],
        )
        allocators = dict(zip(demands, trained))

    peaks = spec.profile.peak_minutes
    programs = {}
    for pattern, policy, cycle in itertools.product(spec.patterns, spec.policies, spec.cycles):
        try:
            programs[pattern, policy, cycle] = build_program(
                demands[pattern][1], policy, cycle, peak_minutes=peaks, q=allocators.get(pattern)
            )
        except ValueError as exc:
            raise ExperimentError(
                f"cell geometry={next(iter(geometries))} pattern={pattern} "
                f"policy={policy} cycle={cycle}: {exc}"
            ) from exc

    keys = [(geo_id, *program_key) for program_key in programs for geo_id in geometries]
    results = run(
        [geometries[key[0]] for key in keys],
        [demands[key[1]][0] for key in keys],
        [programs[key[1:]] for key in keys],
        cfg,
    )
    return dict(zip(keys, results))


def winners(results: Mapping[CellKey, SimResult]) -> dict[tuple[str, str], str]:
    """Per (geometry, pattern): the policy with the lowest best-cycle NWT.

    A policy's best-cycle NWT is its minimum over the cycles of its cells.
    Policies within WINNER_TIE_THRESHOLD of the minimum tie, resolved in the
    fixed order static < dynamic < hybrid < rl.
    """
    best: dict[tuple[str, str], dict[str, float]] = {}
    for (geo_id, pattern, policy, _), result in results.items():
        by_policy = best.setdefault((geo_id, pattern), {})
        by_policy[policy] = min(result.nwt, by_policy.get(policy, math.inf))
    out = {}
    for pair, by_policy in best.items():
        floor = min(by_policy.values())
        out[pair] = next(p for p in POLICIES if by_policy.get(p, math.inf) <= floor * (1 + WINNER_TIE_THRESHOLD))
    return out


REPORT_FIELDS = ("geometry", "pattern", "policy", "cycle", *SUMMARY_FIELDS)


def write_report(results: Mapping[CellKey, SimResult], path: str | Path) -> None:
    """Deterministic CSV sorted by (geometry, pattern, policy, cycle)."""
    rows = ((*key, *summary_row(results[key])) for key in sorted(results))
    write_csv(path, REPORT_FIELDS, rows)


def write_winners(results: Mapping[CellKey, SimResult], path: str | Path) -> None:
    table = winners(results)
    rows = ((geo_id, pattern, policy) for (geo_id, pattern), policy in sorted(table.items()))
    write_csv(path, ("geometry", "pattern", "winner"), rows)
