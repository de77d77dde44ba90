"""Experiment harness: the intersection x pattern x policy x cycle comparison grid."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from tmcsignal import rl as rl_mod
from tmcsignal.model import read_geometries, write_csv
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
        if not self.cycles:
            raise ValueError("need at least one cycle time")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 1 <= len(self.profile.hours) <= MAX_HORIZON // 3600:
            raise ValueError(f"need 1 to {MAX_HORIZON // 3600} hours, got {len(self.profile.hours)}")


@dataclass(frozen=True)
class ExperimentMatrix:
    """Complete grid of simulation results plus the demand horizon used."""

    results: Mapping[CellKey, SimResult]
    horizon: int

    def nwt(self, key: CellKey) -> float:
        return self.results[key].nwt


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
    text = Path(path).read_text()
    try:
        return parse_experiment_spec(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def run_experiment(spec: ExperimentSpec) -> ExperimentMatrix:
    """Simulate every grid cell deterministically, all cells in one batch.

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
    and serves every geometry; programs are built while the kernel reads them,
    so one program is held at a time.
    """
    geometries = read_geometries(spec.geometry_file)
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
    # Cells that share a program are consecutive: one per geometry.
    keys = [
        (geo_id, pattern, policy, cycle)
        for pattern in spec.patterns
        for policy in spec.policies
        for cycle in spec.cycles
        for geo_id in geometries
    ]

    def programs():
        for i, (geo_id, pattern, policy, cycle) in enumerate(keys):
            if i % len(geometries) == 0:
                try:
                    program = build_program(
                        demands[pattern][1], policy, cycle, peak_minutes=peaks, q=allocators.get(pattern)
                    )
                except ValueError as exc:
                    raise ExperimentError(
                        f"cell geometry={geo_id} pattern={pattern} "
                        f"policy={policy} cycle={cycle}: {exc}"
                    ) from exc
            yield program

    results = run(
        [geometries[key[0]] for key in keys],
        [demands[key[1]][0] for key in keys],
        programs(),
        cfg,
    )
    return ExperimentMatrix(dict(zip(keys, results)), horizon)


def best_by_policy(
    matrix: ExperimentMatrix, geo_id: str, pattern: str, policies: Sequence[str], cycles: Sequence[int]
) -> dict[str, float]:
    """Minimum NWT over the cycle set, per policy."""
    return {
        policy: min(matrix.nwt((geo_id, pattern, policy, cycle)) for cycle in cycles)
        for policy in policies
    }


def winners(matrix: ExperimentMatrix, spec: ExperimentSpec) -> dict[tuple[str, str], str]:
    """Per (geometry, pattern): the policy with the lowest best-cycle NWT.

    Policies within WINNER_TIE_THRESHOLD of the minimum tie, resolved in the
    fixed order static < dynamic < hybrid < rl.
    """
    geo_ids = spec.geometry_ids or tuple(sorted({k[0] for k in matrix.results}))
    out = {}
    for geo_id in geo_ids:
        for pattern in spec.patterns:
            best = best_by_policy(matrix, geo_id, pattern, spec.policies, spec.cycles)
            floor = min(best.values())
            for policy in POLICIES:
                if policy in best and best[policy] <= floor * (1 + WINNER_TIE_THRESHOLD):
                    out[(geo_id, pattern)] = policy
                    break
    return out


REPORT_FIELDS = ("geometry", "pattern", "policy", "cycle", *SUMMARY_FIELDS)


def write_report(matrix: ExperimentMatrix, path: str | Path) -> None:
    """Deterministic CSV sorted by (geometry, pattern, policy, cycle)."""
    rows = ((*key, *summary_row(matrix.results[key])) for key in sorted(matrix.results))
    write_csv(path, REPORT_FIELDS, rows)


def write_winners(matrix: ExperimentMatrix, spec: ExperimentSpec, path: str | Path) -> None:
    table = winners(matrix, spec)
    rows = ((geo_id, pattern, policy) for (geo_id, pattern), policy in sorted(table.items()))
    write_csv(path, ("geometry", "pattern", "winner"), rows)
