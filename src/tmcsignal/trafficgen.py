"""Bimodal daily demand: hourly totals, zone/turn splits, departures, per-minute TMC."""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from tmcsignal.apportion import proportional_split
from tmcsignal.model import MOVEMENTS, Movement, TmcTable, Zone

HourKind = Literal["offpeak", "peak"]
SplitMode = Literal["deterministic", "sampled"]

DEFAULT_HOURS: tuple[HourKind, ...] = ("offpeak", "peak", "peak", "offpeak")

# Left/through/right fractions applied within each approach when the demand
# spec does not override them. Through-dominant, and balanced so that equal
# zone weights give equal per-phase critical demand: the signal policies pair
# a left turn against the opposing (through+right)/2, which are equal exactly
# when left = (through + right) / 2, i.e. a one-third left share.
DEFAULT_TURN_FRACTIONS = (1 / 3, 1 / 2, 1 / 6)


@dataclass(frozen=True)
class BimodalProfile:
    """Two-level daily volume profile (vehicles/hour) with an hour-kind schedule."""

    mu_offpeak: float = 2500.0
    sigma_offpeak: float = 300.0
    mu_peak: float = 20000.0
    sigma_peak: float = 400.0
    hours: tuple[HourKind, ...] = DEFAULT_HOURS

    def __post_init__(self) -> None:
        if self.sigma_offpeak < 0 or self.sigma_peak < 0:
            raise ValueError("sigmas must be non-negative")
        for kind in self.hours:
            if kind not in ("offpeak", "peak"):
                raise ValueError(f"unknown hour kind {kind!r}")

    def params_for(self, kind: HourKind) -> tuple[float, float]:
        if kind == "peak":
            return self.mu_peak, self.sigma_peak
        return self.mu_offpeak, self.sigma_offpeak


@dataclass(frozen=True)
class ZonePattern:
    """Distribution weights for incoming flow, ordered (West, North, East, South)."""

    weights: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        for w in self.weights:
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"weights must lie in [0, 1], got {w}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")

    def __getitem__(self, zone: Zone) -> float:
        return self.weights[zone.index]


@dataclass(frozen=True)
class TurnRatio:
    """Per-zone (left, through, right) fractions of that zone's inflow."""

    by_zone: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.by_zone) != 4:
            raise ValueError("expected one (left, through, right) triple per zone")
        for triple in self.by_zone:
            if any(f < 0 for f in triple):
                raise ValueError("turn fractions must be non-negative")
            if abs(sum(triple) - 1.0) > 1e-9:
                raise ValueError(f"turn fractions must sum to 1, got {triple}")

    @classmethod
    def uniform(cls, left: float, through: float, right: float) -> TurnRatio:
        return cls(((left, through, right),) * 4)

    @classmethod
    def default(cls) -> TurnRatio:
        return cls.uniform(*DEFAULT_TURN_FRACTIONS)

    def for_zone(self, zone: Zone) -> tuple[float, float, float]:
        return self.by_zone[zone.index]


@dataclass(frozen=True)
class VehiclePlan:
    """A single vehicle: unique id, departure second, turning movement."""

    id: str
    depart: int
    movement: Movement

    def __post_init__(self) -> None:
        if self.depart < 0:
            raise ValueError("departure must be non-negative")


@dataclass(frozen=True)
class MinuteTmc:
    """Per-minute TMC tables covering the generated horizon."""

    tables: tuple[TmcTable, ...]

    def __len__(self) -> int:
        return len(self.tables)

    def __getitem__(self, minute: int) -> TmcTable:
        return self.tables[minute]

    @property
    def total(self) -> int:
        return sum(t.total for t in self.tables)


# --- named weight patterns ------------------------------------------------------------

# Base patterns weight two zones at 0.4 and two at 0.1; the complementary ones
# are their reflections through the "universal" half-weights (0.5 per zone).
PATTERNS: dict[str, ZonePattern] = {
    "PA": ZonePattern((0.25, 0.25, 0.25, 0.25)),
    "PB": ZonePattern((0.4, 0.4, 0.1, 0.1)),
    "PC": ZonePattern((0.4, 0.1, 0.4, 0.1)),
    "PD": ZonePattern((0.1, 0.4, 0.1, 0.4)),
    "PE": ZonePattern((0.1, 0.4, 0.4, 0.1)),
    "PF": ZonePattern((0.1, 0.1, 0.4, 0.4)),
    "PG": ZonePattern((0.4, 0.1, 0.1, 0.4)),
}

UNIVERSAL_WEIGHTS = (0.5, 0.5, 0.5, 0.5)


def pattern_library() -> dict[str, ZonePattern]:
    """The seven named zone-weight patterns PA..PG."""
    return dict(PATTERNS)


def hourly_counts(profile: BimodalProfile, seed) -> list[int]:
    """One rounded, zero-clamped normal draw per scheduled hour."""
    rng = np.random.default_rng(seed)
    out = []
    for kind in profile.hours:
        mu, sigma = profile.params_for(kind)
        out.append(max(0, int(round(rng.normal(mu, sigma)))))
    return out


def split_by_zone(
    total: int,
    pattern: ZonePattern,
    mode: SplitMode = "deterministic",
    seed=None,
) -> tuple[int, int, int, int]:
    """Split an hour's total into four zone counts; the total is always conserved."""
    if total < 0:
        raise ValueError("total must be non-negative")
    if mode == "deterministic":
        return tuple(proportional_split(pattern.weights, total))
    rng = np.random.default_rng(seed)
    return tuple(int(c) for c in rng.multinomial(total, pattern.weights))


def split_by_movement(
    zone_counts: Sequence[int],
    ratios: TurnRatio,
    mode: SplitMode = "deterministic",
    seed=None,
) -> TmcTable:
    """Apportion each zone's count into (left, through, right); totals preserved."""
    rng = np.random.default_rng(seed) if mode == "sampled" else None
    counts = [0] * 12
    for zone in Zone:
        n = int(zone_counts[zone.index])
        if n < 0:
            raise ValueError("zone counts must be non-negative")
        triple = ratios.for_zone(zone)
        if rng is None:
            parts = proportional_split(triple, n)
        else:
            parts = [int(c) for c in rng.multinomial(n, triple)]
        counts[3 * zone.index : 3 * zone.index + 3] = parts
    return TmcTable(tuple(counts))


def schedule_departures(hourly_tmcs: Sequence[TmcTable], seed) -> list[VehiclePlan]:
    """Assign each counted vehicle a uniform departure second within its hour.

    Output is sorted by departure time, ties broken by id; ids are unique and
    assigned in (hour, movement) order before sorting, so a fixed seed yields a
    bit-identical schedule.
    """
    rng = np.random.default_rng(seed)
    plans: list[VehiclePlan] = []
    serial = 0
    for hour, tmc in enumerate(hourly_tmcs):
        lo, hi = 3600 * hour, 3600 * (hour + 1)
        for movement in MOVEMENTS:
            n = tmc[movement]
            if n == 0:
                continue
            departs = rng.integers(lo, hi, size=n)
            for t in departs:
                plans.append(VehiclePlan(f"v{serial:06d}", int(t), movement))
                serial += 1
    plans.sort(key=lambda p: (p.depart, p.id))
    return plans


def aggregate_per_minute(plans: Sequence[VehiclePlan], minutes: int | None = None) -> MinuteTmc:
    """Bucket departures into per-minute TMC tables (minute m covers [60m, 60m+60))."""
    if minutes is None:
        minutes = 0 if not plans else max(p.depart for p in plans) // 60 + 1
    buckets = [[0] * 12 for _ in range(minutes)]
    last = -1
    for p in plans:
        if p.depart < last:
            raise ValueError("plans must be sorted by departure time")
        last = p.depart
        m = p.depart // 60
        if m < minutes:
            buckets[m][p.movement] += 1
    return MinuteTmc(tuple(TmcTable(tuple(b)) for b in buckets))


# --- demand spec + pipeline -----------------------------------------------------------


@dataclass(frozen=True)
class DemandSpec:
    """Everything needed to generate one reproducible demand scenario."""

    profile: BimodalProfile = field(default_factory=BimodalProfile)
    pattern: ZonePattern = PATTERNS["PA"]
    ratios: TurnRatio = field(default_factory=TurnRatio.default)
    seed: int = 0
    mode: SplitMode = "deterministic"


def generate_demand(spec: DemandSpec) -> tuple[list[VehiclePlan], MinuteTmc]:
    """Run the full pipeline: hourly draws -> zone split -> turn split -> departures.

    Each stage draws from its own stream spawned off the master seed, so the
    whole pipeline is deterministic per seed and stages stay independent.
    """
    ss = np.random.SeedSequence(spec.seed)
    s_hour, s_zone, s_move, s_depart = ss.spawn(4)
    totals = hourly_counts(spec.profile, s_hour)
    zone_seeds = s_zone.spawn(len(totals))
    move_seeds = s_move.spawn(len(totals))
    tables = []
    for h, total in enumerate(totals):
        zones = split_by_zone(total, spec.pattern, spec.mode, zone_seeds[h])
        tables.append(split_by_movement(zones, spec.ratios, spec.mode, move_seeds[h]))
    plans = schedule_departures(tables, s_depart)
    return plans, aggregate_per_minute(plans, minutes=60 * len(totals))


def parse_keyed(text: str) -> dict[str, str]:
    """Read ``key = value`` lines ('#' starts a comment) into a dict with lower-case keys.

    A line without '=' or a key given twice raises ``ValueError`` naming the line.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key in fields:
            raise ValueError(f"line {lineno}: key {key!r} given twice")
        fields[key] = value
    return fields


def profile_from_fields(fields: dict[str, str]) -> BimodalProfile:
    """Pop the profile keys out of parsed keyed text; absent keys keep the dataclass defaults."""
    kwargs: dict = {}
    for f in dataclasses.fields(BimodalProfile):
        if f.name in fields:
            value = fields.pop(f.name)
            kwargs[f.name] = tuple(value.replace(" ", "").split(",")) if f.name == "hours" else float(value)
    return BimodalProfile(**kwargs)


def parse_demand_spec(text: str) -> DemandSpec:
    """Parse the keyed-text demand file (``key = value`` lines, '#' comments)."""
    fields = parse_keyed(text)

    def floats(value: str) -> list[float]:
        return [float(v) for v in value.split(",")]

    profile = profile_from_fields(fields)
    if "pattern" in fields and "weights" in fields:
        raise ValueError("give either 'pattern' or 'weights', not both")
    if "weights" in fields:
        pattern = ZonePattern(tuple(floats(fields.pop("weights"))))
    else:
        name = fields.pop("pattern", "PA").upper()
        if name not in PATTERNS:
            raise ValueError(f"unknown pattern {name!r}; expected one of {sorted(PATTERNS)}")
        pattern = PATTERNS[name]
    if "turn_ratios" in fields:
        left, through, right = floats(fields.pop("turn_ratios"))
        ratios = TurnRatio.uniform(left, through, right)
    else:
        ratios = TurnRatio.default()
    spec = DemandSpec(
        profile=profile,
        pattern=pattern,
        ratios=ratios,
        seed=int(fields.pop("seed", 0)),
        mode=fields.pop("mode", "deterministic"),
    )
    if spec.mode not in ("deterministic", "sampled"):
        raise ValueError(f"unknown mode {spec.mode!r}")
    if fields:
        raise ValueError(f"unknown demand spec keys: {sorted(fields)}")
    return spec


def read_demand_spec(path: str | Path) -> DemandSpec:
    return parse_demand_spec(Path(path).read_text())


# --- CSV interchange ------------------------------------------------------------------

MINUTE_TMC_FIELDS = ("minute", *[m.name for m in MOVEMENTS])


def write_minute_tmc(minute_tmc: MinuteTmc, path: str | Path) -> None:
    """Export per-minute TMC as CSV with columns minute,WBL,...,SBR."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MINUTE_TMC_FIELDS)
        for minute, table in enumerate(minute_tmc.tables):
            writer.writerow([minute, *table.counts])


def read_minute_tmc(path: str | Path) -> MinuteTmc:
    rows: dict[int, TmcTable] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[int(row["minute"])] = TmcTable(
                tuple(int(row[m.name]) for m in MOVEMENTS)
            )
    if sorted(rows) != list(range(len(rows))):
        raise ValueError("minute column must cover 0..N-1 contiguously")
    return MinuteTmc(tuple(rows[m] for m in range(len(rows))))


def write_departures(plans: Iterable[VehiclePlan], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "depart", "movement"))
        for p in plans:
            writer.writerow((p.id, p.depart, p.movement.name))


def read_departures(path: str | Path) -> list[VehiclePlan]:
    plans = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            plans.append(
                VehiclePlan(row["id"], int(row["depart"]), Movement[row["movement"]])
            )
    return plans
