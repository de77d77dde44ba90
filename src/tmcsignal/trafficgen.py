"""Bimodal daily demand: hourly totals, zone/turn splits, departures, per-minute TMC.

Counts are int64 (n, 12) matrices, a column per movement (WBL..SBR): one row
per hour for the drawn demand, one per minute for its TMC, which the CSV file
holds and the signal policies and the RL allocator read.

The hourly totals are one normal draw over the schedule. Each split after it,
totals over the zone weights and zone counts over the turn fractions, is one
apportionment of a count matrix (``split_counts``).

Departures are held as columns. A ``Departures`` keeps three arrays, in
departure order: the departure seconds (int64), the movements (int8) and the
ids. Generated demand keeps its ids as serial numbers and spells them
``v{serial:06d}`` only when a writer asks; a departures file or a route file
read back keeps its ids as read. Counting, simulating and writing all read
the columns; there is no per-vehicle object.

The schedule is ordered by (departure second, id string). Below serial
1,000,000 every id has the same width, so that is serial order among equal
seconds. Wider ids compare as strings ('v1000000' < 'v999999'), and the sort
keeps that order too.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, get_args

import numpy as np

from tmcsignal.apportion import largest_remainder, row_sums
from tmcsignal.model import MAX_COUNT, MOVEMENT_INDEX, MOVEMENT_NAMES, MOVEMENTS, parse_file
from tmcsignal.model import check_minutes, check_unique_ids, convert_column, count_matrix, read_csv, write_csv

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
    """Two-level daily volume profile (vehicles/hour) with an hour-kind schedule.

    ``ValueError`` for a mean or sigma that is not finite or not below
    ``MAX_COUNT`` (2**32), a negative sigma or an unknown hour kind.
    """

    mu_offpeak: float = 2500.0
    sigma_offpeak: float = 300.0
    mu_peak: float = 20000.0
    sigma_peak: float = 400.0
    hours: tuple[HourKind, ...] = DEFAULT_HOURS

    def __post_init__(self) -> None:
        for name in ("mu_offpeak", "sigma_offpeak", "mu_peak", "sigma_peak"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            # Hourly totals are drawn around it and apportioned as int64 counts.
            if value >= MAX_COUNT:
                raise ValueError(f"{name} must be below 2**32, got {value}")
        if self.sigma_offpeak < 0 or self.sigma_peak < 0:
            raise ValueError("sigmas must be non-negative")
        for kind in self.hours:
            if kind not in ("offpeak", "peak"):
                raise ValueError(f"unknown hour kind {kind!r}")

    @property
    def peak_minutes(self) -> frozenset[int]:
        """The minutes of the peak hours, counted from the start of the schedule."""
        return frozenset(60 * h + m for h, kind in enumerate(self.hours) if kind == "peak" for m in range(60))


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


@dataclass(frozen=True)
class TurnRatio:
    """Per-zone (left, through, right) fractions of that zone's inflow."""

    by_zone: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.by_zone) != 4:
            raise ValueError("expected one (left, through, right) triple per zone")
        for triple in self.by_zone:
            if not all(map(math.isfinite, triple)):
                raise ValueError(f"turn fractions must be finite, got {triple}")
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


class Departures:
    """Vehicles as three columns: ``departs`` (int64), ``movements`` (int8) and the ids.

    The ids are either an int64 array of serials, spelled ``v{serial:06d}``, or
    a tuple of id strings. Two ``Departures`` are equal when their columns are,
    the ids compared as spelled.
    """

    def __init__(self, departs: Sequence[int], movements: Sequence[int], ids: np.ndarray | tuple[str, ...]):
        if not len(departs) == len(movements) == len(ids):
            raise ValueError(f"column lengths differ: {len(departs)}, {len(movements)}, {len(ids)}")
        self.departs = np.asarray(departs, dtype=np.int64)
        self.movements = np.asarray(movements, dtype=np.int8)
        self._ids = ids
        if np.any(self.departs < 0):
            raise ValueError("departure must be non-negative")

    @property
    def ids(self) -> list[str]:
        if isinstance(self._ids, np.ndarray):
            return ["v%06d" % serial for serial in self._ids.tolist()]
        return list(self._ids)

    def check_sorted(self) -> None:
        """Raise ``ValueError`` unless the departures never decrease."""
        if np.any(self.departs[1:] < self.departs[:-1]):
            raise ValueError("vehicle plans must be sorted by departure time")

    def __len__(self) -> int:
        return len(self.departs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Departures):
            return NotImplemented
        return (
            np.array_equal(self.departs, other.departs)
            and np.array_equal(self.movements, other.movements)
            and self.ids == other.ids
        )


@dataclass(frozen=True)
class TmcTable:
    """One minute of a ``MinuteTmc``: its 12 movement counts as a tuple of ints, none negative."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != 12 or min(self.counts) < 0:
            raise ValueError(f"expected 12 non-negative movement counts, got {self.counts}")

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True, eq=False)
class MinuteTmc:
    """Per-minute TMC: ``counts`` is a read-only int64 (minutes, 12) array, row m counting minute m.

    ``ValueError`` unless the counts form a 2-D array of 12 columns of integers
    within int64, none negative; no minutes is shape (0, 12). The same form
    holds one row of counts, such as a classified trajectory file's tally.
    ``minute_tmc[m]`` is row m as a ``TmcTable``.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.array(self.counts)
        if counts.ndim != 2 or counts.shape[1] != 12:
            raise ValueError(f"counts must be a (minutes, 12) array, got shape {counts.shape}")
        if counts.dtype.kind not in "iu" or not np.can_cast(counts.dtype, np.int64):
            raise ValueError("counts must be integers within int64")
        if np.any(counts < 0):
            raise ValueError("movement counts must be non-negative")
        counts = counts.astype(np.int64, copy=False)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, minute: int) -> TmcTable:
        return TmcTable(tuple(self.counts[minute].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MinuteTmc):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


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


def split_counts(counts, fractions, mode: SplitMode = "deterministic", seeds=()) -> np.ndarray:
    """Split count j of each row of the (rows, k) ``counts`` by row j of the (k, parts) ``fractions``, of positive sums.

    Returns the int64 (rows, k * parts) parts; every count is conserved.
    Deterministic: one largest-remainder call on ``fraction / row sum * count``.
    Sampled: row r is one multinomial call on a Generator seeded with ``seeds[r]``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    fractions = np.asarray(fractions, dtype=np.float64)
    (rows, k), parts = counts.shape, fractions.shape[1]
    if mode == "deterministic":
        quotas = fractions / row_sums(fractions)[:, None] * counts[..., None]
        split = largest_remainder(quotas.reshape(rows * k, parts), counts.ravel())
    else:
        draws = [np.random.default_rng(seed).multinomial(row, fractions) for row, seed in zip(counts, seeds)]
        split = np.array(draws, dtype=np.int64)
    return split.reshape(rows, k * parts)


def schedule_departures(hourly: np.ndarray, seed) -> Departures:
    """Assign each vehicle of an (hours, 12) count matrix a uniform departure second within its hour.

    Serials are assigned in row-major (hour, movement) order, one
    ``rng.integers`` draw per nonzero count, so a fixed seed yields a
    bit-identical schedule. The output is sorted by departure second, ties
    broken by id string.
    """
    rng = np.random.default_rng(seed)
    counts = np.asarray(hourly, dtype=np.int64)
    hours, movements = np.nonzero(counts)
    sizes = counts[hours, movements]
    draws = [rng.integers(3600 * h, 3600 * (h + 1), size=n) for h, n in zip(hours.tolist(), sizes.tolist())]
    departs = np.concatenate([np.empty(0, dtype=np.int64), *draws])
    movements = np.repeat(movements.astype(np.int8), sizes)
    serials = np.arange(len(departs), dtype=np.int64)
    order = departure_order(departs, serials)
    return Departures(departs[order], movements[order], serials[order])


def departure_order(departs: np.ndarray, serials: np.ndarray) -> np.ndarray:
    """Indices that sort vehicles by (departure, id string), the ids being ``v{serial:06d}``.

    While every serial is below 1,000,000 the ids share one width and compare
    as the serials do; past it they compare as strings, 'v1000000' < 'v999999'.
    """
    if serials.size and serials.max() >= 10**6:
        return np.lexsort((np.array([f"v{s:06d}" for s in serials.tolist()]), departs))
    return np.lexsort((serials, departs))


def aggregate_per_minute(plans: Departures, minutes: int | None = None) -> MinuteTmc:
    """Count departures per minute and movement (minute m covers [60m, 60m+60))."""
    plans.check_sorted()
    if minutes is None:
        minutes = int(plans.departs[-1]) // 60 + 1 if len(plans) else 0
    inside = plans.departs < 60 * minutes
    cells = plans.departs[inside] // 60 * 12 + plans.movements[inside]
    return MinuteTmc(np.bincount(cells, minlength=12 * minutes).reshape(minutes, 12))


# --- demand spec + pipeline -----------------------------------------------------------


@dataclass(frozen=True)
class DemandSpec:
    """Everything needed to generate one reproducible demand scenario."""

    profile: BimodalProfile = field(default_factory=BimodalProfile)
    pattern: ZonePattern = PATTERNS["PA"]
    ratios: TurnRatio = field(default_factory=TurnRatio.default)
    seed: int = 0
    mode: SplitMode = "deterministic"

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.mode not in get_args(SplitMode):
            raise ValueError(f"unknown mode {self.mode!r}")


def generate_demand(spec: DemandSpec) -> tuple[Departures, MinuteTmc]:
    """Run the full pipeline: hourly draws -> zone split -> turn split -> departures.

    Each stage draws from its own stream spawned off the master seed, and a
    sampled split from one stream per hour spawned off its stage's, so the
    whole pipeline is deterministic per seed and stages stay independent.
    """
    s_hour, s_zone, s_move, s_depart = np.random.SeedSequence(spec.seed).spawn(4)
    profile = spec.profile
    peak = np.array(profile.hours, dtype=str) == "peak"
    mu = np.where(peak, profile.mu_peak, profile.mu_offpeak)
    sigma = np.where(peak, profile.sigma_peak, profile.sigma_offpeak)
    totals = np.maximum(np.rint(np.random.default_rng(s_hour).normal(mu, sigma)), 0).astype(np.int64)
    hours = len(totals)
    zones = split_counts(totals[:, None], [spec.pattern.weights], spec.mode, s_zone.spawn(hours))
    hourly = split_counts(zones, spec.ratios.by_zone, spec.mode, s_move.spawn(hours))
    plans = schedule_departures(hourly, s_depart)
    return plans, aggregate_per_minute(plans, minutes=60 * hours)


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
    if fields:
        raise ValueError(f"unknown demand spec keys: {sorted(fields)}")
    return spec


def read_demand_spec(path: str | Path) -> DemandSpec:
    """``parse_demand_spec`` on a file; its ``ValueError`` names the file."""
    return parse_file(path, parse_demand_spec)


# --- CSV interchange ------------------------------------------------------------------

MINUTE_TMC_FIELDS = ("minute", *[m.name for m in MOVEMENTS])
DEPARTURE_FIELDS = ("id", "depart", "movement")
MAX_DEPART = np.iinfo(np.int64).max


def write_minute_tmc(minute_tmc: MinuteTmc, path: str | Path) -> None:
    """Export per-minute TMC as CSV with columns minute,WBL,...,SBR, one row per minute."""
    rows = ([minute, *counts] for minute, counts in enumerate(minute_tmc.counts.tolist()))
    write_csv(path, MINUTE_TMC_FIELDS, rows)


def read_minute_tmc(path: str | Path) -> MinuteTmc:
    """Read a per-minute TMC CSV with header ``minute,WBL,WBT,...,SBR``.

    ``ValueError`` for another header or field count, minutes that do not count
    0, 1, 2, ... in order, or a count that is not an integer in [0, 2**32), a
    bound that keeps int64 sums over any stream under 2**27 minutes exact.
    """
    _, (minutes, *counts) = read_csv(path, MINUTE_TMC_FIELDS)
    check_minutes(path, minutes)
    return MinuteTmc(count_matrix(path, counts))


def write_departures(plans: Departures, path: str | Path) -> None:
    names = list(map(MOVEMENT_NAMES.__getitem__, plans.movements.tolist()))
    write_csv(path, DEPARTURE_FIELDS, zip(plans.ids, plans.departs.tolist(), names))


def read_departures(path: str | Path) -> Departures:
    """Read a departures CSV with header ``id,depart,movement``; the ids are kept as read.

    ``ValueError`` for another header or field count, an id given twice, a
    departure that is not an integer in [0, 2**63), or an unknown movement label.
    """
    _, (ids, departs, names) = read_csv(path, DEPARTURE_FIELDS)
    check_unique_ids(path, ids)
    departs = convert_column(path, departs, int)
    if departs and not (0 <= min(departs) and max(departs) <= MAX_DEPART):
        line, depart = next((line, d) for line, d in enumerate(departs, start=2) if not 0 <= d <= MAX_DEPART)
        raise ValueError(f"{path}, line {line}: departure must lie in [0, {MAX_DEPART}], got {depart}")
    return Departures(departs, convert_column(path, names, MOVEMENT_INDEX.__getitem__), tuple(ids))
