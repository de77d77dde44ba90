"""Domain vocabulary: zones, turning movements, geometry, count tables, capacity rates."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping


class Zone(IntEnum):
    """Approach region of the four-leg junction, numbered 1-4 (West, North, East, South)."""

    WEST = 1
    NORTH = 2
    EAST = 3
    SOUTH = 4

    @property
    def index(self) -> int:
        """Zero-based position used wherever a 4-vector is indexed by zone."""
        return self.value - 1

    @property
    def edge_in(self) -> str:
        """Inbound edge label, e.g. '1i' for the west approach."""
        return f"{self.value}i"

    @property
    def edge_out(self) -> str:
        """Outbound edge label, e.g. '2o' for the north exit."""
        return f"{self.value}o"


class Turn(IntEnum):
    LEFT = 0
    THROUGH = 1
    RIGHT = 2


# Quarter-turns from the origin zone, going clockwise W->N->E->S (right-hand traffic):
# a left turn exits one quarter clockwise, through is opposite, right is three quarters.
_TURN_STEP = {Turn.LEFT: 1, Turn.THROUGH: 2, Turn.RIGHT: 3}


class Movement(IntEnum):
    """One of the 12 turning movements, ordered by origin zone, then left/through/right.

    This definition order is the canonical 12-slot ordering used by CSV columns
    and signal state strings throughout the package.
    """

    WBL = 0
    WBT = 1
    WBR = 2
    NBL = 3
    NBT = 4
    NBR = 5
    EBL = 6
    EBT = 7
    EBR = 8
    SBL = 9
    SBT = 10
    SBR = 11

    @property
    def origin(self) -> Zone:
        """Zone whose branch the vehicle enters from (the 'XB' in the label)."""
        return Zone(self.value // 3 + 1)

    @property
    def turn(self) -> Turn:
        return Turn(self.value % 3)

    @property
    def destination(self) -> Zone:
        """Exit zone implied by the origin and the turn under right-hand traffic."""
        return Zone((self.origin.index + _TURN_STEP[self.turn]) % 4 + 1)


MOVEMENTS: tuple[Movement, ...] = tuple(Movement)


def movements_from(zone: Zone) -> tuple[Movement, ...]:
    """The three movements entering from ``zone``."""
    return MOVEMENTS[3 * zone.index : 3 * zone.index + 3]


def movements_into(zone: Zone) -> tuple[Movement, ...]:
    """The three movements whose destination is ``zone``."""
    return tuple(m for m in MOVEMENTS if m.destination is zone)


@dataclass(frozen=True)
class IntersectionGeometry:
    """Four-leg junction with per-zone inbound and outbound lane counts."""

    id: str
    lanes_in: tuple[int, int, int, int]
    lanes_out: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        for n in (*self.lanes_in, *self.lanes_out):
            if n < 1:
                raise ValueError(f"{self.id}: lane counts must be >= 1, got {n}")

    @property
    def total_lanes(self) -> int:
        return sum(self.lanes_in) + sum(self.lanes_out)

    def lanes_in_at(self, zone: Zone) -> int:
        return self.lanes_in[zone.index]

    def lanes_out_at(self, zone: Zone) -> int:
        return self.lanes_out[zone.index]


@dataclass(frozen=True)
class TmcTable:
    """Counts for the 12 turning movements (absent movements stored as 0)."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != 12:
            raise ValueError(f"expected 12 movement counts, got {len(self.counts)}")
        for c in self.counts:
            if c < 0:
                raise ValueError(f"movement counts must be non-negative, got {c}")

    @classmethod
    def zero(cls) -> TmcTable:
        return cls((0,) * 12)

    @classmethod
    def from_mapping(cls, counts: Mapping[Movement, int]) -> TmcTable:
        return cls(tuple(int(counts.get(m, 0)) for m in MOVEMENTS))

    def __getitem__(self, movement: Movement) -> int:
        return self.counts[movement]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class CapacityReport:
    """Per-zone inflow/outflow rates (count per lane) and the total capacity rate."""

    inflow_rates: tuple[int, int, int, int]
    outflow_rates: tuple[int, int, int, int]
    total_rate: int


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


def inflow_count(tmc: TmcTable, zone: Zone) -> int:
    """Total vehicles entering the junction from ``zone``."""
    return sum(tmc[m] for m in movements_from(zone))


def outflow_count(tmc: TmcTable, zone: Zone) -> int:
    """Total vehicles leaving the junction through ``zone``."""
    return sum(tmc[m] for m in movements_into(zone))


def zone_capacity_rates(geo: IntersectionGeometry, tmc: TmcTable) -> CapacityReport:
    """Per-zone count-per-lane rates and the intersection-wide total rate."""
    inflow = tuple(
        round_half_away(inflow_count(tmc, z) / geo.lanes_in_at(z)) for z in Zone
    )
    outflow = tuple(
        round_half_away(outflow_count(tmc, z) / geo.lanes_out_at(z)) for z in Zone
    )
    total = round_half_away(tmc.total / geo.total_lanes)
    return CapacityReport(inflow, outflow, total)


# --- geometry / TMC file interchange -------------------------------------------------

GEOMETRY_FIELDS = (
    "id",
    "lanes_1i",
    "lanes_1o",
    "lanes_2i",
    "lanes_2o",
    "lanes_3i",
    "lanes_3o",
    "lanes_4i",
    "lanes_4o",
)


def _bundled(name: str):
    return resources.files(__package__).joinpath("data").joinpath(name)


def read_geometries(path: str | Path | None = None) -> dict[str, IntersectionGeometry]:
    """Load intersection geometries from a CSV config (bundled fixtures when ``path`` is None)."""
    source = Path(path).read_text() if path is not None else _bundled("intersections.csv").read_text()
    out: dict[str, IntersectionGeometry] = {}
    reader = csv.DictReader(source.splitlines())
    missing = set(GEOMETRY_FIELDS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"geometry file missing columns: {sorted(missing)}")
    for row in reader:
        geo = IntersectionGeometry(
            id=row["id"],
            lanes_in=tuple(int(row[f"lanes_{z.value}i"]) for z in Zone),
            lanes_out=tuple(int(row[f"lanes_{z.value}o"]) for z in Zone),
        )
        out[geo.id] = geo
    return out


def write_geometries(geos: Iterable[IntersectionGeometry], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GEOMETRY_FIELDS)
        for g in geos:
            row: list[object] = [g.id]
            for z in Zone:
                row += [g.lanes_in_at(z), g.lanes_out_at(z)]
            writer.writerow(row)


def read_tmc_tables(path: str | Path | None = None) -> dict[str, TmcTable]:
    """Load per-intersection hourly TMC tables (bundled observed counts when ``path`` is None)."""
    source = Path(path).read_text() if path is not None else _bundled("tmc_counts.csv").read_text()
    out: dict[str, TmcTable] = {}
    reader = csv.DictReader(source.splitlines())
    for row in reader:
        out[row["id"]] = TmcTable(tuple(int(row[m.name]) for m in MOVEMENTS))
    return out
