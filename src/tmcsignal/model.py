"""Domain vocabulary: zones, turning movements, geometry, count tables, capacity rates."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar


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
_MOVEMENT_NAMED = {m.name: m for m in MOVEMENTS}


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


# --- CSV file interchange -----------------------------------------------------------


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write ``header`` and then ``rows`` as one CSV file."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str | Path, *headers: tuple[str, ...]) -> tuple[tuple[str, ...], list[list[str]]]:
    """The header and the rows of a CSV file whose header must be one of ``headers``.

    Raises ``ValueError`` naming the file for another header, or naming the line
    for a row with another field count.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header not in headers:
            expected = " or ".join(",".join(h) for h in headers)
            raise ValueError(f"{path}: header {','.join(header)!r} is not {expected!r}")
        rows = list(reader)
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}, line {line}: expected {len(header)} fields, got {len(row)}")
    return header, rows


T = TypeVar("T")


def convert_rows(path: str | Path, rows: Sequence[Sequence[str]], convert: Callable[[Sequence[str]], T]) -> list[T]:
    """``convert(row)`` for each row of a ``read_csv`` result.

    A ``ValueError`` from ``convert``, e.g. a field that is not a number, is
    raised again prefixed with ``<path>, line <n>:``.
    """
    out = []
    for line, row in enumerate(rows, start=2):
        try:
            out.append(convert(row))
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from exc
    return out


def movement_named(name: str) -> Movement:
    """The movement labelled ``name`` (e.g. 'WBT'); ``ValueError`` for an unknown label."""
    try:
        return _MOVEMENT_NAMED[name]
    except KeyError:
        raise ValueError(f"unknown movement label {name!r}") from None


def check_unique_ids(path: str | Path, rows: Sequence[Sequence[str]]) -> None:
    """Raise ``ValueError`` naming an id (a row's first field) given more than once."""
    if repeated := [key for key, n in Counter(row[0] for row in rows).items() if n > 1]:
        raise ValueError(f"{path}: id {repeated[0]!r} appears more than once")


def check_minutes(path: str | Path, rows: Sequence[Sequence[str]]) -> None:
    """Raise ``ValueError`` unless the rows' first fields count minutes 0, 1, 2, ... in order."""
    for minute, row in enumerate(rows):
        if row[0] != str(minute):
            raise ValueError(f"{path}, line {minute + 2}: minute {row[0]!r}, expected {minute}")


def group_rows(path: str | Path, rows: Sequence[Sequence]) -> dict[str, list[Sequence]]:
    """Rows grouped by their first field; ``ValueError`` when one key's rows are split apart."""
    groups: dict[str, list[Sequence]] = {}
    for key, group in groupby(rows, itemgetter(0)):
        if key in groups:
            raise ValueError(f"{path}: the rows of {key!r} are not contiguous")
        groups[key] = list(group)
    return groups


GEOMETRY_FIELDS = ("id", *(f"lanes_{z.value}{side}" for z in Zone for side in "io"))
TMC_TABLE_FIELDS = ("id", *(m.name for m in MOVEMENTS))


def _bundled(name: str):
    return resources.files(__package__).joinpath("data").joinpath(name)


def read_geometries(path: str | Path | None = None) -> dict[str, IntersectionGeometry]:
    """Load intersection geometries from a CSV config (bundled fixtures when ``path`` is None).

    Header ``id,lanes_1i,lanes_1o,...,lanes_4o``. ``ValueError`` for another header or
    field count, an id given twice, or a lane count that is not an integer >= 1.
    """
    source = path if path is not None else _bundled("intersections.csv")
    _, rows = read_csv(source, GEOMETRY_FIELDS)
    check_unique_ids(source, rows)
    geometries = convert_rows(
        source,
        rows,
        lambda row: IntersectionGeometry(row[0], tuple(map(int, row[1::2])), tuple(map(int, row[2::2]))),
    )
    return {geo.id: geo for geo in geometries}


def write_geometries(geos: Iterable[IntersectionGeometry], path: str | Path) -> None:
    rows = ([g.id, *(n for z in Zone for n in (g.lanes_in_at(z), g.lanes_out_at(z)))] for g in geos)
    write_csv(path, GEOMETRY_FIELDS, rows)


def read_tmc_tables(path: str | Path | None = None) -> dict[str, TmcTable]:
    """Load per-intersection hourly TMC tables (bundled observed counts when ``path`` is None).

    Header ``id,WBL,WBT,...,SBR``. ``ValueError`` for another header or field
    count, an id given twice, or a count that is not an integer >= 0.
    """
    source = path if path is not None else _bundled("tmc_counts.csv")
    _, rows = read_csv(source, TMC_TABLE_FIELDS)
    check_unique_ids(source, rows)
    return dict(convert_rows(source, rows, lambda row: (row[0], TmcTable(tuple(map(int, row[1:]))))))
