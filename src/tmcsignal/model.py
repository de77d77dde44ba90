"""Domain vocabulary: zones, turning movements, geometry, capacity rates, CSV interchange.

Twelve movement counts are one row of an int64 (n, 12) matrix, columns in
``Movement`` order (WBL..SBR), and per-zone sums are array expressions on it.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources
from itertools import groupby, islice
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np


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
MOVEMENT_NAMES: tuple[str, ...] = tuple(m.name for m in MOVEMENTS)


class _MovementIndex(dict):
    def __missing__(self, name):
        raise ValueError(f"unknown movement label {name!r}")


# Movement label -> movement value; ``MOVEMENT_INDEX[name]`` raises ``ValueError`` for an unknown label.
MOVEMENT_INDEX: dict[str, int] = _MovementIndex((name, value) for value, name in enumerate(MOVEMENT_NAMES))


# Past this a lane count's share of a zone and its service rate stop being
# finite floats; no real approach comes near it.
MAX_LANES = 2**31


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
            if n >= MAX_LANES:
                raise ValueError(f"{self.id}: lane counts must be below 2**31, got {n}")


# Movement columns grouped by destination: row z lists the three movements
# that leave the junction through zone z + 1.
_INTO_ZONE = np.array([[m for m in MOVEMENTS if m.destination is zone] for zone in Zone])


def zone_capacity_rates(lanes_in, lanes_out, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inflow, outflow and total count-per-lane rates of an (n, 12) count matrix, each int64.

    ``lanes_in`` and ``lanes_out`` are (n, 4) lane counts, or one (4,) row for
    every count row. The (n, 4) inflow rates count vehicles entering from each
    zone per inbound lane, the (n, 4) outflow rates those leaving through it
    per outbound lane, and the (n,) total rates every count over every lane:
    the paper's vehicles-per-lane ratio. Float64 quotients round halves up.
    """
    counts = np.asarray(counts, dtype=np.int64)
    quotients = (
        counts.reshape(-1, 4, 3).sum(axis=2) / np.asarray(lanes_in),
        counts[:, _INTO_ZONE].sum(axis=2) / np.asarray(lanes_out),
        counts.sum(axis=1) / (np.sum(lanes_in, axis=-1) + np.sum(lanes_out, axis=-1)),
    )
    return tuple(np.floor(q + 0.5).astype(np.int64) for q in quotients)


# --- File interchange ---------------------------------------------------------------


T = TypeVar("T")


def read_text(path: str | Path) -> str:
    """The file's UTF-8 text; ``ValueError`` naming the file and the line of its first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: {exc}") from None


def parse_file(path: str | Path, parse: Callable[[str], T]) -> T:
    """``parse`` of the file's ``read_text``; its ``ValueError`` is raised again prefixed with ``<path>: ``."""
    text = read_text(path)
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write ``header`` and then ``rows`` as one CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Rows a CSV reader holds at once. Each chunk's fields move into the columns
# and its rows are dropped. A chunk stays below the 700 allocations between two
# young garbage collections, so few rows live long enough to reach the old
# generation, whose growth is what triggers a full collection.
_CHUNK_ROWS = 512


def read_csv(path: str | Path, *headers: tuple[str, ...]) -> tuple[tuple[str, ...], list[list[str]]]:
    """The header and the columns of a CSV file whose header must be one of ``headers``.

    Column k lists field k of every row after the header, in file order.
    Raises ``ValueError`` naming the file for another header, or naming the
    line for a row with another field count, a field past the csv module's
    size limit or a byte that is not UTF-8.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader, ()))
            if header not in headers:
                expected = " or ".join(",".join(h) for h in headers)
                raise ValueError(f"{path}: header {','.join(header)!r} is not {expected!r}")
            columns: list[list[str]] = [[] for _ in header]
            line = 2
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                if set(map(len, chunk)) != {len(header)}:
                    bad = next(k for k, row in enumerate(chunk) if len(row) != len(header))
                    raise ValueError(f"{path}, line {line + bad}: expected {len(header)} fields, got {len(chunk[bad])}")
                for column, values in zip(columns, zip(*chunk)):
                    column.extend(values)
                line += len(chunk)
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            # The stream counts the bad byte's position from the start of the
            # chunk it decodes; reading the file whole names the line.
            read_text(path)
            raise
    return header, columns


def convert_column(path: str | Path, values: Sequence, convert: Callable[..., T]) -> list[T]:
    """``convert(value)`` for each value of a ``read_csv`` column, in one ``map``.

    A ``ValueError`` from ``convert``, e.g. a field that is not a number, is
    raised again prefixed with ``<path>, line <n>:``, n being the line of the
    first value that raises.
    """
    try:
        return list(map(convert, values))
    except ValueError:
        for line, value in enumerate(values, start=2):
            try:
                convert(value)
            except ValueError as exc:
                raise ValueError(f"{path}, line {line}: {exc}") from exc
        raise


# Counts lie in [0, 2**32): int64 sums over any (n, 12) matrix of under 2**27
# rows stay exact, and so does a float64 rate of three or twelve counts.
MAX_COUNT = 2**32


def _count(text: str) -> int:
    count = int(text)
    if not 0 <= count < MAX_COUNT:
        raise ValueError(f"count must lie in [0, 2**32), got {count}")
    return count


def count_matrix(path: str | Path, columns: Sequence[Sequence[str]]) -> np.ndarray:
    """The int64 (rows, 12) matrix of 12 ``read_csv`` columns of counts in [0, 2**32); ``ValueError`` names the line."""
    return np.array([convert_column(path, column, _count) for column in columns], dtype=np.int64).T


def movement_named(name: str) -> Movement:
    """The movement labelled ``name`` (e.g. 'WBT'); ``ValueError`` for an unknown label."""
    return MOVEMENTS[MOVEMENT_INDEX[name]]


def check_unique_ids(path: str | Path, ids: Sequence[str]) -> None:
    """Raise ``ValueError`` naming an id of the column ``ids`` given more than once."""
    if len(set(ids)) != len(ids):
        repeated = next(key for key, n in Counter(ids).items() if n > 1)
        raise ValueError(f"{path}: id {repeated!r} appears more than once")


def check_minutes(path: str | Path, minutes: Sequence[str]) -> None:
    """Raise ``ValueError`` unless the column ``minutes`` counts 0, 1, 2, ... in order."""
    for minute, text in enumerate(minutes):
        if text != str(minute):
            raise ValueError(f"{path}, line {minute + 2}: minute {text!r}, expected {minute}")


def group_rows(path: str | Path, keys: Sequence[str]) -> dict[str, slice]:
    """Each key's run of rows in the column ``keys``, as a slice; ``ValueError`` when one key's rows are split apart."""
    groups: dict[str, slice] = {}
    start = 0
    for key, run in groupby(keys):
        if key in groups:
            raise ValueError(f"{path}: the rows of {key!r} are not contiguous")
        stop = start + len(list(run))
        groups[key] = slice(start, stop)
        start = stop
    return groups


GEOMETRY_FIELDS = ("id", *(f"lanes_{z.value}{side}" for z in Zone for side in "io"))
TMC_TABLE_FIELDS = ("id", *(m.name for m in MOVEMENTS))


def _bundled(name: str):
    return resources.files(__package__).joinpath("data").joinpath(name)


def read_geometries(path: str | Path | None = None) -> dict[str, IntersectionGeometry]:
    """Load intersection geometries from a CSV config (bundled fixtures when ``path`` is None).

    Header ``id,lanes_1i,lanes_1o,...,lanes_4o``. ``ValueError`` for another header or
    field count, an id given twice, or a lane count that is not an integer in [1, 2**31).
    """
    source = path if path is not None else _bundled("intersections.csv")
    _, (ids, *lanes) = read_csv(source, GEOMETRY_FIELDS)
    check_unique_ids(source, ids)
    lanes = [convert_column(source, column, int) for column in lanes]
    rows = list(zip(ids, zip(*lanes[0::2]), zip(*lanes[1::2])))
    geometries = convert_column(source, rows, lambda row: IntersectionGeometry(*row))
    return {geo.id: geo for geo in geometries}


def write_geometries(geos: Iterable[IntersectionGeometry], path: str | Path) -> None:
    rows = ([g.id, *(n for pair in zip(g.lanes_in, g.lanes_out) for n in pair)] for g in geos)
    write_csv(path, GEOMETRY_FIELDS, rows)


def read_tmc_tables(path: str | Path | None = None) -> tuple[tuple[str, ...], np.ndarray]:
    """Load per-intersection hourly TMC tables (bundled observed counts when ``path`` is None).

    Returns the ids in file order and a read-only int64 (ids, 12) matrix, row k
    counting id k's movements WBL..SBR. Header ``id,WBL,WBT,...,SBR``.
    ``ValueError`` for another header or field count, an id given twice, or a
    count that is not an integer in [0, 2**32).
    """
    source = path if path is not None else _bundled("tmc_counts.csv")
    _, (ids, *counts) = read_csv(source, TMC_TABLE_FIELDS)
    check_unique_ids(source, ids)
    counts = count_matrix(source, counts)
    counts.flags.writeable = False
    return tuple(ids), counts
