"""Tests for the domain vocabulary and capacity-rate analytics."""

from __future__ import annotations

import csv
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcsignal import model
from tmcsignal.model import (
    MOVEMENTS,
    TMC_TABLE_FIELDS,
    IntersectionGeometry,
    Movement,
    TmcTable,
    Zone,
    inflow_count,
    movement_named,
    movements_into,
    outflow_count,
    read_csv,
    read_geometries,
    read_tmc_tables,
    round_half_away,
    write_csv,
    zone_capacity_rates,
)

# Published per-zone rates (C1i,C1o,...,C4i,C4o) and total rate for the six
# bundled intersections; reproduction tolerance is +/-1 per cell.
EXPECTED_RATES = {
    "INT1": ((84, 414), (241, 387), (226, 58), (124, 252), 103),
    "INT2": ((60, 206), (33, 47), (150, 71), (29, 16), 44),
    "INT3": ((320, 312), (235, 920), (181, 393), (528, 413), 189),
    "INT4": ((73, 503), (140, 242), (155, 147), (141, 160), 84),
    "INT5": ((388, 1946), (954, 761), (1175, 1451), (569, 1001), 483),
    "INT6": ((447, 555), (684, 456), (533, 1795), (198, 381), 294),
}

tmc_tables = st.builds(TmcTable, st.tuples(*[st.integers(0, 5000)] * 12))


@pytest.fixture(scope="module")
def fixtures():
    return read_geometries(), read_tmc_tables()


def test_zone_ordering_and_labels():
    assert [z.name for z in Zone] == ["WEST", "NORTH", "EAST", "SOUTH"]
    assert Zone.WEST < Zone.NORTH < Zone.EAST < Zone.SOUTH
    assert Zone.WEST.edge_in == "1i" and Zone.SOUTH.edge_out == "4o"


def test_movement_origins():
    for m in MOVEMENTS:
        assert m.name.startswith(m.origin.name[0] + "B")


def test_movement_destinations():
    expected = {
        "WBL": Zone.NORTH, "WBT": Zone.EAST, "WBR": Zone.SOUTH,
        "NBL": Zone.EAST, "NBT": Zone.SOUTH, "NBR": Zone.WEST,
        "EBL": Zone.SOUTH, "EBT": Zone.WEST, "EBR": Zone.NORTH,
        "SBL": Zone.WEST, "SBT": Zone.NORTH, "SBR": Zone.EAST,
    }
    assert {m.name: m.destination for m in MOVEMENTS} == expected


def test_north_outflow_composition():
    # The north-exit tally must aggregate WBL, EBR and SBT.
    assert movements_into(Zone.NORTH) == (Movement.WBL, Movement.EBR, Movement.SBT)


def test_geometry_invariants():
    geo = IntersectionGeometry("X", (6, 5, 6, 6), (4, 3, 4, 3))
    assert geo.total_lanes == 37
    with pytest.raises(ValueError):
        IntersectionGeometry("bad", (0, 1, 1, 1), (1, 1, 1, 1))
    assert IntersectionGeometry("wide", (2**31 - 1, 1, 1, 1), (1, 1, 1, 1)).lanes_in[0] == 2**31 - 1
    with pytest.raises(ValueError, match="below 2"):
        IntersectionGeometry("bad", (1, 1, 1, 1), (1, 1, 1, 2**31))


def test_tmc_table_validation():
    assert TmcTable.zero().total == 0
    with pytest.raises(ValueError):
        TmcTable((1,) * 11)
    with pytest.raises(ValueError):
        TmcTable((-1,) + (0,) * 11)


def test_inflow_count_examples(fixtures):
    _, tmcs = fixtures
    assert inflow_count(tmcs["INT1"], Zone.NORTH) == 233 + 757 + 214
    assert inflow_count(TmcTable.zero(), Zone.WEST) == 0
    assert inflow_count(tmcs["INT2"], Zone.EAST) == 8 + 744 + 0


def test_outflow_count_examples(fixtures):
    _, tmcs = fixtures
    assert outflow_count(tmcs["INT1"], Zone.NORTH) == 505 + 10 + 645
    assert outflow_count(TmcTable.zero(), Zone.NORTH) == 0
    assert outflow_count(tmcs["INT1"], Zone.WEST) == 214 + 1345 + 99


def test_round_half_away():
    assert round_half_away(240.8) == 241
    assert round_half_away(414.5) == 415
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(2.0) == 2


def test_capacity_rate_examples(fixtures):
    geos, tmcs = fixtures
    r1 = zone_capacity_rates(geos["INT1"], tmcs["INT1"])
    assert r1.inflow_rates[Zone.NORTH.index] == 241
    assert r1.outflow_rates[Zone.NORTH.index] == 387
    assert r1.total_rate == 103
    assert zone_capacity_rates(geos["INT5"], tmcs["INT5"]).total_rate == 483
    rz = zone_capacity_rates(geos["INT1"], TmcTable.zero())
    assert rz.inflow_rates == rz.outflow_rates == (0, 0, 0, 0)
    assert rz.total_rate == 0


def test_capacity_rates_reproduce_published_table(fixtures):
    geos, tmcs = fixtures
    for key, (west, north, east, south, tc) in EXPECTED_RATES.items():
        report = zone_capacity_rates(geos[key], tmcs[key])
        got = list(zip(report.inflow_rates, report.outflow_rates))
        for zone, (want_in, want_out) in zip(Zone, (west, north, east, south)):
            gi, go = got[zone.index]
            assert abs(gi - want_in) <= 1, f"{key} C{zone.value}i: {gi} vs {want_in}"
            assert abs(go - want_out) <= 1, f"{key} C{zone.value}o: {go} vs {want_out}"
        assert abs(report.total_rate - tc) <= 1, f"{key} TC: {report.total_rate} vs {tc}"


@given(tmc_tables)
def test_partition_property(tmc):
    # Every movement has exactly one origin and one destination.
    assert sum(inflow_count(tmc, z) for z in Zone) == tmc.total
    assert sum(outflow_count(tmc, z) for z in Zone) == tmc.total


@given(tmc_tables, st.sampled_from(MOVEMENTS), st.integers(1, 500))
def test_total_rate_monotone_in_any_movement(tmc, movement, k):
    geo = IntersectionGeometry("X", (6, 5, 6, 6), (4, 3, 4, 3))
    bumped = TmcTable(
        tuple(c + k if i == movement else c for i, c in enumerate(tmc.counts))
    )
    before = zone_capacity_rates(geo, tmc).total_rate
    after = zone_capacity_rates(geo, bumped).total_rate
    assert after >= before


def test_geometry_roundtrip(tmp_path, fixtures):
    from tmcsignal.model import write_geometries

    geos, _ = fixtures
    out = tmp_path / "geo.csv"
    write_geometries(geos.values(), out)
    assert read_geometries(out) == geos


def test_geometry_file_rejects_missing_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,lanes_1i\nINT1,6\n")
    with pytest.raises(ValueError):
        read_geometries(bad)


GEOMETRY_HEADER = "id,lanes_1i,lanes_1o,lanes_2i,lanes_2o,lanes_3i,lanes_3o,lanes_4i,lanes_4o"
TMC_HEADER = "id,WBL,WBT,WBR,NBL,NBT,NBR,EBL,EBT,EBR,SBL,SBT,SBR"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(f"{GEOMETRY_HEADER}\nINT1,6,4,5,3,6,4,6\n", id="short-row"),
        pytest.param(f"{GEOMETRY_HEADER}\nINT1,6,4,5,3,6,4,6,x\n", id="non-integer-lane-count"),
        pytest.param(f"{GEOMETRY_HEADER}\nINT1,6,4,5,3,6,4,6,3\nINT1,5,4,3,2,5,4,3,2\n", id="repeated-id"),
        pytest.param(f"{GEOMETRY_HEADER},extra\nINT1,6,4,5,3,6,4,6,3,1\n", id="extra-column"),
        pytest.param(f"{GEOMETRY_HEADER}\nINT1,{'9' * 401},4,5,3,6,4,6,3\n", id="lane-count-of-401-digits"),
    ],
)
def test_geometry_file_rejects_malformed_rows(tmp_path, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(ValueError):
        read_geometries(bad)


def test_tmc_tables_roundtrip(tmp_path, fixtures):
    _, tables = fixtures
    out = tmp_path / "tmc.csv"
    write_csv(out, TMC_TABLE_FIELDS, ([tid, *t.counts] for tid, t in tables.items()))
    assert read_tmc_tables(out) == tables


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("id,WBL,WBR,NBL,NBT,NBR,EBL,EBT,EBR,SBL,SBT,SBR\nA,1,1,1,1,1,1,1,1,1,1,1\n", id="no-wbt"),
        pytest.param(f"{TMC_HEADER}\nA,1,1,1,1,1,1,1,1,1,1,1,1\nA,2,2,2,2,2,2,2,2,2,2,2,2\n", id="repeated-id"),
        pytest.param(f"{TMC_HEADER}\nA,1,1,1,1,1,1,1,1,1,1,1,1.5\n", id="non-integer-count"),
    ],
)
def test_tmc_table_file_rejects_malformed_rows(tmp_path, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(ValueError):
        read_tmc_tables(bad)


def test_read_csv_names_the_file_and_the_line(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    assert read_csv(path, ("x",), ("a", "b")) == (("a", "b"), [["1", "3"], ["2", "4"]])
    with pytest.raises(ValueError, match="f.csv: header 'a,b' is not 'a'"):
        read_csv(path, ("a",))
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="f.csv, line 3: expected 2 fields, got 1"):
        read_csv(path, ("a", "b"))
    path.write_text("")
    with pytest.raises(ValueError, match="header ''"):
        read_csv(path, ("a", "b"))


def read_csv_rows(path, *headers):
    """The row reader ``read_csv`` replaced, kept as its oracle: the header and every row."""
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


CSV_HEADERS = (("a", "b"), ("a", "b", "c"))
csv_fields = st.text(st.sampled_from('ab1 ,"\r\n'), max_size=4)
line_ends = st.sampled_from(["\r\n", "\n", "\r"])


@st.composite
def csv_texts(draw):
    """A header and rows as csv.writer writes them; now and then a short or long row, a blank line or loose text."""
    out = io.StringIO(newline="")
    header = draw(st.sampled_from([*CSV_HEADERS, *CSV_HEADERS, ("a",), ("b", "a")]))
    csv.writer(out, lineterminator=draw(line_ends)).writerow(header)
    width = len(header)
    for kind in draw(st.lists(st.sampled_from(["row"] * 12 + ["short", "long", "blank", "loose"]), max_size=16)):
        if kind == "blank":
            out.write(draw(line_ends))
        elif kind == "loose":
            out.write(draw(csv_fields) + draw(line_ends))
        else:
            size = {"row": width, "short": width - 1, "long": width + 1}[kind]
            row = draw(st.lists(csv_fields, min_size=size, max_size=size))
            csv.writer(out, lineterminator=draw(line_ends)).writerow(row)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(csv_texts(), st.integers(1, 4))
def test_read_csv_columns_equal_the_row_oracle(tmp_path_factory, text, chunk_rows):
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_text(text, newline="")
    with mock.patch.object(model, "_CHUNK_ROWS", chunk_rows):
        try:
            header, rows = read_csv_rows(path, *CSV_HEADERS)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                read_csv(path, *CSV_HEADERS)
            assert str(raised.value) == str(exc)
            return
        assert read_csv(path, *CSV_HEADERS) == (header, [[row[k] for row in rows] for k in range(len(header))])


def test_read_csv_names_the_line_of_a_field_past_the_size_limit(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(f"a,b\n1,2\n3,{'4' * (csv.field_size_limit() + 1)}\n")
    with pytest.raises(ValueError, match="f.csv, line 3: field larger than field limit"):
        read_csv(path, ("a", "b"))


def test_movement_named():
    assert [movement_named(m.name) for m in MOVEMENTS] == list(MOVEMENTS)
    with pytest.raises(ValueError, match="'XYZ'"):
        movement_named("XYZ")
