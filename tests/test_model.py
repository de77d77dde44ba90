"""Tests for the domain vocabulary and capacity-rate analytics."""

from __future__ import annotations

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmcsignal import model
from tmcsignal.model import (
    MAX_COUNT,
    MAX_LANES,
    MOVEMENTS,
    TMC_TABLE_FIELDS,
    IntersectionGeometry,
    Movement,
    Zone,
    movement_named,
    read_csv,
    read_geometries,
    read_tmc_tables,
    write_csv,
    zone_capacity_rates,
)
from tmcsignal.trafficgen import TmcTable

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

count_rows = st.lists(st.integers(0, 5000), min_size=12, max_size=12)
ONE_LANE = (1, 1, 1, 1)


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


def zone_capacity_rates_oracle(geo: IntersectionGeometry, counts) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The scalar rates the array ``zone_capacity_rates`` replaced, kept as its oracle: one geometry, one row."""
    inflow = tuple(
        round_half_away(sum(counts[m] for m in MOVEMENTS if m.origin is z) / geo.lanes_in[z.index]) for z in Zone
    )
    outflow = tuple(
        round_half_away(sum(counts[m] for m in MOVEMENTS if m.destination is z) / geo.lanes_out[z.index]) for z in Zone
    )
    return inflow, outflow, round_half_away(sum(counts) / (sum(geo.lanes_in) + sum(geo.lanes_out)))


def zone_counts(counts) -> tuple[list[int], list[int]]:
    """Each zone's inflow and outflow count of one row of 12 counts: its rates over one lane per zone."""
    inflow, outflow, _ = zone_capacity_rates(ONE_LANE, ONE_LANE, [counts])
    return inflow[0].tolist(), outflow[0].tolist()


@pytest.fixture(scope="module")
def fixtures():
    ids, counts = read_tmc_tables()
    return read_geometries(), dict(zip(ids, counts.tolist()))


def rates_of(geo: IntersectionGeometry, counts) -> tuple[list[int], list[int], int]:
    """``zone_capacity_rates`` of one geometry and one row, as lists of ints."""
    inflow, outflow, total = zone_capacity_rates(geo.lanes_in, geo.lanes_out, [counts])
    return inflow[0].tolist(), outflow[0].tolist(), int(total[0])


def test_zone_ordering_and_labels():
    assert [z.name for z in Zone] == ["WEST", "NORTH", "EAST", "SOUTH"]
    assert Zone.WEST < Zone.NORTH < Zone.EAST < Zone.SOUTH


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
    # The north-exit tally must aggregate WBL, EBR and SBT, and nothing else.
    counts = [0] * 12
    counts[Movement.WBL], counts[Movement.EBR], counts[Movement.SBT] = 1, 10, 100
    assert zone_counts(counts)[1] == [0, 111, 0, 0]
    assert zone_counts([1000] * 12)[1] == [3000] * 4


def test_geometry_invariants():
    geo = IntersectionGeometry("X", (6, 5, 6, 6), (4, 3, 4, 3))
    assert rates_of(geo, [37] * 12)[2] == 12  # all counts over all 37 lanes
    with pytest.raises(ValueError):
        IntersectionGeometry("bad", (0, 1, 1, 1), (1, 1, 1, 1))
    assert IntersectionGeometry("wide", (2**31 - 1, 1, 1, 1), (1, 1, 1, 1)).lanes_in[0] == 2**31 - 1
    with pytest.raises(ValueError, match="below 2"):
        IntersectionGeometry("bad", (1, 1, 1, 1), (1, 1, 1, 2**31))


def test_tmc_table_validation():
    assert TmcTable((0,) * 12).total == 0
    assert TmcTable(tuple(range(12))).total == 66
    with pytest.raises(ValueError):
        TmcTable((1,) * 11)
    with pytest.raises(ValueError):
        TmcTable((-1,) + (0,) * 11)


def test_inflow_count_examples(fixtures):
    _, tmcs = fixtures
    assert zone_counts(tmcs["INT1"])[0][Zone.NORTH.index] == 233 + 757 + 214
    assert zone_counts([0] * 12)[0] == [0, 0, 0, 0]
    assert zone_counts(tmcs["INT2"])[0][Zone.EAST.index] == 8 + 744 + 0


def test_outflow_count_examples(fixtures):
    _, tmcs = fixtures
    assert zone_counts(tmcs["INT1"])[1][Zone.NORTH.index] == 505 + 10 + 645
    assert zone_counts([0] * 12)[1] == [0, 0, 0, 0]
    assert zone_counts(tmcs["INT1"])[1][Zone.WEST.index] == 214 + 1345 + 99


def test_round_half_away():
    assert round_half_away(240.8) == 241
    assert round_half_away(414.5) == 415
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(2.0) == 2
    # The array rates round halves up, as the oracle does for non-negative rates.
    inflow, _, _ = zone_capacity_rates((5, 2, 2, 4), ONE_LANE, [[1204, 0, 0, 829, 0, 0, 1, 0, 0, 4, 0, 0]])
    assert inflow.tolist() == [[241, 415, 1, 1]]


def test_capacity_rate_examples(fixtures):
    geos, tmcs = fixtures
    inflow, outflow, total = rates_of(geos["INT1"], tmcs["INT1"])
    assert inflow[Zone.NORTH.index] == 241
    assert outflow[Zone.NORTH.index] == 387
    assert total == 103
    assert rates_of(geos["INT5"], tmcs["INT5"])[2] == 483
    assert rates_of(geos["INT1"], [0] * 12) == ([0, 0, 0, 0], [0, 0, 0, 0], 0)


def test_capacity_rates_reproduce_published_table(fixtures):
    geos, tmcs = fixtures
    for key, (west, north, east, south, tc) in EXPECTED_RATES.items():
        inflow, outflow, total = rates_of(geos[key], tmcs[key])
        for zone, (want_in, want_out) in zip(Zone, (west, north, east, south)):
            gi, go = inflow[zone.index], outflow[zone.index]
            assert abs(gi - want_in) <= 1, f"{key} C{zone.value}i: {gi} vs {want_in}"
            assert abs(go - want_out) <= 1, f"{key} C{zone.value}o: {go} vs {want_out}"
        assert abs(total - tc) <= 1, f"{key} TC: {total} vs {tc}"


def test_all_geometries_in_one_call_equal_one_at_a_time(fixtures):
    geos, tmcs = fixtures
    ids = list(tmcs)
    lanes_in = [geos[i].lanes_in for i in ids]
    lanes_out = [geos[i].lanes_out for i in ids]
    inflow, outflow, total = zone_capacity_rates(lanes_in, lanes_out, [tmcs[i] for i in ids])
    assert inflow.dtype == outflow.dtype == total.dtype == np.int64
    assert inflow.shape == outflow.shape == (6, 4) and total.shape == (6,)
    for k, i in enumerate(ids):
        assert (inflow[k].tolist(), outflow[k].tolist(), int(total[k])) == rates_of(geos[i], tmcs[i])


# A list, not ``st.tuples``: hypothesis's explain phase varies each field of a
# tuple strategy on its own, hundreds of runs a field, once a failure has shrunk.
lane_rows = st.lists(st.integers(1, MAX_LANES - 1), min_size=4, max_size=4).map(tuple)


@st.composite
def capacity_cases(draw):
    """Lanes and 12 counts; some zones' inflow is put on, or one off, a half-lane boundary, where rounding shows."""
    lanes_in, lanes_out = draw(lane_rows), draw(lane_rows)
    counts = draw(st.lists(st.integers(0, MAX_COUNT - 1), min_size=12, max_size=12))
    for zone, lanes in enumerate(lanes_in):
        if draw(st.booleans()):
            near = draw(st.integers(0, MAX_COUNT // lanes - 1)) * lanes + lanes // 2 + draw(st.integers(-1, 1))
            counts[3 * zone : 3 * zone + 3] = [min(max(near, 0), MAX_COUNT - 1), 0, 0]
    return lanes_in, lanes_out, counts


@settings(max_examples=300, deadline=None)
@given(st.lists(capacity_cases(), min_size=1, max_size=4))
# The shrunk failures of three mutants, each named by what it breaks.
# Inbound lanes as float32: 80,501,121 lanes round to 80,501,120.
@example([((1, 1, 1, 80501121), ONE_LANE, [0] * 9 + [40250560, 0, 0])])
# Halves rounded to even by ``np.round``: 1 vehicle over 2 lanes is 0.5, which rounds up.
@example([((1, 1, 1, 2), ONE_LANE, [0] * 9 + [1, 0, 0])])
# Two outflow zones swapped: SBT, which leaves through the north zone, is counted in the west's.
@example([(ONE_LANE, ONE_LANE, [0] * 10 + [1, 0])])
def test_capacity_rates_equal_the_scalar_oracle(cases):
    lanes_in, lanes_out, counts = zip(*cases)
    inflow, outflow, total = zone_capacity_rates(lanes_in, lanes_out, counts)
    for k, case in enumerate(cases):
        expected = zone_capacity_rates_oracle(IntersectionGeometry("X", case[0], case[1]), case[2])
        assert (tuple(inflow[k].tolist()), tuple(outflow[k].tolist()), int(total[k])) == expected


@given(st.lists(count_rows, min_size=1, max_size=5))
def test_partition_property(rows):
    # Every movement has exactly one origin and one destination.
    inflow, outflow, _ = zone_capacity_rates(ONE_LANE, ONE_LANE, rows)
    assert inflow.sum(axis=1).tolist() == outflow.sum(axis=1).tolist() == [sum(row) for row in rows]


@given(count_rows, st.sampled_from(MOVEMENTS), st.integers(1, 500))
def test_total_rate_monotone_in_any_movement(counts, movement, k):
    geo = IntersectionGeometry("X", (6, 5, 6, 6), (4, 3, 4, 3))
    bumped = [c + k if i == movement else c for i, c in enumerate(counts)]
    before = rates_of(geo, counts)[2]
    after = rates_of(geo, bumped)[2]
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
OUT_OF_BOUNDS = "count must lie in [0, 2**32)"


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


def test_tmc_tables_roundtrip(tmp_path):
    ids, counts = read_tmc_tables()
    assert ids == ("INT1", "INT2", "INT3", "INT4", "INT5", "INT6")
    assert counts.dtype == np.int64 and counts.shape == (6, 12) and not counts.flags.writeable
    out = tmp_path / "tmc.csv"
    write_csv(out, TMC_TABLE_FIELDS, ([tid, *row] for tid, row in zip(ids, counts.tolist())))
    again_ids, again = read_tmc_tables(out)
    assert again_ids == ids and np.array_equal(again, counts)
    (tmp_path / "empty.csv").write_text(",".join(TMC_TABLE_FIELDS) + "\n")
    assert read_tmc_tables(tmp_path / "empty.csv")[1].shape == (0, 12)


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(f"{TMC_HEADER.replace(',WBT', '')}\nA,1,1,1,1,1,1,1,1,1,1,1\n", "header", id="no-wbt"),
        pytest.param(f"{TMC_HEADER}\nA{',1' * 12}\nA{',2' * 12}\n", "'A' appears", id="repeated-id"),
        pytest.param(f"{TMC_HEADER}\nA{',1' * 11},1.5\n", "line 2", id="non-integer-count"),
        pytest.param(f"{TMC_HEADER}\nA{',1' * 11},-1\n", f"line 2: {OUT_OF_BOUNDS}", id="negative-count"),
        pytest.param(f"{TMC_HEADER}\nA{',1' * 12}\nB,{2**32}{',1' * 11}\n", f"line 3: {OUT_OF_BOUNDS}", id="count-of-2**32"),
        pytest.param(f"{TMC_HEADER}\nA{',1' * 11},{'9' * 401}\n", f"line 2: {OUT_OF_BOUNDS}", id="count-of-401-digits"),
    ],
)
def test_tmc_table_file_rejects_malformed_rows(tmp_path, text, fragment):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(ValueError, match="bad.csv") as raised:
        read_tmc_tables(bad)
    assert fragment in str(raised.value)


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



def test_read_csv_names_the_line_of_a_byte_that_is_not_utf8_past_the_first_chunk(tmp_path):
    # The stream decodes 8 KiB at a time, so line 4000 lies well past the first chunk.
    path = tmp_path / "f.csv"
    path.write_bytes(b"a,b\n" + b"1,2\n" * 3998 + b"3,\xff\n" + b"5,6\n" * 10)
    with pytest.raises(ValueError, match="f.csv, line 4000: 'utf-8' codec can't decode byte 0xff"):
        read_csv(path, ("a", "b"))

def test_movement_named():
    assert [movement_named(m.name) for m in MOVEMENTS] == list(MOVEMENTS)
    with pytest.raises(ValueError, match="'XYZ'"):
        movement_named("XYZ")
