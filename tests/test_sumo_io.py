"""Tests for the SUMO route/tlLogic interchange."""

from __future__ import annotations

import re
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from itertools import pairwise
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from departure_rows import departures, rows_of
from tmcsignal import sumo_io
from tmcsignal.model import Movement
from tmcsignal.signals import LAYOUTS, MIN_GREEN, SPLIT_PHASE, SignalProgram, build_program
from tmcsignal.sumo_io import (
    XML_DECLARATION,
    parse_routes,
    read_routes,
    routes_xml,
    tls_xml,
    write_routes,
    write_tls,
)
from tmcsignal.trafficgen import MAX_DEPART, Departures, MinuteTmc, read_departures, write_departures

plan_lists = st.lists(
    st.tuples(st.integers(0, 7200), st.sampled_from(list(Movement))), max_size=50
).map(
    lambda raw: departures(
        [(f"v{i:04d}", t, m) for i, (t, m) in enumerate(sorted(raw))]
    )
)


def routes_xml_oracle(plans) -> str:
    """The route document as ElementTree builds, indents and serialises it."""
    root = ET.Element("routes")
    for plan in rows_of(plans):
        vehicle = ET.SubElement(root, "vehicle", id=plan.id, depart=f"{plan.depart}.00")
        ET.SubElement(vehicle, "route", edges=f"{plan.movement.origin.value}i {plan.movement.destination.value}o")
    ET.indent(root)
    return XML_DECLARATION + ET.tostring(root, encoding="unicode") + "\n"


def parse_routes_oracle(text: str) -> Departures:
    """The route document read as one ElementTree, every vehicle judged in document order."""
    edge_movements = {f"{m.origin.value}i {m.destination.value}o": m for m in Movement}
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ValueError(f"malformed routes document: {exc}") from None
    if root.tag != "routes":
        raise ValueError(f"expected <routes> document, got <{root.tag}>")
    ids, departs, movements = [], [], []
    for position, vehicle in enumerate(root.iter("vehicle"), start=1):
        ident, depart, route = vehicle.get("id"), vehicle.get("depart"), vehicle.find("route")
        if ident is None or depart is None or route is None:
            name = f"vehicle number {position}" if ident is None else f"vehicle {ident!r}"
            raise ValueError(f"{name} has no {'id' if ident is None else 'depart' if depart is None else 'route'}")
        if (movement := edge_movements.get(route.get("edges"))) is None:
            raise ValueError(f"unrecognized edge pair {route.get('edges', '')!r}")
        ids.append(ident)
        departs.append(sumo_io._depart_second(depart))
        movements.append(movement)
    if repeated := [ident for ident, n in Counter(ids).items() if n > 1]:
        raise ValueError(f"vehicle id {repeated[0]!r} appears more than once")
    plans = Departures(departs, movements, tuple(ids))
    plans.check_sorted()
    return plans


def tls_xml_oracle(program: SignalProgram) -> tuple[str, list[tuple[int, str]]]:
    """The tlLogic document as ElementTree builds, indents and serialises it, and the minute switch schedule."""
    root = ET.Element("additional")
    ids: dict[tuple[int, ...], str] = {}
    schedule = []
    for minute, greens in enumerate(map(tuple, program.greens.tolist())):
        if greens not in ids:
            ids[greens] = f"p{len(ids):03d}"
            logic = ET.SubElement(root, "tlLogic", id="center", type="static", programID=ids[greens], offset="0")
            for state, green in zip(program.layout, greens):
                ET.SubElement(logic, "phase", duration=str(green), state=state)
                ET.SubElement(logic, "phase", duration=str(program.yellow), state=re.sub("[Gg]", "y", state))
        schedule.append((minute, ids[greens]))
    ET.indent(root)
    return XML_DECLARATION + ET.tostring(root, encoding="unicode") + "\n", schedule


def phases_of(xml: str) -> dict[str, list[tuple[int, str]]]:
    """The (duration, state) phases of each programID of a tlLogic document, read back with ElementTree."""
    return {
        logic.get("programID"): [(int(phase.get("duration")), phase.get("state")) for phase in logic.iter("phase")]
        for logic in ET.fromstring(xml).iter("tlLogic")
    }


@st.composite
def signal_programs(draw):
    """A program of either layout, yellow 0-5 s and cycle 20-180 s, whose minute plans repeat or are all distinct."""
    layout = draw(st.sampled_from(LAYOUTS))
    yellow = draw(st.integers(0, 5))
    cycle = draw(st.integers(max(20, 4 * (MIN_GREEN + yellow)), 180))
    spare = cycle - 4 * (MIN_GREEN + yellow)
    plan = st.lists(st.integers(0, spare), min_size=3, max_size=3).map(
        lambda cuts: tuple(MIN_GREEN + b - a for a, b in pairwise([0, *sorted(cuts), spare]))
    )
    plans = draw(st.lists(plan, min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        minutes = draw(st.lists(st.sampled_from(plans), min_size=1, max_size=40))
    else:
        minutes = plans
    return SignalProgram(layout, minutes, yellow, cycle)


# Ids as a departures file can hold them, with every character ElementTree escapes.
# A UTF-8 file cannot hold a lone surrogate, so those are left out, as st.text() does.
read_back_ids = st.text(
    st.sampled_from('&<>"\r\n\t\'v0 ,é') | st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8
)
# A character outside XML 1.0's Char production, which no document may carry.
NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

# Ids routes_xml can write, with every character it escapes.
written_ids = st.text(
    st.sampled_from('&<>"\r\n\t\'v0 é') | st.characters(min_codepoint=0x20, max_codepoint=0xD7FF), min_size=1, max_size=4
)
# Markup a mutation inserts: legal between elements but not in an attribute,
# references legal in both, and vehicles that nest or are left open.
SNIPPETS = (
    "<!-- c -->", "<![CDATA[v]]>", "&#118;", "&#x26;", "&amp;", "<?pi x?>", "</vehicle>", '<vehicle depart="3">',
    '<route edges="1i 2o" />', '<vehicle id="n" depart="0"><route edges="1i 2o" /></vehicle>',
)
# Each mutation other than truncate, insert and root: what it replaces, and its replacement.
REPLACEMENTS = {
    "drop": (re.compile(r' (?:id|depart|edges)="[^"]*"|\n *<route [^>]*>'), lambda text: st.just("")),
    "edges": (re.compile('(?<= edges=")[^"]*'), lambda text: st.sampled_from(["1i 2o", "4i 3o", "9i 9o", "1i 2o ", ""])),
    "depart": (
        re.compile('(?<= depart=")[^"]*'),
        lambda text: st.sampled_from(["0", "-1", "x", "2.50", "1e3", *re.findall('(?<= depart=")[^"]*', text)]),
    ),
    "repeat": (re.compile('(?<= id=")[^"]*'), lambda text: st.sampled_from(re.findall('(?<= id=")[^"]*', text))),
    "id": (re.compile('(?<= id=")'), lambda text: st.sampled_from(SNIPPETS)),
}


@st.composite
def mutated_routes(draw):
    """A ``routes_xml`` document of up to five vehicles, then up to three mutations of its text."""
    count = draw(st.integers(0, 5))
    rows = [(draw(written_ids), draw(st.integers(0, 9)), draw(st.sampled_from(list(Movement)))) for _ in range(count)]
    text = routes_xml(departures(sorted(rows, key=lambda row: row[1])))
    for kind in draw(st.lists(st.sampled_from(["truncate", "insert", "root", *REPLACEMENTS]), max_size=3)):
        if kind == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        elif kind == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(SNIPPETS)) + text[at:]
        elif kind == "root":
            text = re.sub("(?<=<)(/?)routes", rf"\g<1>{draw(st.sampled_from(['vehicle', 'route', 'other']))}", text)
        elif matches := list(REPLACEMENTS[kind][0].finditer(text)):
            match = matches[draw(st.integers(0, len(matches) - 1))]
            text = text[: match.start()] + draw(REPLACEMENTS[kind][1](text)) + text[match.end() :]
    return text


def outcome(parse, text):
    """What ``parse`` returns for ``text``, or the type and text of its ``ValueError``."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestRoutes:
    def test_single_vehicle_element(self):
        xml = routes_xml(departures([("v0", 5, Movement.WBL)]))
        assert xml.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert 'depart="5.00"' in xml
        assert 'edges="1i 2o"' in xml

    def test_edge_mapping_covers_all_movements(self):
        plans = departures([(f"v{m.value}", m.value, m) for m in Movement])
        xml = routes_xml(plans)
        expected = {
            Movement.WBL: "1i 2o", Movement.WBT: "1i 3o", Movement.WBR: "1i 4o",
            Movement.NBL: "2i 3o", Movement.NBT: "2i 4o", Movement.NBR: "2i 1o",
            Movement.EBL: "3i 4o", Movement.EBT: "3i 1o", Movement.EBR: "3i 2o",
            Movement.SBL: "4i 1o", Movement.SBT: "4i 2o", Movement.SBR: "4i 3o",
        }
        for edges in expected.values():
            assert f'edges="{edges}"' in xml

    def test_empty_document_is_valid(self):
        xml = routes_xml(departures([]))
        assert xml == routes_xml_oracle(departures([])) == XML_DECLARATION + "<routes />\n"
        assert parse_routes(xml) == departures([])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(read_back_ids, st.integers(0, 10**18), st.sampled_from(list(Movement))),
            max_size=12,
            unique_by=lambda row: row[0],
        )
    )
    def test_written_bytes_equal_the_element_tree_oracle(self, tmp_path_factory, rows):
        plans = departures(sorted(rows, key=lambda row: row[1]))
        out = tmp_path_factory.mktemp("routes")
        write_departures(plans, out / "departures.csv")
        read_back = read_departures(out / "departures.csv")
        if unwritable := [ident for ident in plans.ids if NOT_XML.search(ident)]:
            with pytest.raises(ValueError, match=re.escape(f"vehicle {unwritable[0]!r}: ")):
                write_routes(read_back, out / "routes.rou.xml")
            return
        write_routes(read_back, out / "routes.rou.xml")
        assert (out / "routes.rou.xml").read_bytes() == routes_xml_oracle(plans).encode("utf-8")

    @pytest.mark.parametrize("ident", ["a\x00b", "\x01", "v\x1f", "\ud800", "\ufffe"])
    def test_an_id_xml_cannot_carry_is_named(self, ident):
        plans = departures([("ok", 0, Movement.WBL), (ident, 1, Movement.WBT), ("\x02", 2, Movement.WBT)])
        with pytest.raises(ValueError, match=re.escape(f"vehicle {ident!r}: ")):
            routes_xml(plans)

    def test_unsorted_rejected(self):
        plans = departures([("a", 10, Movement.WBL), ("b", 5, Movement.WBL)])
        with pytest.raises(ValueError):
            routes_xml(plans)

    def test_parse_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            parse_routes("<notroutes/>")
        with pytest.raises(ValueError, match="malformed"):
            parse_routes("<routes>")
        with pytest.raises(ValueError, match="malformed"):
            parse_routes("")
        with pytest.raises(ValueError):
            parse_routes(
                '<routes><vehicle id="x" depart="1.00">'
                '<route edges="9i 9o"/></vehicle></routes>'
            )

    @pytest.mark.parametrize("edges", [" 1i 2o", "01i 2o", "1i\t2o", "1o 2i", "1i  2o", "1i 2o ", "1i 1o", ""])
    def test_parse_accepts_only_the_edge_pairs_the_writer_writes(self, edges):
        # A parser reads a literal tab in an attribute as a space; a character reference keeps it a tab.
        value = edges.replace("\t", "&#09;")
        with pytest.raises(ValueError, match=re.escape(f"unrecognized edge pair {edges!r}")):
            parse_routes(f'<routes><vehicle id="a" depart="0"><route edges="{value}"/></vehicle></routes>')

    def test_parse_rejects_a_vehicle_without_an_id_by_its_position(self):
        vehicles = (
            '<vehicle id="a" depart="0"><route edges="1i 2o"/></vehicle>'
            '<vehicle depart="1"><route edges="1i 2o"/></vehicle>'
        )
        with pytest.raises(ValueError, match="^vehicle number 2 has no id$"):
            parse_routes(f"<routes>{vehicles}</routes>")

    def test_parse_rejects_a_vehicle_without_a_depart_by_its_id(self):
        with pytest.raises(ValueError, match="^vehicle 'b' has no depart$"):
            parse_routes('<routes><vehicle id="b"><route edges="1i 2o"/></vehicle></routes>')

    @settings(max_examples=300, deadline=None)
    @given(mutated_routes(), st.sampled_from([1, 7, 64, sumo_io._FEED_CHARS]))
    @example(  # nested vehicles are numbered by start tag, and each owns only its direct route
        '<routes><vehicle id="a" depart="0"><vehicle id="b" depart="1"><route edges="2i 3o" /></vehicle>'
        '<route edges="1i 2o" /></vehicle></routes>',
        1,
    )
    @example('<routes><vehicle id="a" depart="0"><vehicle depart="1" /><route edges="1i 2o" /></vehicle></routes>', 1)
    @example('<routes><vehicle id="a"><vehicle depart="1"><route edges="1i 2o" /></vehicle></vehicle></routes>', 1)
    @example(
        '<routes><g><vehicle id="a" depart="0"><route edges="1i 2o" /></vehicle></g><vehicle depart="1" /></routes>', 7
    )
    @example('<routes><vehicle id="a" depart="x"><route edges="1i 2o" /></vehicle><oops></routes>', 7)  # syntax last
    @example('<other><vehicle id="a" /></other', 7)
    @example('<vehicle><vehicle id="a" /></vehicle>', 7)
    @example(  # two faulty vehicles
        '<routes><vehicle id="a" depart="0"><route edges="9i 9o" /></vehicle><vehicle id="b" depart="1" /></routes>', 7
    )
    @example(  # a repeated id, then a faulty vehicle
        '<routes><vehicle id="a" depart="0"><route edges="1i 2o" /></vehicle>'
        '<vehicle id="a" depart="1"><route edges="1i 2o" /></vehicle><vehicle id="c" depart="2" /></routes>',
        7,
    )
    @example(  # departures out of order and a repeated id
        '<routes><vehicle id="a" depart="1"><route edges="1i 2o" /></vehicle>'
        '<vehicle id="a" depart="0"><route edges="1i 2o" /></vehicle></routes>',
        7,
    )
    @example("<routes></x>\ud800", 1)  # a lone surrogate past a syntax error
    def test_parse_equals_the_whole_tree_oracle(self, text, feed):
        with mock.patch.object(sumo_io, "_FEED_CHARS", feed):
            assert outcome(parse_routes, text) == outcome(parse_routes_oracle, text)

    @given(plan_lists)
    @settings(max_examples=60)
    def test_roundtrip_identity(self, plans):
        assert parse_routes(routes_xml(plans)) == plans

    def test_file_roundtrip(self, tmp_path):
        plans = departures([
            ("a", 1, Movement.EBT),
            ("b", 30, Movement.SBR),
        ])
        path = tmp_path / "routes.rou.xml"
        write_routes(plans, path)
        assert read_routes(path) == plans

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("<routes>", "malformed routes document"),
            ("<notroutes/>", "expected <routes> document"),
            ('<routes><vehicle id="a" depart="x"><route edges="1i 2o"/></vehicle></routes>', "depart"),
        ],
        ids=["malformed", "foreign-root", "bad-depart"],
    )
    def test_read_names_the_file(self, tmp_path, text, reason):
        path = tmp_path / "routes.rou.xml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {reason}"):
            read_routes(path)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, MAX_DEPART), st.sampled_from(list(Movement))), max_size=8))
    @example([(2**53 + 1, Movement.WBL)])
    @example([(MAX_DEPART, Movement.SBR), (10**18 + 1, Movement.NBT)])
    def test_file_roundtrip_is_exact_for_every_int64_departure(self, tmp_path_factory, raw):
        plans = departures([(f"v{i}", t, m) for i, (t, m) in enumerate(sorted(raw))])
        path = tmp_path_factory.mktemp("routes") / "routes.rou.xml"
        write_routes(plans, path)
        assert read_routes(path) == plans

    @pytest.mark.parametrize(
        "depart",
        ["-1", "-0.6", f"{2**63}", f"{MAX_DEPART}.5", "nan", "inf", "-inf", "1e999999999", "", "x", "1/2"],
    )
    def test_parse_rejects_a_departure_outside_int64_or_not_a_number(self, depart):
        with pytest.raises(ValueError, match="depart"):
            parse_routes(f'<routes><vehicle id="a" depart="{depart}"><route edges="1i 2o"/></vehicle></routes>')

    def test_parse_rejects_a_repeated_vehicle_id(self):
        vehicles = '<vehicle id="a" depart="0"><route edges="1i 2o"/></vehicle>' * 2
        with pytest.raises(ValueError, match="'a' appears more than once"):
            parse_routes(f"<routes>{vehicles}</routes>")

    def test_parse_rejects_departures_out_of_order(self):
        vehicles = (
            '<vehicle id="a" depart="1.00"><route edges="1i 2o"/></vehicle>'
            '<vehicle id="b" depart="0.00"><route edges="1i 2o"/></vehicle>'
        )
        with pytest.raises(ValueError, match="sorted"):
            parse_routes(f"<routes>{vehicles}</routes>")

    def test_parse_rounds_half_to_even(self):
        texts = ["0.4", "2.50", "3.50", "9007199254740993.00", f"{MAX_DEPART}.49"]
        xml = "".join(f'<vehicle id="{t}" depart="{t}"><route edges="1i 2o"/></vehicle>' for t in texts)
        assert parse_routes(f"<routes>{xml}</routes>").departs.tolist() == [0, 2, 4, 2**53 + 1, MAX_DEPART]


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestRouteMemory:
    """About the default peak's 45,862 vehicles, with the serial ids ``generate_demand`` gives: a file of ~3.7 MB."""

    @pytest.fixture(scope="class")
    def plans(self):
        rng = np.random.default_rng(3)
        vehicles = 45_000
        return Departures(np.sort(rng.integers(0, 14400, vehicles)), rng.integers(0, 12, vehicles), np.arange(vehicles))

    def test_writing_holds_less_than_the_file(self, plans, tmp_path):
        path = tmp_path / "routes.rou.xml"
        _, peak = traced_peak(write_routes, plans, path)
        assert path.read_bytes() == routes_xml(plans).encode("utf-8")
        assert peak < path.stat().st_size

    def test_reading_holds_less_than_five_files(self, plans, tmp_path):
        path = tmp_path / "routes.rou.xml"
        write_routes(plans, path)
        read_back, peak = traced_peak(read_routes, path)
        assert read_back == plans
        assert peak < 5 * path.stat().st_size


def static_program(minutes: int) -> SignalProgram:
    return build_program(MinuteTmc([(0,) * 12] * minutes), "static", 90, 3)


class TestTls:
    def test_static_plan_has_8_entries_with_expected_durations(self):
        xml, schedule = tls_xml(static_program(5))
        docs = phases_of(xml)
        assert list(docs) == ["p000"]
        entries = docs["p000"]
        assert [d for d, _ in entries] == [20, 3, 20, 3, 19, 3, 19, 3]
        assert sum(d for d, _ in entries) == 90
        assert schedule == [(m, "p000") for m in range(5)]

    def test_protected_left_phase_state(self):
        entries = phases_of(tls_xml(static_program(1))[0])["p000"]
        # phase order: P1 green, P1 yellow, P2 green, ...
        p2_green = entries[2][1]
        assert len(p2_green) == 12
        green_positions = {i for i, ch in enumerate(p2_green) if ch == "G"}
        assert green_positions == {Movement.WBL, Movement.EBL}
        assert set(p2_green) == {"G", "r"}

    def test_permissive_lefts_lowercase_in_p1(self):
        entries = phases_of(tls_xml(static_program(1))[0])["p000"]
        p1_green = entries[0][1]
        assert p1_green[Movement.WBL] == "g"
        assert p1_green[Movement.WBT] == "G"
        assert p1_green[Movement.NBT] == "r"
        p1_yellow = entries[1][1]
        assert p1_yellow[Movement.WBT] == "y"
        assert p1_yellow[Movement.WBL] == "y"
        assert p1_yellow[Movement.NBT] == "r"

    def test_split_phase_states(self):
        xml, _ = tls_xml(SignalProgram(SPLIT_PHASE, [(20, 20, 19, 19)], 3, 90))
        assert phases_of(xml)["p000"] == [
            (20, "GGGrrrrrrrrr"), (3, "yyyrrrrrrrrr"), (20, "rrrGGGrrrrrr"), (3, "rrryyyrrrrrr"),
            (19, "rrrrrrGGGrrr"), (3, "rrrrrryyyrrr"), (19, "rrrrrrrrrGGG"), (3, "rrrrrrrrryyy"),
        ]

    def test_distinct_minute_plans_get_distinct_programs(self):
        rows = [[(1 + m * i) % 23 for m in range(12)] for i in range(30)]
        program = build_program(MinuteTmc(rows), "dynamic", 90)
        xml, schedule = tls_xml(program)
        docs = phases_of(xml)
        assert len(docs) == len({tuple(g) for g in program.greens.tolist()})
        assert len(schedule) == 30
        assert all(docs[pid][0][0] == program.greens[minute, 0] for minute, pid in schedule)

    @given(st.tuples(*[st.integers(0, 500)] * 12), st.sampled_from([60, 90, 120, 150]))
    @settings(max_examples=40)
    def test_every_document_sums_to_cycle(self, tmc, cycle):
        program = build_program(MinuteTmc([tmc]), "dynamic", cycle, 3)
        for entries in phases_of(tls_xml(program)[0]).values():
            assert len(entries) == 8
            assert sum(d for d, _ in entries) == cycle
            assert all(len(state) == 12 for _, state in entries)
            assert all(set(state) <= set("Ggyr") for _, state in entries)

    @settings(max_examples=100, deadline=None)
    @given(signal_programs())
    def test_document_and_schedule_equal_the_element_tree_oracle(self, program):
        assert tls_xml(program) == tls_xml_oracle(program)

    def test_file_outputs(self, tmp_path):
        program = static_program(3)
        xml_path = tmp_path / "tls.add.xml"
        schedule_path = tmp_path / "tls_schedule.csv"
        write_tls(program, xml_path, schedule_path)
        xml = xml_path.read_text()
        assert xml == tls_xml_oracle(program)[0]
        assert xml.count("<tlLogic") == 1
        lines = schedule_path.read_text().splitlines()
        assert lines[0] == "minute,program_id"
        assert len(lines) == 4
