"""SUMO-compatible interchange: sorted route documents and tlLogic signal programs.

Both documents are written as strings, in exactly the bytes ElementTree's
``indent`` and ``tostring`` give for the same tree; ElementTree only parses.
The tlLogic document is one string join. The route document is made in
pieces of ``_CHUNK_VEHICLES`` vehicles: ``routes_xml`` joins them, and
``write_routes`` writes each as it comes, so it holds one piece and not the
document. ``parse_routes`` feeds its text to ElementTree's pull parser and
drops each vehicle once it is read, so it holds the text and the columns it
returns, not a tree of the document.

A tlLogic phase is a duration and a state string over the controlled links.
Each minute plan of a program becomes 8 phases: for each phase of its layout,
the layout's green-state string (``signals.PROTECTED_LEFT`` or
``signals.SPLIT_PHASE``) for the green, then the same string with ``G`` and
``g`` turned into ``y`` for the yellow. The strings use a fixed 12-slot
ordering, WBL..SBR (origin zone W,N,E,S, then left/through/right within each).
Deployments whose connection order differs must remap the columns.

A vehicle's route is the edge pair ``"<origin>i <destination>o"`` of its
movement, and the reader accepts exactly the 12 pairs the writer writes. Ids
are escaped for ``& < > " \n \r \t``; an id holding a character XML 1.0
cannot carry is a ``ValueError``, never a document that cannot be read back.
Departure seconds are written as ``depart="N.00"`` and read back exactly,
never through a float.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import Counter
from collections.abc import Iterator
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from pathlib import Path

from tmcsignal.model import MOVEMENTS, Movement, parse_file, write_csv
from tmcsignal.signals import SignalProgram
from tmcsignal.trafficgen import MAX_DEPART, Departures

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'

# The route edges of each movement, in movement order, and the inverse table the reader looks them up in.
_EDGES = [f"{m.origin.value}i {m.destination.value}o" for m in MOVEMENTS]
_EDGE_MOVEMENTS = dict(zip(_EDGES, MOVEMENTS))
# Characters XML 1.0 cannot carry, not even as a character reference.
_NOT_XML = [*range(0x00, 0x09), 0x0B, 0x0C, *range(0x0E, 0x20), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF]
# What ElementTree escapes in an attribute value; a character of _NOT_XML
# becomes NUL, the separator routes_xml joins the ids with.
_ATTRIBUTE_ESCAPES = str.maketrans(
    dict.fromkeys(_NOT_XML, "\0")
    | {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)
_TO_YELLOW = str.maketrans("Gg", "yy")
# The lone surrogates a str can hold and UTF-8 cannot encode.
_SURROGATES = re.compile("[\ud800-\udfff]")
# Vehicles in one piece of the route document, and characters of text in one
# feed of its reader: what either holds besides its result grows with these,
# not with the document.
_CHUNK_VEHICLES = 2048
_FEED_CHARS = 65536


def routes_xml(plans: Departures) -> str:
    """The route document, one vehicle element per plan.

    ``ValueError`` unless depart-sorted, or naming the first vehicle whose id
    holds a character XML 1.0 cannot carry.
    """
    return "".join(_route_chunks(plans))


def _route_chunks(plans: Departures) -> Iterator[str]:
    """The pieces of ``routes_xml``: its head, one per ``_CHUNK_VEHICLES`` vehicles, its tail."""
    plans.check_sorted()
    if not len(plans):
        yield XML_DECLARATION + "<routes />\n"
        return
    yield XML_DECLARATION + "<routes>\n"
    for start, escaped in zip(range(0, len(plans), _CHUNK_VEHICLES), _escaped_ids(plans)):
        stop = start + _CHUNK_VEHICLES
        edges = map(_EDGES.__getitem__, plans.movements[start:stop].tolist())
        yield "".join(
            f'  <vehicle id="{ident}" depart="{depart}.00">\n    <route edges="{edge_pair}" />\n  </vehicle>\n'
            for ident, depart, edge_pair in zip(escaped, plans.departs[start:stop].tolist(), edges)
        )
    yield "</routes>\n"


def _escaped_ids(plans: Departures) -> Iterator[list[str]]:
    """The ids of each ``_CHUNK_VEHICLES`` vehicles, escaped for an attribute value.

    ``ValueError`` naming the first vehicle whose id holds a character XML 1.0
    cannot carry.
    """
    for start in range(0, len(plans), _CHUNK_VEHICLES):
        ids = plans._spelled(start, start + _CHUNK_VEHICLES)
        escaped = "\0".join(ids).translate(_ATTRIBUTE_ESCAPES).split("\0")
        if len(escaped) != len(ids):
            bad = next(ident for ident in ids if "\0" in ident.translate(_ATTRIBUTE_ESCAPES))
            raise ValueError(f"vehicle {bad!r}: the id holds a character XML 1.0 cannot carry")
        yield escaped


def parse_routes(text: str) -> Departures:
    """Inverse of ``routes_xml``; departs are rounded half to even to whole seconds.

    ``ValueError`` for a document that is not well-formed XML, another root
    element, a vehicle without an id, a depart or a route, an edge pair
    ``routes_xml`` does not write, a depart that is not a number in
    [0, 2**63 - 1], a vehicle id given twice, or departures out of order. A
    vehicle without an id is named by its 1-based position in the document.
    Of several faults, a syntax error is named first, then another root, then
    the first faulty vehicle by start tag, then a repeated id, then the order.

    The parser is fed ``_FEED_CHARS`` characters at a time. Each vehicle is
    judged when its element ends, and the root's children are dropped at every
    end tag, so besides ``text`` and the result this holds one feed, the open
    elements and their children, and the columns read so far.
    """
    if not text.isascii() and _SURROGATES.search(text):
        text.encode("utf-8")  # raises what a parser fed all of the text raises
    fault: tuple[int, str] | None = None  # the number and text of the first fault; the root is number 0
    root = None
    open_vehicles: list[int] = []  # the column index of each vehicle not yet ended
    ids, departs, movements = [], [], []  # a vehicle's slot is added at its start tag and filled at its end
    try:
        for event, element in _pull_events(text):
            if event == "start":
                if root is None:
                    root = element
                    if root.tag != "routes":
                        fault = 0, f"expected <routes> document, got <{root.tag}>"
                elif element.tag == "vehicle":
                    open_vehicles.append(len(ids))
                    ids.append("")
                    departs.append(0)
                    movements.append(0)
                continue
            if element.tag == "vehicle" and element is not root:
                index = open_vehicles.pop()
                if fault is None or index + 1 < fault[0]:
                    try:
                        ids[index], departs[index], movements[index] = _vehicle(element, index + 1)
                    except ValueError as exc:
                        fault = index + 1, str(exc)
            del root[:]  # the parser still adds children to the elements it holds open
    except ET.ParseError as exc:
        raise ValueError(f"malformed routes document: {exc}") from None
    if fault is not None:
        raise ValueError(fault[1])
    if repeated := [ident for ident, n in Counter(ids).items() if n > 1]:
        raise ValueError(f"vehicle id {repeated[0]!r} appears more than once")
    plans = Departures(departs, movements, tuple(ids))
    plans.check_sorted()
    return plans


def _pull_events(text: str) -> Iterator[tuple[str, ET.Element]]:
    """The start and end events of the document ``text``, fed to the parser ``_FEED_CHARS`` characters at a time."""
    parser = ET.XMLPullParser(("start", "end"))
    for start in range(0, len(text), _FEED_CHARS):
        parser.feed(text[start : start + _FEED_CHARS])
        yield from parser.read_events()
    parser.close()
    yield from parser.read_events()


def _vehicle(element: ET.Element, number: int) -> tuple[str, int, Movement]:
    """The id, depart second and movement of the ``number``-th vehicle element; ``ValueError`` for its first fault."""
    ident, depart, route = element.get("id"), element.get("depart"), element.find("route")
    if ident is None or depart is None or route is None:
        name = f"vehicle number {number}" if ident is None else f"vehicle {ident!r}"
        raise ValueError(f"{name} has no {'id' if ident is None else 'depart' if depart is None else 'route'}")
    if (movement := _EDGE_MOVEMENTS.get(route.get("edges"))) is None:
        raise ValueError(f"unrecognized edge pair {route.get('edges', '')!r}")
    return ident, _depart_second(depart), movement


def _depart_second(text: str) -> int:
    # Decimal reads the text exactly, also past 2**53, and keeps an exponent
    # such as 1e999999999 symbolic instead of expanding it.
    try:
        depart = Decimal(text).to_integral_value(ROUND_HALF_EVEN)
    except InvalidOperation:
        raise ValueError(f"depart {text!r} is not a number") from None
    if not (depart.is_finite() and 0 <= depart <= MAX_DEPART):
        raise ValueError(f"depart {text!r} must be a finite number in [0, {MAX_DEPART}]")
    return int(depart)


def tls_xml(program: SignalProgram) -> tuple[str, list[tuple[int, str]]]:
    """The tlLogic document and the (minute, programID) switch schedule.

    Each distinct minute plan is one tlLogic, programIDs ``p000``, ``p001``, ...
    in order of first use. SUMO has no per-minute program switching; loading
    the scheduled programID each minute is left to the caller.
    """
    ids: dict[tuple[int, ...], str] = {}
    schedule = [
        (minute, ids.setdefault(greens, f"p{len(ids):03d}"))
        for minute, greens in enumerate(map(tuple, program.greens.tolist()))
    ]
    phase = '    <phase duration="{}" state="{}" />\n'.format
    logics = "".join(
        f'  <tlLogic id="center" type="static" programID="{program_id}" offset="0">\n'
        + "".join(
            phase(green, state) + phase(program.yellow, state.translate(_TO_YELLOW))
            for green, state in zip(greens, program.layout)
        )
        + "  </tlLogic>\n"
        for greens, program_id in ids.items()
    )
    return f"{XML_DECLARATION}<additional>\n{logics}</additional>\n", schedule


def write_routes(plans: Departures, path: str | Path) -> None:
    """``routes_xml`` written to ``path`` as its pieces come, one chunk of vehicles held at a time.

    Every check runs before the file is opened, so a ``ValueError`` leaves
    what was at ``path`` as it was.
    """
    plans.check_sorted()
    for _ in _escaped_ids(plans):
        pass
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_route_chunks(plans))


def read_routes(path: str | Path) -> Departures:
    """``parse_routes`` on a file; its ``ValueError`` names the file.

    Holds the file's bytes and its text while it decodes, then the text and
    what ``parse_routes`` holds.
    """
    return parse_file(path, parse_routes)


def write_tls(program: SignalProgram, xml_path: str | Path, schedule_path: str | Path) -> None:
    xml, schedule = tls_xml(program)
    Path(xml_path).write_text(xml, encoding="utf-8")
    write_csv(schedule_path, ("minute", "program_id"), schedule)
