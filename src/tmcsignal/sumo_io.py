"""SUMO-compatible interchange: sorted route documents and tlLogic signal programs.

A tlLogic phase is a duration and a state string over the controlled links.
Each minute plan of a program becomes 8 phases: for each phase of its layout,
the layout's green-state string (``signals.PROTECTED_LEFT`` or
``signals.SPLIT_PHASE``) for the green, then the same string with ``G`` and
``g`` turned into ``y`` for the yellow. The strings use a fixed 12-slot
ordering, WBL..SBR (origin zone W,N,E,S, then left/through/right within each).
Deployments whose connection order differs must remap the columns.

The route document is written straight from the departure columns, one
string join over all vehicles, in exactly the bytes that ElementTree's
``indent`` and ``tostring`` give for the same tree: two-space indents,
``depart="N.00"``, ``<route edges="..." />``, attribute values escaped for
``& < > " \n \r \t``, and ``<routes />`` for no vehicles. An id holding a
character XML 1.0 cannot carry is a ``ValueError``, never a document that
cannot be read back. Departure seconds are written and read back exactly,
never through a float; the reader returns ``Departures`` with the ids as read.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from pathlib import Path
from typing import Mapping, Sequence

from tmcsignal.model import MOVEMENTS, Movement, Zone, write_csv
from tmcsignal.signals import SignalProgram
from tmcsignal.trafficgen import MAX_DEPART, Departures

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'

# origin/destination zone pair -> movement, for parsing route edges back
_EDGE_LOOKUP = {(m.origin, m.destination): m for m in MOVEMENTS}
_EDGES = [f"{m.origin.edge_in} {m.destination.edge_out}" for m in MOVEMENTS]
# Characters XML 1.0 cannot carry, not even as a character reference.
_NOT_XML = [*range(0x00, 0x09), 0x0B, 0x0C, *range(0x0E, 0x20), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF]
# What ElementTree escapes in an attribute value; a character of _NOT_XML
# becomes NUL, the separator routes_xml joins the ids with.
_ATTRIBUTE_ESCAPES = str.maketrans(
    dict.fromkeys(_NOT_XML, "\0")
    | {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)
_TO_YELLOW = str.maketrans("Gg", "yy")


def routes_xml(plans: Departures) -> str:
    """The route document, one vehicle element per plan.

    ``ValueError`` unless depart-sorted, or naming the first vehicle whose id
    holds a character XML 1.0 cannot carry.
    """
    plans.check_sorted()
    if not len(plans):
        return XML_DECLARATION + "<routes />\n"
    ids = plans.ids
    escaped = "\0".join(ids).translate(_ATTRIBUTE_ESCAPES).split("\0")
    if len(escaped) != len(ids):
        bad = next(ident for ident in ids if "\0" in ident.translate(_ATTRIBUTE_ESCAPES))
        raise ValueError(f"vehicle {bad!r}: the id holds a character XML 1.0 cannot carry")
    vehicles = zip(escaped, plans.departs.tolist(), map(_EDGES.__getitem__, plans.movements.tolist()))
    body = "".join(
        f'  <vehicle id="{ident}" depart="{depart}.00">\n    <route edges="{edges}" />\n  </vehicle>\n'
        for ident, depart, edges in vehicles
    )
    return f"{XML_DECLARATION}<routes>\n{body}</routes>\n"


def parse_routes(text: str) -> Departures:
    """Inverse of ``routes_xml``; departs are rounded half to even to whole seconds.

    ``ValueError`` for a document that is not well-formed XML, another root
    element, a vehicle without a route or with an unknown edge pair, a depart
    that is not a number in [0, 2**63 - 1], a vehicle id given twice, or
    departures out of order.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ValueError(f"malformed routes document: {exc}") from None
    if root.tag != "routes":
        raise ValueError(f"expected <routes> document, got <{root.tag}>")
    ids, departs, movements = [], [], []
    for vehicle in root.iter("vehicle"):
        route = vehicle.find("route")
        if route is None:
            raise ValueError(f"vehicle {vehicle.get('id')!r} has no route")
        ids.append(vehicle.get("id", ""))
        departs.append(_depart_second(vehicle.get("depart", "0")))
        movements.append(_movement_from_edges(route.get("edges", "")))
    if repeated := [ident for ident, n in Counter(ids).items() if n > 1]:
        raise ValueError(f"vehicle id {repeated[0]!r} appears more than once")
    plans = Departures(departs, movements, tuple(ids))
    plans.check_sorted()
    return plans


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


def _movement_from_edges(edges: str) -> Movement:
    try:
        edge_in, edge_out = edges.split()
        origin = int(edge_in[:-1])
        destination = int(edge_out[:-1])
        if edge_in[-1] != "i" or edge_out[-1] != "o":
            raise ValueError
        return _EDGE_LOOKUP[(Zone(origin), Zone(destination))]
    except (ValueError, KeyError, IndexError):
        raise ValueError(f"unrecognized edge pair {edges!r}") from None


def phase_entries(layout: Sequence[str], greens: Sequence[int], yellow: int) -> list[tuple[int, str]]:
    """The 8 (duration, state) tlLogic phases of one minute plan: each green, then its yellow."""
    entries = []
    for state, green in zip(layout, greens, strict=True):
        entries.append((green, state))
        entries.append((yellow, state.translate(_TO_YELLOW)))
    return entries


def emit_tls(program: SignalProgram) -> tuple[dict[str, list[tuple[int, str]]], list[tuple[int, str]]]:
    """The phase entries of each distinct minute plan under its programID, plus the minute switch schedule.

    SUMO itself has no per-minute program switching; the schedule CSV pairs each
    minute with the programID to load, leaving the switching mechanism to the
    caller.
    """
    minute_greens = list(map(tuple, program.greens.tolist()))
    ids: dict[tuple[int, ...], str] = {}
    for greens in minute_greens:
        ids.setdefault(greens, f"p{len(ids):03d}")
    docs = {program_id: phase_entries(program.layout, greens, program.yellow) for greens, program_id in ids.items()}
    return docs, [(minute, ids[greens]) for minute, greens in enumerate(minute_greens)]


def tls_to_xml(docs: Mapping[str, Sequence[tuple[int, str]]]) -> str:
    """One tlLogic element per programID and its phase entries, in a SUMO additional-file document."""
    root = ET.Element("additional")
    for program_id, entries in docs.items():
        logic = ET.SubElement(root, "tlLogic", id="center", type="static", programID=program_id, offset="0")
        for duration, state in entries:
            ET.SubElement(logic, "phase", duration=str(duration), state=state)
    ET.indent(root)
    return XML_DECLARATION + ET.tostring(root, encoding="unicode") + "\n"


def write_routes(plans: Departures, path: str | Path) -> None:
    Path(path).write_text(routes_xml(plans), encoding="utf-8")


def read_routes(path: str | Path) -> Departures:
    """``parse_routes`` on a file; its ``ValueError`` names the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return parse_routes(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_tls(program: SignalProgram, xml_path: str | Path, schedule_path: str | Path) -> None:
    docs, schedule = emit_tls(program)
    Path(xml_path).write_text(tls_to_xml(docs), encoding="utf-8")
    write_csv(schedule_path, ("minute", "program_id"), schedule)
