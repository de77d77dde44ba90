"""SUMO-compatible interchange: sorted route documents and tlLogic signal programs.

Controlled-link state strings use a fixed 12-slot ordering, WBL..SBR (origin
zone W,N,E,S, then left/through/right within each). Deployments whose
connection order differs must remap the columns.

The route document is written straight from the departure columns, one
string join over all vehicles, in exactly the bytes that ElementTree's
``indent`` and ``tostring`` give for the same tree: two-space indents,
``depart="N.00"``, ``<route edges="..." />``, attribute values escaped for
``& < > " \n \r \t``, and ``<routes />`` for no vehicles. Departure seconds
are written and read back exactly, never through a float; the reader returns
``Departures`` with the ids as read.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from pathlib import Path
from typing import Sequence

from tmcsignal.model import MOVEMENTS, Movement, Zone, write_csv
from tmcsignal.signals import PhasePlan, SignalProgram
from tmcsignal.trafficgen import MAX_DEPART, Departures

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'

# origin/destination zone pair -> movement, for parsing route edges back
_EDGE_LOOKUP = {(m.origin, m.destination): m for m in MOVEMENTS}
_EDGES = [f"{m.origin.edge_in} {m.destination.edge_out}" for m in MOVEMENTS]
# What ElementTree escapes in an attribute value.
_ATTRIBUTE_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)


@dataclass(frozen=True)
class SumoTlsDoc:
    """One tlLogic program: 8 phase entries (green, yellow alternating)."""

    program_id: str
    plan: PhasePlan

    def phase_entries(self) -> list[tuple[int, str]]:
        entries = []
        for phase in self.plan.phases:
            green_state = "".join(
                "G" if m in phase.served else "g" if m in phase.permissive else "r"
                for m in MOVEMENTS
            )
            moving = phase.served | phase.permissive
            yellow_state = "".join("y" if m in moving else "r" for m in MOVEMENTS)
            entries.append((phase.green, green_state))
            entries.append((phase.yellow, yellow_state))
        return entries


def routes_xml(plans: Departures) -> str:
    """The route document, one vehicle element per plan; ``ValueError`` unless depart-sorted."""
    plans.check_sorted()
    if not len(plans):
        return XML_DECLARATION + "<routes />\n"
    vehicles = zip(
        (ident.translate(_ATTRIBUTE_ESCAPES) for ident in plans.ids),
        plans.departs.tolist(),
        [_EDGES[m] for m in plans.movements.tolist()],
    )
    body = "".join(
        f'  <vehicle id="{ident}" depart="{depart}.00">\n    <route edges="{edges}" />\n  </vehicle>\n'
        for ident, depart, edges in vehicles
    )
    return f"{XML_DECLARATION}<routes>\n{body}</routes>\n"


def parse_routes(text: str) -> Departures:
    """Inverse of ``routes_xml``; departs are rounded half to even to whole seconds.

    ``ValueError`` for another root element, a vehicle without a route or with an
    unknown edge pair, or a depart that is not a number in [0, 2**63 - 1].
    """
    root = ET.fromstring(text)
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
    return Departures(departs, movements, tuple(ids))


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


def emit_tls(program: SignalProgram) -> tuple[list[SumoTlsDoc], list[tuple[int, str]]]:
    """One tlLogic document per distinct minute plan, plus the minute switch schedule.

    SUMO itself has no per-minute program switching; the schedule CSV pairs each
    minute with the programID to load, leaving the switching mechanism to the
    caller.
    """
    ids_by_plan: dict[PhasePlan, str] = {}
    for plan in program.plans:
        ids_by_plan.setdefault(plan, f"p{len(ids_by_plan):03d}")
    docs = [SumoTlsDoc(program_id, plan) for plan, program_id in ids_by_plan.items()]
    return docs, [(minute, ids_by_plan[plan]) for minute, plan in enumerate(program.plans)]


def tls_to_xml(docs: Sequence[SumoTlsDoc]) -> str:
    """One tlLogic element per document, in a SUMO additional-file document."""
    root = ET.Element("additional")
    for doc in docs:
        logic = ET.SubElement(root, "tlLogic", id="center", type="static", programID=doc.program_id, offset="0")
        for duration, state in doc.phase_entries():
            ET.SubElement(logic, "phase", duration=str(duration), state=state)
    ET.indent(root)
    return XML_DECLARATION + ET.tostring(root, encoding="unicode") + "\n"


def write_routes(plans: Departures, path: str | Path) -> None:
    Path(path).write_text(routes_xml(plans), encoding="utf-8")


def read_routes(path: str | Path) -> Departures:
    return parse_routes(Path(path).read_text(encoding="utf-8"))


def write_tls(program: SignalProgram, xml_path: str | Path, schedule_path: str | Path) -> None:
    docs, schedule = emit_tls(program)
    Path(xml_path).write_text(tls_to_xml(docs), encoding="utf-8")
    write_csv(schedule_path, ("minute", "program_id"), schedule)
