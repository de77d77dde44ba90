"""SUMO-compatible interchange: sorted route documents and tlLogic signal programs.

Controlled-link state strings use a fixed 12-slot ordering, WBL..SBR (origin
zone W,N,E,S, then left/through/right within each). Deployments whose
connection order differs must remap the columns.
"""

from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from tmcsignal.model import MOVEMENTS, Movement, Zone
from tmcsignal.signals import PhasePlan, SignalProgram
from tmcsignal.trafficgen import VehiclePlan

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'

# origin/destination zone pair -> movement, for parsing route edges back
_EDGE_LOOKUP = {(m.origin, m.destination): m for m in MOVEMENTS}


@dataclass(frozen=True)
class SumoRouteDoc:
    """Route document: one vehicle element per plan, sorted by departure."""

    vehicles: tuple[VehiclePlan, ...]

    def to_xml(self) -> str:
        root = ET.Element("routes")
        for plan in self.vehicles:
            vehicle = ET.SubElement(
                root, "vehicle", id=plan.id, depart=f"{plan.depart:.2f}"
            )
            ET.SubElement(
                vehicle,
                "route",
                edges=f"{plan.movement.origin.edge_in} {plan.movement.destination.edge_out}",
            )
        ET.indent(root)
        return XML_DECLARATION + ET.tostring(root, encoding="unicode") + "\n"


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

    def to_element(self) -> ET.Element:
        logic = ET.Element(
            "tlLogic", id="center", type="static", programID=self.program_id, offset="0"
        )
        for duration, state in self.phase_entries():
            ET.SubElement(logic, "phase", duration=str(duration), state=state)
        return logic


def emit_routes(plans: Sequence[VehiclePlan]) -> SumoRouteDoc:
    """Build the route document; the input must already be depart-sorted."""
    last = -1
    for p in plans:
        if p.depart < last:
            raise ValueError("route documents require depart-sorted plans")
        last = p.depart
    return SumoRouteDoc(tuple(plans))


def parse_routes(text: str) -> list[VehiclePlan]:
    """Inverse of emit_routes: read vehicle ids, departures, and edge pairs."""
    root = ET.fromstring(text)
    if root.tag != "routes":
        raise ValueError(f"expected <routes> document, got <{root.tag}>")
    plans = []
    for vehicle in root.iter("vehicle"):
        route = vehicle.find("route")
        if route is None:
            raise ValueError(f"vehicle {vehicle.get('id')!r} has no route")
        edges = (route.get("edges") or "").split()
        if len(edges) != 2:
            raise ValueError(f"expected an edge pair, got {edges}")
        movement = _movement_from_edges(edges[0], edges[1])
        plans.append(
            VehiclePlan(
                id=vehicle.get("id", ""),
                depart=int(round(float(vehicle.get("depart", "0")))),
                movement=movement,
            )
        )
    return plans


def _movement_from_edges(edge_in: str, edge_out: str) -> Movement:
    try:
        origin = int(edge_in[:-1])
        destination = int(edge_out[:-1])
        if edge_in[-1] != "i" or edge_out[-1] != "o":
            raise ValueError
        return _EDGE_LOOKUP[(Zone(origin), Zone(destination))]
    except (ValueError, KeyError, IndexError):
        raise ValueError(f"unrecognized edge pair {edge_in!r} {edge_out!r}") from None


def emit_tls(program: SignalProgram) -> tuple[list[SumoTlsDoc], list[tuple[int, str]]]:
    """One tlLogic document per distinct minute plan, plus the minute switch schedule.

    SUMO itself has no per-minute program switching; the schedule CSV pairs each
    minute with the programID to load, leaving the switching mechanism to the
    caller.
    """
    docs: list[SumoTlsDoc] = []
    ids_by_plan: dict[PhasePlan, str] = {}
    schedule: list[tuple[int, str]] = []
    for minute in range(len(program)):
        plan = program.plan_at(minute)
        if plan not in ids_by_plan:
            ids_by_plan[plan] = f"p{len(ids_by_plan):03d}"
            docs.append(SumoTlsDoc(ids_by_plan[plan], plan))
        schedule.append((minute, ids_by_plan[plan]))
    return docs, schedule


def tls_to_xml(docs: Sequence[SumoTlsDoc]) -> str:
    """Wrap the tlLogic elements in a SUMO additional-file document."""
    root = ET.Element("additional")
    for doc in docs:
        root.append(doc.to_element())
    ET.indent(root)
    return XML_DECLARATION + ET.tostring(root, encoding="unicode") + "\n"


def write_routes(plans: Sequence[VehiclePlan], path: str | Path) -> None:
    Path(path).write_text(emit_routes(plans).to_xml(), encoding="utf-8")


def read_routes(path: str | Path) -> list[VehiclePlan]:
    return parse_routes(Path(path).read_text(encoding="utf-8"))


def write_tls(program: SignalProgram, xml_path: str | Path, schedule_path: str | Path) -> None:
    docs, schedule = emit_tls(program)
    Path(xml_path).write_text(tls_to_xml(docs), encoding="utf-8")
    with open(schedule_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("minute", "program_id"))
        writer.writerows(schedule)
