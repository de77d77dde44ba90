"""Vehicles as ``(id, depart, movement)`` rows, for tests that build ``Departures`` by hand or read them back."""

from __future__ import annotations

from typing import NamedTuple

from tmcsignal.model import MOVEMENTS, Movement
from tmcsignal.trafficgen import Departures


class Row(NamedTuple):
    id: str
    depart: int
    movement: Movement


def departures(rows) -> Departures:
    """``rows`` as columns, in the given order, with their ids as given."""
    return Departures([r[1] for r in rows], [r[2] for r in rows], tuple(r[0] for r in rows))


def rows_of(plans: Departures) -> list[Row]:
    return list(map(Row, plans.ids, plans.departs.tolist(), [MOVEMENTS[m] for m in plans.movements.tolist()]))
