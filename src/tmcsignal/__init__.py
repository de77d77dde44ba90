"""Turning-movement-count toolkit: demand generation, signal design, queue simulation."""

from tmcsignal.model import (
    IntersectionGeometry,
    Movement,
    Turn,
    Zone,
    read_geometries,
    read_tmc_tables,
    zone_capacity_rates,
)

__version__ = "0.1.0"

__all__ = [
    "IntersectionGeometry",
    "Movement",
    "Turn",
    "Zone",
    "read_geometries",
    "read_tmc_tables",
    "zone_capacity_rates",
    "__version__",
]
