"""The scalar demand and lane splits that the array apportionments replaced, kept as the slow reference.

``hourly_counts`` draws one hour at a time, ``split_by_zone`` splits one
hour's total, ``split_by_movement`` one hour's four zone counts, and
``assign_lanes`` one geometry's approaches, each through the one-row
``proportional_split`` or the scalar largest remainder. ``trafficgen.split_counts``,
``trafficgen.generate_demand`` and ``sim.assign_lanes`` must give the bits these give.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from plan_oracle import largest_remainder
from tmcsignal.model import IntersectionGeometry
from tmcsignal.sim import SHARED_LANE_WEIGHTS
from tmcsignal.trafficgen import BimodalProfile, TurnRatio, ZonePattern


def proportional_split(weights: Sequence[float], total: int) -> list[int]:
    """Split ``total`` into integer parts proportional to ``weights``, of a positive sum (largest remainder)."""
    s = sum(weights)
    return largest_remainder([w / s * total for w in weights], total)


def hourly_counts(profile: BimodalProfile, seed) -> list[int]:
    """One rounded, zero-clamped normal draw per scheduled hour."""
    rng = np.random.default_rng(seed)
    out = []
    for kind in profile.hours:
        if kind == "peak":
            mu, sigma = profile.mu_peak, profile.sigma_peak
        else:
            mu, sigma = profile.mu_offpeak, profile.sigma_offpeak
        out.append(max(0, int(round(rng.normal(mu, sigma)))))
    return out


def split_by_zone(total: int, pattern: ZonePattern, mode: str = "deterministic", seed=None) -> tuple[int, ...]:
    """Split an hour's total into four zone counts; the total is always conserved."""
    if mode == "deterministic":
        return tuple(proportional_split(pattern.weights, total))
    rng = np.random.default_rng(seed)
    return tuple(int(c) for c in rng.multinomial(total, pattern.weights))


def split_by_movement(zone_counts: Sequence[int], ratios: TurnRatio, mode: str = "deterministic", seed=None):
    """Apportion each zone's count into (left, through, right): the 12 movement counts, totals preserved."""
    rng = np.random.default_rng(seed) if mode == "sampled" else None
    counts: list[int] = []
    for n, triple in zip(map(int, zone_counts), ratios.by_zone, strict=True):
        counts += proportional_split(triple, n) if rng is None else rng.multinomial(n, triple).tolist()
    return tuple(counts)


def hourly_tables(spec) -> tuple[list[tuple[int, ...]], object]:
    """A demand spec's 12 movement counts per hour, and the seed of its departure stream."""
    s_hour, s_zone, s_move, s_depart = np.random.SeedSequence(spec.seed).spawn(4)
    totals = hourly_counts(spec.profile, s_hour)
    zone_seeds, move_seeds = s_zone.spawn(len(totals)), s_move.spawn(len(totals))
    tables = []
    for h, total in enumerate(totals):
        zones = split_by_zone(total, spec.pattern, spec.mode, zone_seeds[h])
        tables.append(split_by_movement(zones, spec.ratios, spec.mode, move_seeds[h]))
    return tables, s_depart


def assign_lanes(geo: IntersectionGeometry) -> tuple[float, ...]:
    """Effective lane count serving each movement of one geometry, WBL..SBR, one approach at a time."""
    eff: list[float] = []
    total = sum(SHARED_LANE_WEIGHTS)
    for n in geo.lanes_in:
        if n >= 3:
            through, right = largest_remainder([2 / 3 * (n - 1), 1 / 3 * (n - 1)], n - 1)
            eff += [1.0, float(through), float(right)]
        else:
            eff += [n * w / total for w in SHARED_LANE_WEIGHTS]
    return tuple(eff)
