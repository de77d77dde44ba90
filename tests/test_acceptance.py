"""Acceptance suite: one test per criterion, each printing its own pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import hashlib
import math
import time
import xml.etree.ElementTree as ET
from itertools import combinations

import numpy as np

from departure_rows import departures
from tmcsignal.experiment import ExperimentSpec, run_experiment, write_report, write_winners
from tmcsignal.model import (
    IntersectionGeometry,
    Movement,
    read_geometries,
    read_tmc_tables,
    zone_capacity_rates,
)
from tmcsignal.rl import ACTIONS, train
from tmcsignal.sim import SimConfig, evaluate, run
from tmcsignal.signals import PROTECTED_LEFT, SignalProgram, build_program, critical_counts, write_program
from tmcsignal.sumo_io import parse_routes, routes_xml, tls_xml
from tmcsignal.trafficgen import (
    PATTERNS,
    UNIVERSAL_WEIGHTS,
    BimodalProfile,
    DemandSpec,
    MinuteTmc,
    generate_demand,
)
from tmcsignal.trajectory import Trajectory, classify, lcss, synthetic_typical_paths

# Published zone capacity table: (C1i,C1o,C2i,C2o,C3i,C3o,C4i,C4o), TC.
PUBLISHED_RATES = {
    "INT1": ((84, 414, 241, 387, 226, 58, 124, 252), 103),
    "INT2": ((60, 206, 33, 47, 150, 71, 29, 16), 44),
    "INT3": ((320, 312, 235, 920, 181, 393, 528, 413), 189),
    "INT4": ((73, 503, 140, 242, 155, 147, 141, 160), 84),
    "INT5": ((388, 1946, 954, 761, 1175, 1451, 569, 1001), 483),
    "INT6": ((447, 555, 684, 456, 533, 1795, 198, 381), 294),
}


def one_minute_greens(counts, policy: str, cycle: int) -> tuple[int, ...]:
    """The greens ``build_program`` gives a one-minute stream of ``counts``, with 3 s yellows."""
    return tuple(build_program(MinuteTmc([counts]), policy, cycle, 3).greens[0].tolist())


def report(number: int, name: str, ok: bool) -> None:
    print(f"\n[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_capacity_rate_reproduction():
    start = time.perf_counter()
    geometries = read_geometries()
    ids, counts = read_tmc_tables()
    lanes_in = [geometries[key].lanes_in for key in ids]
    lanes_out = [geometries[key].lanes_out for key in ids]
    inflow, outflow, total = zone_capacity_rates(lanes_in, lanes_out, counts)
    ok = ids == tuple(PUBLISHED_RATES)
    for k, (cells, tc) in enumerate(PUBLISHED_RATES.values()):
        flat = [x for pair in zip(inflow[k].tolist(), outflow[k].tolist()) for x in pair]
        ok &= all(abs(g - want) <= 1 for g, want in zip(flat, cells))
        ok &= abs(int(total[k]) - tc) <= 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, f"capacity rates within +/-1, {elapsed * 1000:.0f} ms", ok)


def test_criterion_2_pattern_algebra():
    lib = PATTERNS
    ok = all(sum(p.weights) == 1.0 for p in lib.values())
    for base, comp in (("PC", "PD"), ("PB", "PF"), ("PE", "PG")):
        summed = tuple(a + b for a, b in zip(lib[base].weights, lib[comp].weights))
        ok &= summed == UNIVERSAL_WEIGHTS
    report(2, "pattern complements bit-exact, sums exact", ok)


def test_criterion_3_dynamic_allocation_oracle():
    ids, counts = read_tmc_tables()
    observed = counts[ids.index("INT1")].tolist()
    crit = critical_counts([observed])[0].tolist()
    quotas = [x / sum(crit) * 90 - 3 for x in crit]

    # Independent oracle: the integer split of 78 closest (L2) to the quotas.
    best, best_cost = None, None
    for g1 in range(5, 64):
        for g2 in range(5, 69 - g1):
            for g3 in range(5, 74 - g1 - g2):
                g4 = 78 - g1 - g2 - g3
                if g4 < 5:
                    continue
                cost = sum((g - q) ** 2 for g, q in zip((g1, g2, g3, g4), quotas))
                if best_cost is None or cost < best_cost - 1e-12:
                    best, best_cost = (g1, g2, g3, g4), cost
    ok = best == (29, 21, 20, 8)
    ok &= one_minute_greens(observed, "dynamic", 90) == (29, 21, 20, 8)

    rng = np.random.default_rng(2025)
    for _ in range(1000):
        tmc = rng.integers(0, 4000, size=12).tolist()
        cycle = int(rng.choice([60, 90, 120, 150]))
        ok &= sum(one_minute_greens(tmc, "dynamic", cycle)) + 4 * 3 == cycle
    report(3, "dynamic greens (29,21,20,8); cycle conserved on 1000 tables", ok)


def test_criterion_4_hybrid_bit_equality(tmp_path):
    rng = np.random.default_rng(7)
    tables = MinuteTmc([rng.integers(0, 40, size=12) for _ in range(240)])
    static = build_program(tables, "static", 90)
    dynamic = build_program(tables, "dynamic", 90)
    empty_peaks = build_program(tables, "hybrid", 90, peak_minutes=())
    full_peaks = build_program(tables, "hybrid", 90, peak_minutes=range(240))
    default_hybrid = build_program(tables, "hybrid", 90)

    paths = {}
    for name, program in (
        ("static", static), ("dynamic", dynamic),
        ("empty", empty_peaks), ("full", full_peaks),
    ):
        paths[name] = tmp_path / f"{name}.csv"
        write_program(program, paths[name])

    ok = empty_peaks == static
    ok &= paths["empty"].read_bytes() == paths["static"].read_bytes()
    ok &= full_peaks == dynamic
    ok &= paths["full"].read_bytes() == paths["dynamic"].read_bytes()
    for minute in range(240):
        expected = dynamic if 60 <= minute < 180 else static
        ok &= default_hybrid.greens[minute].tolist() == expected.greens[minute].tolist()
    ok &= default_hybrid.greens[59].tolist() == static.greens[59].tolist()
    ok &= default_hybrid.greens[60].tolist() == dynamic.greens[60].tolist()
    ok &= default_hybrid.greens[179].tolist() == dynamic.greens[179].tolist()
    ok &= default_hybrid.greens[180].tolist() == static.greens[180].tolist()
    report(4, "hybrid byte-equality and switch minutes 60/180", ok)


def _brute_force_lcss(a, b, eps):
    def matches(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1])) <= eps

    def matchable(sub, seq):
        i = 0
        for p in sub:
            while i < len(seq) and not matches(p, seq[i]):
                i += 1
            if i == len(seq):
                return False
            i += 1
        return True

    if len(a) > len(b):
        a, b = b, a
    for length in range(len(a), 0, -1):
        for idxs in combinations(range(len(a)), length):
            if matchable([a[i] for i in idxs], b):
                return length
    return 0


def test_criterion_5_lcss_oracle_and_classification():
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(500):
        na, nb = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        a = [tuple(map(float, p)) for p in rng.integers(-12, 13, size=(na, 2))]
        b = [tuple(map(float, p)) for p in rng.integers(-12, 13, size=(nb, 2))]
        eps = float(rng.uniform(0.5, 8.0))
        ok &= lcss(a, b, eps) == _brute_force_lcss(a, b, eps)

    paths = synthetic_typical_paths()
    eps = 25.0
    target = next(p for p in paths if p.movement is Movement.EBT)
    hits = 0
    for _ in range(100):
        noise = rng.normal(0, eps / 3, size=(len(target.points), 2))
        noisy = tuple((x + dx, y + dy) for (x, y), (dx, dy) in zip(target.points, noise))
        hits += classify(Trajectory("t", 1, noisy), paths, eps=eps) is Movement.EBT
    ok &= hits >= 95
    report(5, f"LCSS matches brute force on 500 pairs; noisy clones {hits}/100", ok)


def test_criterion_6_conservation_and_trace():
    rng = np.random.default_rng(66)
    ok = True
    for _ in range(1000):
        geo = IntersectionGeometry(
            "X",
            tuple(int(n) for n in rng.integers(1, 7, size=4)),
            tuple(int(n) for n in rng.integers(1, 7, size=4)),
        )
        horizon = int(rng.integers(60, 400))
        n = int(rng.integers(0, 40))
        departs = sorted(int(t) for t in rng.integers(0, horizon + 120, size=n))
        plans = departures([
            (f"v{i:03d}", t, Movement(int(rng.integers(0, 12))))
            for i, t in enumerate(departs)
        ])
        cycle = int(rng.choice([60, 90]))
        static = one_minute_greens((0,) * 12, "static", cycle)
        program = SignalProgram(PROTECTED_LEFT, [static] * math.ceil(horizon / 60), 3, cycle)
        result = run([geo], [plans], [program], SimConfig(horizon=horizon))[0]
        injected = sum(1 for t in departs if t < horizon)
        ok &= result.injected == injected
        ok &= result.served + result.residual_queue == injected

    geo = read_geometries()["INT1"]
    program = SignalProgram(PROTECTED_LEFT, [one_minute_greens((0,) * 12, "static", 90)] * 60, 3, 90)
    trace = run(
        [geo],
        [departures([("v0", 0, Movement.NBT)])],
        [program],
        SimConfig(horizon=3600),
    )[0]
    ok &= 46 <= trace.total_wait <= 48 and trace.served == 1
    report(6, f"conservation on 1000 scenarios; trace wait {trace.total_wait}s in [46,48]", ok)


# sha256 of report.csv and winners.csv for the default grid at seed 7; the
# optimised kernel and program builds must leave these bytes unchanged.
PINNED_GRID_SHA256 = {
    "report.csv": "9b81bf7b110b315dd5aa7c210ea8696a3c41082c8af30d2a4df94d6b6745bb54",
    "winners.csv": "46319109fbfb659bbe1cd769d178ffca4a7097b8fc87207f3fc08c3fbaeb1384",
}


def test_criterion_7_policy_ordering_and_grid(tmp_path):
    geometries = read_geometries()
    cfg_hour = SimConfig(horizon=3600)

    offpeak = BimodalProfile(hours=("offpeak",))
    plans_a, _ = generate_demand(DemandSpec(profile=offpeak, pattern=PATTERNS["PA"], seed=11))
    static_wins = 0
    for geo in geometries.values():
        s = evaluate(geo, plans_a, "static", 90, cfg_hour).nwt
        d = evaluate(geo, plans_a, "dynamic", 90, cfg_hour).nwt
        static_wins += s <= d * 1.02
    ok = static_wins >= 4

    peak = BimodalProfile(hours=("peak",))
    plans_b, _ = generate_demand(DemandSpec(profile=peak, pattern=PATTERNS["PC"], seed=12))
    dynamic_wins = 0
    for geo in geometries.values():
        s = evaluate(geo, plans_b, "static", 90, cfg_hour).nwt
        d = evaluate(geo, plans_b, "dynamic", 90, cfg_hour).nwt
        dynamic_wins += d <= s
    ok &= dynamic_wins >= 5

    plans_c, _ = generate_demand(DemandSpec(pattern=PATTERNS["PC"], seed=7))
    cfg_day = SimConfig(horizon=14400)
    hybrid_ok = 0
    for geo in geometries.values():
        s = evaluate(geo, plans_c, "static", 90, cfg_day).nwt
        d = evaluate(geo, plans_c, "dynamic", 90, cfg_day).nwt
        h = evaluate(geo, plans_c, "hybrid", 90, cfg_day).nwt
        hybrid_ok += h <= max(s, d)
    ok &= hybrid_ok == len(geometries)

    start = time.perf_counter()
    spec = ExperimentSpec()
    results = run_experiment(spec)
    grid_seconds = time.perf_counter() - start
    ok &= len(results) == 6 * 7 * 4 * 4
    ok &= grid_seconds < 600
    write_report(results, tmp_path / "report.csv")
    write_winners(results, tmp_path / "winners.csv")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED_GRID_SHA256}
    assert digests == PINNED_GRID_SHA256
    report(
        7,
        f"static {static_wins}/6 at off-peak PA, dynamic {dynamic_wins}/6 at peak PC, "
        f"hybrid bounded {hybrid_ok}/6; full grid {grid_seconds:.0f}s < 600s",
        ok,
    )


def test_criterion_8_rl_sanity(tmp_path, dominant_wb_allocators):
    ok = all(sum(a) == 10 and min(a) >= 1 for a in ACTIONS)
    ok &= all(math.fsum(t / 10 for t in a) == 1.0 for a in ACTIONS)

    dominant = (20, 60, 20, 2, 6, 2, 2, 6, 2, 2, 6, 2)
    stream = MinuteTmc([dominant] * 60)
    volumes = [sum(dominant[3 * z : 3 * z + 3]) for z in range(4)]
    state = tuple(v / max(volumes) for v in volumes)
    hits = 0
    # dominant_wb_allocators is train([stream] * 10, episodes=100, seeds=range(10)), trained once per session.
    for q in dominant_wb_allocators:
        action = q.greedy_action(state)
        hits += action[0] == max(action)
    ok &= hits >= 8

    log = tmp_path / "progress.csv"
    train([stream], episodes=50, seeds=[0], log_path=log)
    rows = log.read_text().splitlines()[1:]
    rewards = [float(r.split(",")[2]) for r in rows]
    decile = max(1, len(rewards) // 10)
    ok &= sum(rewards[-decile:]) / decile >= sum(rewards[:decile]) / decile
    report(8, f"simplex exact; dominant direction {hits}/10 seeds; reward improves", ok)


def test_criterion_9_interchange_roundtrip():
    rng = np.random.default_rng(99)
    raw = sorted(
        (int(t), Movement(int(m)))
        for t, m in zip(rng.integers(0, 7200, size=300), rng.integers(0, 12, size=300))
    )
    plans = departures([(f"v{i:05d}", t, m) for i, (t, m) in enumerate(raw)])
    ok = parse_routes(routes_xml(plans)) == plans

    for cycle in (60, 90, 120, 150):
        tables = MinuteTmc([rng.integers(0, 300, size=12) for _ in range(30)])
        for policy in ("static", "dynamic", "hybrid"):
            program = build_program(tables, policy, cycle)
            xml, schedule = tls_xml(program)
            ok &= len(schedule) == 30
            for logic in ET.fromstring(xml).iter("tlLogic"):
                durations = [int(phase.get("duration")) for phase in logic.iter("phase")]
                ok &= len(durations) == 8
                ok &= sum(durations) == cycle
    report(9, "route round-trip identity; tlLogic 8 phases summing to cycle", ok)
