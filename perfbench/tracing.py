"""Outside-in span tracing of tmcsignal's public entry points.

The tracer replaces each traced function at the module attribute where its
caller looks it up (``tmcsignal.cli.run_experiment``, ``tmcsignal.experiment.run``,
``tmcsignal.rl.train`` and so on) with a wrapper that records one span per call:
name, start, end and parent span. Counts come from arguments and return values
(``cfg.horizon``, ``len(program)``, the classified table), never from inside the
program. Spans stay in memory; ``uninstall`` restores every original name.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from tmcsignal.trajectory import VEHICLE


@dataclass
class Span:
    name: str
    start: int  # time.perf_counter_ns()
    end: int
    parent: int  # index of the enclosing span, -1 for a root
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_sim_run(result, args, kwargs):
    return {"cell_ticks": _arg(args, kwargs, 3, "cfg").horizon}


def _count_train(result, args, kwargs):
    # One step per minute of the TMC stream in every episode.
    return {"steps": _arg(args, kwargs, 1, "episodes") * len(_arg(args, kwargs, 0, "minute_tmcs"))}


def _count_demand(result, args, kwargs):
    return {"vehicles": len(result[0])}


def _count_program(result, args, kwargs):
    return {"minute_plans": len(result)}


def _count_movements(result, args, kwargs):
    trajectories = _arg(args, kwargs, 0, "trajectories")
    paths = _arg(args, kwargs, 1, "paths")
    vehicles = [t for t in trajectories if t.class_label == VEHICLE]
    # Every vehicle is compared with every path; one LCSS table cell per point pair.
    path_points = sum(len(p.points) for p in paths)
    return {
        "vehicles": len(vehicles),
        "lcss_cells": sum(len(t.points) for t in vehicles) * path_points,
        "classified": result.total,
    }


def _count_bytes(*path_args: tuple[int, str]):
    def count(result, args, kwargs):
        return {"bytes": sum(os.path.getsize(_arg(args, kwargs, i, n)) for i, n in path_args)}

    return count


@dataclass(frozen=True)
class Layer:
    """One traced function: span name, attribute name and the modules that look it up."""

    name: str
    attr: str
    sites: tuple[str, ...]
    count: Callable | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("cli.gen", "cmd_gen", ("tmcsignal.cli",)),
    Layer("cli.plan", "cmd_plan", ("tmcsignal.cli",)),
    Layer("cli.simulate", "cmd_simulate", ("tmcsignal.cli",)),
    Layer("cli.export-sumo", "cmd_export_sumo", ("tmcsignal.cli",)),
    Layer("cli.tmc", "cmd_tmc", ("tmcsignal.cli",)),
    Layer("cli.experiment", "cmd_experiment", ("tmcsignal.cli",)),
    Layer("experiment.run_experiment", "run_experiment", ("tmcsignal.cli",)),
    Layer("experiment.write_report", "write_report", ("tmcsignal.cli",)),
    Layer("experiment.write_winners", "write_winners", ("tmcsignal.cli",)),
    Layer("model.read_geometries", "read_geometries", ("tmcsignal.cli", "tmcsignal.experiment")),
    Layer(
        "trafficgen.generate_demand",
        "generate_demand",
        ("tmcsignal.cli", "tmcsignal.experiment"),
        _count_demand,
    ),
    Layer("trafficgen.read_departures", "read_departures", ("tmcsignal.cli",)),
    Layer("trafficgen.write_departures", "write_departures", ("tmcsignal.cli",)),
    Layer(
        "signals.build_program",
        "build_program",
        ("tmcsignal.cli", "tmcsignal.experiment", "tmcsignal.sim"),
        _count_program,
    ),
    Layer("sim.run", "run", ("tmcsignal.experiment", "tmcsignal.sim"), _count_sim_run),
    Layer("rl.train", "train", ("tmcsignal.rl",), _count_train),
    Layer("rl.build_rl_program", "build_rl_program", ("tmcsignal.rl",), _count_program),
    Layer("trajectory.read_trajectories", "read_trajectories", ("tmcsignal.cli",)),
    Layer("trajectory.count_movements", "count_movements", ("tmcsignal.cli",), _count_movements),
    Layer("sumo_io.write_routes", "write_routes", ("tmcsignal.cli",), _count_bytes((1, "path"))),
    Layer(
        "sumo_io.write_tls",
        "write_tls",
        ("tmcsignal.cli",),
        _count_bytes((1, "xml_path"), (2, "schedule_path")),
    ),
)


class Tracer:
    """Records spans in memory while installed; one tracer per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unpatched: list[str] = []  # "module.attr" sites that no longer exist
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, layer: Layer, fn):
        def traced(*args, **kwargs):
            index = self._open(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if layer.count is not None:
                self.spans[index].counts = layer.count(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer in LAYERS:
            for site in layer.sites:
                module = importlib.import_module(site)
                original = getattr(module, layer.attr, None)
                if original is None:
                    if f"{site}.{layer.attr}" not in self.unpatched:
                        self.unpatched.append(f"{site}.{layer.attr}")
                    continue
                self._saved.append((module, layer.attr, original))
                setattr(module, layer.attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that end before they start or leave their parent's interval."""
    errors = []
    for index, span in enumerate(spans):
        if span.end < span.start:
            errors.append(f"span {index} {span.name} ends before it starts")
        if span.parent >= index:
            errors.append(f"span {index} {span.name} has parent {span.parent} opened after it")
        elif span.parent >= 0:
            parent = spans[span.parent]
            if not parent.start <= span.start <= span.end <= parent.end:
                errors.append(f"span {index} {span.name} leaves parent {parent.name}")
    return errors


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy and self nanoseconds, and summed counts."""
    totals: dict[str, dict[str, float]] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["busy_ns"] += span.duration
        entry["self_ns"] += self_ns
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals
