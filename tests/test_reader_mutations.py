"""Every file reader either returns what its writer wrote or fails with one ``error:`` line.

One valid small input per reader is mutated once: truncated, a line deleted or
duplicated, or one field (a CSV field, a keyed-text key or list item, a line
of an allocator snapshot, or an XML attribute value) replaced from a pool of
hostile values. The mutated file goes through ``cli.main``, or straight to its
reader when no command reads it alone, with warnings raised as errors. The
run must exit 0, and then the value the reader returns must read back equal
after its writer writes it; or it must exit 1 with exactly one ``error:`` line.
A second test puts the byte 0xff, which is not UTF-8, at the start of each
input's second line; every reader must then exit 1 naming the file and line.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmcsignal.cli import main
from tmcsignal.experiment import ExperimentSpec, read_experiment_spec
from tmcsignal.model import TMC_TABLE_FIELDS, read_geometries, read_tmc_tables, write_csv, write_geometries
from tmcsignal.rl import QFunction
from tmcsignal.signals import read_program, write_program
from tmcsignal.sumo_io import read_routes, write_routes
from tmcsignal.trafficgen import (
    BimodalProfile,
    DemandSpec,
    read_demand_spec,
    read_departures,
    read_minute_tmc,
    write_departures,
    write_minute_tmc,
)
from tmcsignal.trajectory import (
    read_trajectories,
    read_typical_paths,
    synthetic_typical_paths,
    write_trajectories,
    write_typical_paths,
)

POOL = ("nan", "inf", "1e400", "-1", "x", "", '"', "\x00", "9" * 401)

VALID = {
    "departures.csv": "id,depart,movement\nv0,0,WBT\nv1,4,NBT\nv2,4,EBL\nv3,30,SBR\n",
    "tmc.csv": (
        "minute,WBL,WBT,WBR,NBL,NBT,NBR,EBL,EBT,EBR,SBL,SBT,SBR\n"
        "0,1,2,1,1,1,1,1,1,1,1,1,1\n1,0,0,0,0,0,0,0,0,0,0,0,3\n"
    ),
    "geometries.csv": (
        "id,lanes_1i,lanes_1o,lanes_2i,lanes_2o,lanes_3i,lanes_3o,lanes_4i,lanes_4o\n"
        "X,2,2,2,2,2,2,2,2\nY,1,2,3,4,1,2,3,4\n"
    ),
    "program.csv": "minute,g1,y1,g2,y2,g3,y3,g4,y4\n0,21,3,21,3,21,3,21,3\n1,30,3,12,3,21,3,21,3\n",
    "trajectories.csv": "id,class,frame,x,y\na,1,0,0,240\na,1,1,100,220\na,1,2,200,200\nb,0,0,5,5\nb,0,1,6,6\n",
    "paths.csv": "movement,x,y\n"
    + "".join(f"{p.movement.name},{x},{y}\n" for p in synthetic_typical_paths(points_per_path=5) for x, y in p.points),
    "tmc_tables.csv": (
        "id,WBL,WBT,WBR,NBL,NBT,NBR,EBL,EBT,EBR,SBL,SBT,SBR\n"
        "A,1,2,3,4,5,6,7,8,9,10,11,12\nB,0,0,0,0,0,0,0,0,0,0,0,7\n"
    ),
    "demand.txt": (
        "mu_peak = 60\nsigma_peak = 5\nmu_offpeak = 30\nsigma_offpeak = 4\nhours = offpeak, peak\n"
        "pattern = PC\nturn_ratios = 0.25, 0.5, 0.25\nseed = 3\nmode = sampled\n"
    ),
    "grid.txt": (
        "geometries = INT1, INT2\npatterns = PA, PC\npolicies = static, rl\ncycles = 60, 90\nseed = 7\n"
        "rl_episodes = 2\nhours = offpeak\nmu_offpeak = 100\ngeometry_file = g.csv\n"
    ),
    # An allocator of hidden width 1: 4 + 1 + 84 weights and 1 + 1 + 84 biases.
    "weights.txt": "layers 4 1 1 84\nseed 3\nepisodes 2\nnorm 5.0\n" + "0.25\n-1.5\n" * 87 + "2.0\n",
    "routes.xml": '<?xml version="1.0" encoding="UTF-8"?>\n<routes>\n'
    + "".join(
        f'  <vehicle id="v{i}" depart="{depart}.00">\n    <route edges="{edges}" />\n  </vehicle>\n'
        for i, (depart, edges) in enumerate([(0, "1i 3o"), (4, "2i 4o"), (4, "3i 4o"), (30, "4i 3o")])
    )
    + "</routes>\n",
}


def read_tmc_table_rows(path):
    ids, counts = read_tmc_tables(path)
    return ids, counts.tolist()


def write_tmc_table_rows(tables, path) -> None:
    ids, rows = tables
    write_csv(path, TMC_TABLE_FIELDS, ([tid, *row] for tid, row in zip(ids, rows)))


def read_snapshot(path) -> str:
    """The text ``QFunction.save`` writes for the allocator ``QFunction.load`` reads from ``path``."""
    saved = Path(f"{path}.saved")
    QFunction.load(path).save(saved)
    return saved.read_text()


def profile_text(profile: BimodalProfile) -> str:
    keys = ("mu_offpeak", "sigma_offpeak", "mu_peak", "sigma_peak")
    return "".join(f"{key} = {getattr(profile, key)!r}\n" for key in keys)


def write_demand_spec(spec: DemandSpec, path) -> None:
    """Keyed text that ``read_demand_spec`` reads back as ``spec``, whose turn ratios are one triple for every zone."""
    (ratios,) = set(spec.ratios.by_zone)
    Path(path).write_text(
        f"{profile_text(spec.profile)}hours = {', '.join(spec.profile.hours)}\n"
        f"weights = {', '.join(map(repr, spec.pattern.weights))}\nturn_ratios = {', '.join(map(repr, ratios))}\n"
        f"seed = {spec.seed}\nmode = {spec.mode}\n"
    )


def write_experiment_spec(spec: ExperimentSpec, path) -> None:
    """Keyed text that ``read_experiment_spec`` reads back as ``spec``."""
    geometry_file = "" if spec.geometry_file is None else f"geometry_file = {spec.geometry_file}\n"
    Path(path).write_text(
        f"geometries = {', '.join(spec.geometry_ids) or 'all'}\npatterns = {', '.join(spec.patterns)}\n"
        f"policies = {', '.join(spec.policies)}\ncycles = {', '.join(map(str, spec.cycles))}\nseed = {spec.seed}\n"
        f"rl_episodes = {spec.rl_episodes}\n{profile_text(spec.profile)}hours = {', '.join(spec.profile.hours)}\n"
        f"{geometry_file}"
    )


# name -> (command templates, reader, writer); "{stem}" in a template is the path of input stem.csv or
# stem.txt, and a template of None reads the input with ``reader`` alone.
READERS = {
    "departures.csv": (
        [
            ("simulate", "--geometry", "INT1", "--departures", "{departures}", "--policy", "static",
             "--out-dir", "{out}"),
            ("export-sumo", "--departures", "{departures}", "--program", "{program}", "--out-dir", "{out}"),
        ],
        read_departures,
        write_departures,
    ),
    "tmc.csv": ([("plan", "--tmc", "{tmc}", "--policy", "dynamic", "--out", "{out}/p.csv")], read_minute_tmc,
                write_minute_tmc),
    "geometries.csv": (
        [("simulate", "--geometry", "X", "--geometry-file", "{geometries}", "--departures", "{departures}",
          "--policy", "static", "--out-dir", "{out}")],
        read_geometries,
        lambda geometries, path: write_geometries(geometries.values(), path),
    ),
    "program.csv": (
        [("export-sumo", "--departures", "{departures}", "--program", "{program}", "--out-dir", "{out}")],
        read_program,
        write_program,
    ),
    "trajectories.csv": (
        [("tmc", "--trajectories", "{trajectories}", "--paths", "{paths}", "--out", "{out}/t.csv")],
        read_trajectories,
        write_trajectories,
    ),
    "paths.csv": (
        [("tmc", "--trajectories", "{trajectories}", "--paths", "{paths}", "--out", "{out}/t.csv")],
        read_typical_paths,
        write_typical_paths,
    ),
    "tmc_tables.csv": ([None], read_tmc_table_rows, write_tmc_table_rows),
    "demand.txt": ([("gen", "--demand-spec", "{demand}", "--out-dir", "{out}")], read_demand_spec, write_demand_spec),
    # ``experiment --spec`` would run the grid, so the grid file goes to its reader alone.
    "grid.txt": ([None], read_experiment_spec, write_experiment_spec),
    "weights.txt": (
        [("plan", "--tmc", "{tmc}", "--policy", "rl", "--weights", "{weights}", "--out", "{out}/p.csv")],
        read_snapshot,
        lambda text, path: Path(path).write_text(text),
    ),
    # No command reads a route document, so it goes to its reader alone.
    "routes.xml": ([None], read_routes, write_routes),
}


@st.composite
def mutated_inputs(draw):
    """(input name, command index, mutated text)."""
    name = draw(st.sampled_from(sorted(READERS)))
    text = VALID[name]
    lines = text.splitlines(keepends=True)
    kind = draw(st.sampled_from(["truncate", "delete", "duplicate", "replace", "replace"]))
    if kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    else:
        k = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            lines[k : k + 1] = []
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        else:
            # Fields and their separators alternate: "key = a, b" is ["key ", "=", " a", ",", " b"], and
            # the quotes split off an XML attribute's value: 'id="v0">' is ["id", "=", "", '"', "v0", '"', ">"].
            fields = re.split('([=,"])', lines[k].rstrip("\n"))
            fields[2 * draw(st.integers(0, len(fields) // 2))] = draw(st.sampled_from(POOL))
            lines[k] = "".join(fields) + "\n"
        text = "".join(lines)
    return name, draw(st.integers(0, len(READERS[name][0]) - 1)), text


def read_alone(reader, path) -> int:
    """``reader(path)`` with the CLI's outcome: 0, or 1 after its ``ValueError`` is printed as an ``error:`` line."""
    try:
        reader(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run_reader(work: Path, name: str, command: int, data: bytes) -> tuple[int, str, dict[str, Path], list | None]:
    """Every valid input written under ``work``, input ``name`` replaced by ``data``, then read by command ``command``.

    Returns the exit code, the standard error, the input paths and the argv (None for a reader run alone).
    """
    (work / "out").mkdir()  # so that ``plan --out`` and ``tmc --out`` can write
    paths = {file_name: work / file_name for file_name in READERS}
    for file_name, content in VALID.items():
        paths[file_name].write_text(content)
    paths[name].write_bytes(data)
    stems = {Path(file_name).stem: path for file_name, path in paths.items()}
    template = READERS[name][0][command]
    argv = template and [arg.format_map({"out": work / "out", **stems}) for arg in template]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv) if argv else read_alone(READERS[name][1], paths[name])
    return code, err.getvalue(), paths, argv


@settings(max_examples=500, deadline=None)
@given(mutated_inputs())
@example(("demand.txt", 0, VALID["demand.txt"].replace("mu_peak = 60", "mu_peak = inf")))
@example(("demand.txt", 0, VALID["demand.txt"].replace("mu_peak = 60", "mu_peak = 1e25")))
@example(("demand.txt", 0, VALID["demand.txt"].replace("turn_ratios = 0.25, 0.5, 0.25", "turn_ratios = nan, 0.5, 0.5")))
@example(("departures.csv", 0, f"id,depart,movement\nv0,{10**18},WBT\n"))
@example(("weights.txt", 0, VALID["weights.txt"].replace("layers 4 1 1 84", f"layers 4 {'9' * 401} {'9' * 401} 84")))
def test_every_mutated_input_reads_back_or_fails_with_one_error_line(tmp_path_factory, mutation):
    name, command, text = mutation
    work = tmp_path_factory.mktemp("mutation")
    code, err, paths, argv = run_reader(work, name, command, text.encode())
    _, reader, writer = READERS[name]
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        # A spec is checked whole when it is read, so its every fault is the file's and names it.
        assert not name.endswith(".txt") or str(paths[name]) in err, err
        return
    assert code == 0 and err == ""
    value = reader(paths[name])
    writer(value, work / "again.csv")
    assert reader(work / "again.csv") == value
    if argv and argv[0] == "export-sumo":
        assert read_routes(work / "out" / "routes.rou.xml") == read_departures(paths["departures.csv"])


@pytest.mark.parametrize(
    ("name", "command"),
    [(name, command) for name, (templates, _, _) in READERS.items() for command in range(len(templates))],
)
def test_a_byte_that_is_not_utf8_fails_naming_the_file_and_line(tmp_path, name, command):
    valid = VALID[name].encode()
    second = valid.index(b"\n") + 1
    code, err, paths, _ = run_reader(tmp_path, name, command, valid[:second] + b"\xff" + valid[second:])
    assert code == 1 and len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {paths[name]}, line 2: 'utf-8' codec can't decode byte 0xff"), err
