"""Input rules stated once: the positive-scalar rule, the candidate's two
states, finite projection-file numbers and the position bound of a
written projection, the task's speed floor and unreadable input files,
each through the library and the command line."""

import argparse
import builtins
import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

from natset.cli import _build_parser, main
from natset.data import (
    ParseError,
    Region,
    Trajectory,
    filter_task,
    load_task,
    load_trajectories,
)
from natset.dynamics import NonPositiveParameter, double_integrator, positive
from natset.geometry import quickhull, to_halfspaces
from natset.natset import write_natset
from natset.projection import CandidateTrajectory, read_projection
from natset.synthetic import ScenarioSpec, write_tracks_csv
from oracles import stacked_tube

DEMO_OUT = Path(__file__).resolve().parents[1] / "demos" / "out"
SCENE = DEMO_OUT / "scene"

# a subnormal (its reciprocal overflows), zero, negative, NaN and infinity
BAD_SCALARS = [1e-320, 0.0, -1.0, float("nan"), float("inf")]


def rule(name, value):
    return f"{name} must be finite and > 0 with a finite 1/{name}, got {name}={value}"


def run(argv, capsys):
    code = main([str(arg) for arg in argv])
    return code, capsys.readouterr().err


def triangle_tube(dt):
    poly = quickhull([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    return stacked_tube([(poly, to_halfspaces(poly), 3)], dt)


# every constructor that takes a step or frame rate, and the name it gives
# that value
SCALAR_TAKERS = {
    "double_integrator_dt": ("dt", lambda v: double_integrator(v)),
    "Trajectory": ("frame_rate", lambda v: Trajectory("a", v, np.zeros((3, 7)))),
    "NaturalisticSet": ("dt", triangle_tube),
    "CandidateTrajectory": ("dt", lambda v: CandidateTrajectory(np.zeros((3, 4)), v)),
    "ScenarioSpec": ("dt", lambda v: ScenarioSpec("curved_road", dt=v)),
}


@pytest.mark.parametrize("value", BAD_SCALARS)
@pytest.mark.parametrize("taker", sorted(SCALAR_TAKERS))
def test_every_scalar_taker_states_the_one_rule(taker, value):
    name, make = SCALAR_TAKERS[taker]
    with pytest.raises(NonPositiveParameter) as exc:
        make(value)
    assert str(exc.value) == rule(name, value)


@pytest.mark.parametrize("value", BAD_SCALARS)
def test_task_frame_rate_states_the_one_rule_naming_the_file(tmp_path, value):
    cfg = json.loads((SCENE / "task.json").read_text())
    cfg["frame_rate"] = value
    task = tmp_path / "task.json"
    task.write_text(json.dumps(cfg))
    with pytest.raises(ParseError) as exc:
        load_task(task)
    assert str(exc.value) == f"{task}: bad task config: {rule('frame_rate', value)}"


# a JSON input that holds another value than an object, with what the
# message calls it
NOT_OBJECTS = {"array": (lambda doc: [doc], "an array"), "number": (lambda doc: 25, "25")}


@pytest.mark.parametrize("name", sorted(NOT_OBJECTS))
def test_task_file_must_hold_a_json_object(tmp_path, capsys, name):
    wrap, kind = NOT_OBJECTS[name]
    task = tmp_path / "task.json"
    task.write_text(json.dumps(wrap(json.loads((SCENE / "task.json").read_text()))))
    cause = f"{task}: bad task config: the file must hold a JSON object, got {kind}"
    with pytest.raises(ParseError) as exc:
        load_task(task)
    assert str(exc.value) == cause
    out = tmp_path / "tube.json"
    code, err = run(["build", "--tracks", SCENE / "tracks.csv", "--task", task, "--out", out],
                    capsys)
    assert code == 2
    assert err == f"error: {cause}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [1e-300, 1e300, 0.04, 25])
def test_small_and_large_scalars_with_finite_reciprocals_pass(value):
    positive("x", value)
    double_integrator(value)


@pytest.mark.parametrize("value", BAD_SCALARS)
@pytest.mark.parametrize("key", ["dt", "mass"])
def test_project_dyn_exits_2_naming_the_key(tmp_path, capsys, key, value):
    # dt keeps the one rule; a mass is no key of the dynamics, whatever its value
    dyn, cause = ((f"dt={value!r}", rule(key, value)) if key == "dt"
                  else (f"dt=0.04,mass={value!r}", "--dyn got unknown keys ['mass']"))
    out = tmp_path / "proj.json"
    code, err = run(["project", "--natset", DEMO_OUT / "tube.json",
                     "--candidate", SCENE / "candidate.csv", "--dyn", dyn, "--out", out], capsys)
    assert code == 2
    assert err == f"error: {cause}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", BAD_SCALARS)
def test_build_task_frame_rate_exits_2_naming_file_and_key(tmp_path, capsys, value):
    cfg = json.loads((SCENE / "task.json").read_text())
    cfg["frame_rate"] = value
    task = tmp_path / "task.json"
    task.write_text(json.dumps(cfg))
    out = tmp_path / "tube.json"
    code, err = run(["build", "--tracks", SCENE / "tracks.csv", "--task", task, "--out", out],
                    capsys)
    assert code == 2
    assert err == f"error: {task}: bad task config: {rule('frame_rate', value)}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", BAD_SCALARS)
def test_gen_dt_exits_2_naming_the_key(tmp_path, capsys, value):
    out = tmp_path / "scene"
    code, err = run(["gen", "--kind", "curved_road", "--dt", repr(value), "--out-dir", out],
                    capsys)
    assert code == 2
    assert err == f"error: {rule('dt', value)}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, dt", [
    ("curved_road", 1e-300), ("curved_road", 1e307), ("curved_road", 1e-9),
    ("straight_road_with_stop", 1e-300), ("straight_road_with_stop", 1e307),
    ("straight_road_with_stop", 1e-8), ("straight_road_with_stop", 1e7),
])
def test_gen_dt_whose_scene_overflows_exits_2_naming_it(tmp_path, capsys, kind, dt):
    # a finite dt with a finite reciprocal, whose velocities (small dt: the
    # position noise over dt) or positions (large dt) leave the bounds that
    # `build` reads; a numpy warning fails the test
    out = tmp_path / "scene"
    code, err = run(["gen", "--kind", kind, "--dt", repr(dt), "--out-dir", out], capsys)
    assert code == 2
    assert err == (f"error: dt={dt!r} puts a generated position beyond 1e+09 m "
                   "or velocity beyond 1e+07 m/s\n")
    assert not out.exists()


def test_gen_dt_within_the_bounds_builds(tmp_path, capsys):
    # at 1e-8 s the noise's forward differences stay within SPEED_BOUND
    scene = tmp_path / "scene"
    assert run(["gen", "--kind", "curved_road", "--dt", "1e-08", "--out-dir", scene],
               capsys) == (0, "")
    out = tmp_path / "tube.json"
    code, err = run(["build", "--tracks", scene / "tracks.csv", "--task", scene / "task.json",
                     "--out", out], capsys)
    assert (code, err) == (0, "")
    assert out.exists()


@pytest.mark.parametrize("dt, kept", [(1.0, 39), (1e3, 0), (1e7, 0)])
def test_gen_dt_whose_task_drops_a_track_exits_2_naming_it(tmp_path, capsys, dt, kept):
    # at 1 s and 10 s a track ends past the end region's sector; from 1e3 s
    # every forward-difference speed is below the task's 0.5 m/s floor
    out = tmp_path / "scene"
    code, err = run(["gen", "--kind", "curved_road", "--dt", repr(dt), "--out-dir", out], capsys)
    assert code == 2
    assert err == (f"error: dt={dt!r} over horizon=60 keeps {kept} of 40 generated tracks "
                   "on their own task\n")
    assert not out.exists()


def test_gen_dt_that_keeps_every_track_builds_them_all(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert run(["gen", "--kind", "curved_road", "--dt", "0.9", "--out-dir", scene],
               capsys) == (0, "")
    out = tmp_path / "tube.json"
    code = main([str(arg) for arg in ["build", "--tracks", scene / "tracks.csv",
                                      "--task", scene / "task.json", "--out", out]])
    assert code == 0
    assert capsys.readouterr().out.startswith("trajectories: 40\n")


def test_gen_seed_must_not_be_negative(tmp_path, capsys):
    out = tmp_path / "scene"
    code, err = run(["gen", "--kind", "curved_road", "--seed", "-1", "--out-dir", out], capsys)
    assert (code, err) == (2, "error: seed must be a non-negative integer, got -1\n")
    assert not out.exists()
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -5$"):
        ScenarioSpec("curved_road", seed=-5)


@pytest.mark.parametrize("states", [np.zeros((0, 4)), np.zeros((1, 4))])
def test_candidate_needs_two_states(states):
    with pytest.raises(ValueError) as exc:
        CandidateTrajectory(states, 0.04)
    assert str(exc.value) == f"candidate must have at least 2 states, found {len(states)}"


@pytest.mark.parametrize("column, value", [(1, 1e8), (3, -1e8), (0, 2e9), (2, -2e9),
                                           (0, float("nan")), (3, float("inf"))])
def test_candidate_keeps_the_bounds_that_the_reader_applies(column, value):
    # the bounds of a candidate CSV, which `natset project` refuses at ingest
    states = np.zeros((5, 4))
    states[3, column] = value
    with pytest.raises(ValueError) as exc:
        CandidateTrajectory(states, 0.04)
    assert str(exc.value) == ("candidate state at t=3 must be finite with |x|, |y| <= 1e+09 m "
                              "and |v_x|, |v_y| <= 1e+07 m/s")
    # at the bounds themselves it is admitted
    states[3] = [1e9, -1e7, -1e9, 1e7]
    assert CandidateTrajectory(states, 0.04).horizon == 4


@pytest.mark.parametrize("min_speed", [float("nan"), float("inf"), float("-inf")])
def test_filter_task_rejects_a_non_finite_speed_floor(min_speed):
    square = Region(quickhull([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]))
    track = Trajectory("a", 25.0, np.zeros((3, 7)))
    with pytest.raises(ValueError) as exc:
        filter_task([track], square, square, min_speed)
    assert str(exc.value) == f"min_speed must be finite, got {min_speed}"


# a bad JSON value: NaN and Infinity are json's spellings of the non-finite,
# and an integer beyond float range
BAD_NUMBERS = {"nan": float("nan"), "infinity": float("inf"), "string": "1.5", "bool": True,
               "huge_int": 10**400}
PROJECTION_KEYS = ["states", "controls", "candidate_states", "objective"]


def bad_projection(tmp_path, key, bad):
    doc = json.loads((DEMO_OUT / "projection.json").read_text())
    if key == "objective":
        doc[key] = BAD_NUMBERS[bad]
    else:
        doc[key][1][1] = BAD_NUMBERS[bad]
    path = tmp_path / f"{key}_{bad}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("bad", sorted(BAD_NUMBERS))
@pytest.mark.parametrize("key", PROJECTION_KEYS)
def test_read_projection_names_file_and_key_of_a_bad_number(tmp_path, key, bad):
    path = bad_projection(tmp_path, key, bad)
    with pytest.raises(ParseError) as exc:
        read_projection(path)
    assert str(exc.value).startswith(f"{path}: bad projection file: \"{key}\" must ")


@pytest.mark.parametrize("bad", sorted(BAD_NUMBERS))
@pytest.mark.parametrize("key", PROJECTION_KEYS)
def test_export_svg_exits_2_on_a_bad_projection_number(tmp_path, capsys, key, bad):
    path = bad_projection(tmp_path, key, bad)
    out = tmp_path / "fig.svg"
    code, err = run(["export-svg", "--natset", DEMO_OUT / "tube.json", "--projection", path,
                     "--out", out], capsys)
    assert code == 2
    assert err.startswith(f"error: {path}: bad projection file: \"{key}\" must ")
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(NOT_OBJECTS))
def test_projection_file_must_hold_a_json_object(tmp_path, capsys, name):
    wrap, kind = NOT_OBJECTS[name]
    path = tmp_path / "projection.json"
    path.write_text(json.dumps(wrap(json.loads((DEMO_OUT / "projection.json").read_text()))))
    cause = f"{path}: bad projection file: the file must hold a JSON object, got {kind}"
    with pytest.raises(ParseError) as exc:
        read_projection(path)
    assert str(exc.value) == cause
    out = tmp_path / "fig.svg"
    code, err = run(["export-svg", "--natset", DEMO_OUT / "tube.json", "--projection", path,
                     "--out", out], capsys)
    assert code == 2
    assert err == f"error: {cause}\n"
    assert not out.exists()


@pytest.mark.parametrize("column", [0, 2])
@pytest.mark.parametrize("key", ["states", "candidate_states"])
def test_export_svg_exits_2_on_positions_it_cannot_draw(tmp_path, capsys, key, column):
    # two finite positions whose distance overflows: the figure would be
    # width="nan" with every hull at one point
    doc = json.loads((DEMO_OUT / "projection.json").read_text())
    doc[key][0][column], doc[key][1][column] = 1.7e308, -1.7e308
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "fig.svg"
    code, err = run(["export-svg", "--natset", DEMO_OUT / "tube.json", "--projection", path,
                     "--out", out], capsys)
    assert code == 2
    assert err == (f"error: {path}: bad projection file: \"{key}\" positions "
                   "must be finite with |x|, |y| <= 1e+09 m\n")
    assert not out.exists()


def test_export_svg_draws_positions_up_to_the_bound_and_any_velocity(tmp_path, capsys):
    doc = json.loads((DEMO_OUT / "projection.json").read_text())
    for key in ("states", "candidate_states"):
        doc[key][0][0], doc[key][1][2], doc[key][2][1] = 1e9, -1e9, 1.7e308
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["export-svg", "--natset", DEMO_OUT / "tube.json", "--projection", path,
                   "--out", tmp_path / "fig.svg"], capsys)
    assert code == 0
    assert "nan" not in (tmp_path / "fig.svg").read_text()
    doc["states"][3][2] = np.nextafter(1e9, 2e9)
    path.write_text(json.dumps(doc))
    code, err = run(["export-svg", "--natset", DEMO_OUT / "tube.json", "--projection", path,
                     "--out", tmp_path / "fig.svg"], capsys)
    assert code == 2 and '"states" positions must be finite' in err


def test_project_writes_no_projection_that_export_svg_refuses(tmp_path, capsys):
    # a candidate 10 m inside the bound that contradicts its own 100 m/s:
    # the projection follows the velocity past the bound, x = 1e9 + 1.55 m
    # at t = 6 and 1e9 + 80.84 m at most
    poly = quickhull([(1e9 - 50, 0.0), (1e9, 0.0), (1e9, 10.0), (1e9 - 50, 10.0)])
    tube = stacked_tube([(poly, to_halfspaces(poly), 3)] * 6, 0.04)
    write_natset(tube, tmp_path / "tube.json")
    data = np.zeros((40, 7))
    data[:, :3] = [1e9 - 10, 100.0, 5.0]
    write_tracks_csv([Trajectory("c", 25.0, data)], tmp_path / "candidate.csv")
    out = tmp_path / "projection.json"
    code, err = run(["project", "--natset", tmp_path / "tube.json", "--candidate",
                     tmp_path / "candidate.csv", "--dyn", "dt=0.04", "--out", out], capsys)
    assert (code, err) == (2, "error: projected position at t=6 is (1000000001.55, 5); "
                              "positions must be finite with |x|, |y| <= 1e+09 m\n")
    assert not out.exists()


# a well-formed value of every input file option of every command, and the
# other arguments each command needs; options that name an output are
# covered by the writers' own error handling
INPUTS = {
    "build": {"--tracks": SCENE / "tracks.csv", "--task": SCENE / "task.json"},
    "project": {"--natset": DEMO_OUT / "tube.json", "--candidate": SCENE / "candidate.csv"},
    "export-svg": {"--natset": DEMO_OUT / "tube.json", "--projection": DEMO_OUT / "projection.json"},
}
OTHER_ARGS = {"project": ["--dyn", "dt=0.04"]}
OUTPUTS = {"--out", "--out-dir"}


def path_options():
    """(command, option) of every ``type=Path`` option of the parser."""
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {(command, action.option_strings[0])
            for command, parser in sub.choices.items()
            for action in parser._actions if action.type is Path}


def test_every_input_file_option_has_an_unreadable_case():
    cases = {(command, option) for command, options in INPUTS.items() for option in options}
    assert {(c, o) for c, o in path_options() if o not in OUTPUTS} == cases


@pytest.mark.parametrize("command, option", [("build", "--tracks"), ("project", "--candidate")])
def test_csv_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, command, option):
    files = INPUTS[command]
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + files[option].read_bytes())
    outputs = []
    for name, path in (("plain", files[option]), ("bom", bom)):
        out = tmp_path / f"{name}.json"
        argv = [command, *(x for pair in {**files, option: path}.items() for x in pair),
                *OTHER_ARGS.get(command, []), "--out", out]
        code, err = run(argv, capsys)
        assert (code, err) == (0, "")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def nested_json(path):
    """A JSON document nested deeper than json's decoder can recurse."""
    path.write_text('{"dt": ' + "[" * 200_000 + "]" * 200_000 + "}")


def runaway_quote(path):
    """The scene's tracks with one unbalanced quote in row 4 (the header is
    row 1), so that the rest of the file reads as one field past the csv
    module's limit."""
    lines = (SCENE / "tracks.csv").read_text().splitlines(keepends=True)
    lines[3] = '"' + lines[3]
    path.write_text("".join(lines))


# how to spoil an input file, the cause its message names, and the suffix of
# the files it applies to (None: every input file)
UNREADABLE = {
    "directory": (lambda path: path.mkdir(), "is not a file", None),
    "not_utf8": (lambda path: path.write_bytes(b"\xff\xfe not utf-8\n"), "'utf-8' codec",
                 None),
    "nested_json": (nested_json, "maximum recursion depth exceeded", ".json"),
    "runaway_quote": (runaway_quote, "field larger than field limit (131072)", ".csv"),
}


@pytest.mark.parametrize("command, option, kind",
                         [(c, o, kind) for c, options in INPUTS.items() for o in options
                          for kind, (_, _, suffix) in sorted(UNREADABLE.items())
                          if suffix in (None, options[o].suffix)])
def test_unreadable_input_exits_2_naming_path_and_cause(tmp_path, capsys, command, option,
                                                        kind):
    make, cause, _ = UNREADABLE[kind]
    bad = tmp_path / kind
    make(bad)
    files = {**INPUTS[command], option: bad}
    out = tmp_path / "out"
    argv = [command, *(x for pair in files.items() for x in pair), *OTHER_ARGS.get(command, []),
            "--out", out]
    code, err = run(argv, capsys)
    assert code == 2
    assert str(bad) in err
    assert cause in err
    assert not out.exists()


def spoiled_tracks(path, line, edit):
    """The scene's tracks with ``edit`` applied to the text of one line."""
    lines = (SCENE / "tracks.csv").read_text().splitlines(keepends=True)
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("".join(lines))


def frame_beyond_int64(text):
    track, _, rest = text.split(",", 2)
    return ",".join([track, str(2**64), rest])


# a tracks file spoiled on one line, and the cause its message names after the file
BAD_RECORDS = {
    "runaway_quote": (4, lambda text: '"' + text,
                      "row 4: line 4: field larger than field limit (131072)"),
    "runaway_header": (1, lambda text: '"' + text,
                       "row 1: line 1: field larger than field limit (131072)"),
    "frame_beyond_int64": (6, frame_beyond_int64,
                           f"row 6: frame is beyond int64: '{2**64}'"),
    # a well-formed field past the csv module's limit, which np.loadtxt would read
    "long_field": (6, lambda text: "7" * 200_000 + text[text.index(","):],
                   "row 6: line 6: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("command, option", [("build", "--tracks"), ("project", "--candidate")])
@pytest.mark.parametrize("kind", sorted(BAD_RECORDS))
def test_bad_record_exits_2_naming_its_row(tmp_path, capsys, command, option, kind):
    line, edit, cause = BAD_RECORDS[kind]
    bad = tmp_path / "tracks.csv"
    spoiled_tracks(bad, line, edit)
    out = tmp_path / "out.json"
    argv = [command, *(x for pair in {**INPUTS[command], option: bad}.items() for x in pair),
            *OTHER_ARGS.get(command, []), "--out", out]
    code, err = run(argv, capsys)
    assert (code, err) == (2, f"error: {bad}: {cause}\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_header_only_tracks_read_as_no_tracks(tmp_path, capsys):
    # np.loadtxt warns on a file without data rows; the reader must not
    tracks = tmp_path / "tracks.csv"
    tracks.write_text((SCENE / "tracks.csv").read_text().splitlines(keepends=True)[0])
    assert load_trajectories(tracks) == []
    out = tmp_path / "tube.json"
    code, err = run(["build", "--tracks", tracks, "--task", SCENE / "task.json", "--out", out],
                    capsys)
    assert (code, err) == (3, "error: EmptyTask: no trajectory satisfies the task predicate\n")
    assert not out.exists()


def fail_reads(monkeypatch, path):
    """Make every open of ``path`` fail as a disk read error does."""
    real_open = open

    def fake_open(file, *args, **kwargs):
        if str(file) == str(path):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", fake_open)


# a file that opens but cannot be read: on Linux, reading a process's memory
# at address 0 fails with EIO
PROC_MEM = Path("/proc/self/mem")


@pytest.mark.parametrize("fault", ["open_fails", "read_fails"])
@pytest.mark.parametrize("command, option",
                         [(c, o) for c, options in INPUTS.items() for o in options])
def test_input_that_cannot_be_read_exits_2_naming_option_and_path(tmp_path, capsys,
                                                                  monkeypatch, command,
                                                                  option, fault):
    if fault == "read_fails":
        if not PROC_MEM.is_file():
            pytest.skip("no /proc/self/mem on this system")
        bad = PROC_MEM
    else:
        bad = tmp_path / "input"
        bad.write_bytes(INPUTS[command][option].read_bytes())
        fail_reads(monkeypatch, bad)
    out = tmp_path / "out"
    argv = [command, *(x for pair in {**INPUTS[command], option: bad}.items() for x in pair),
            *OTHER_ARGS.get(command, []), "--out", out]
    code, err = run(argv, capsys)
    assert (code, err) == (2, f"error: cannot read {option} {bad}: {os.strerror(errno.EIO)}\n")
    assert not out.exists()
