"""Command line behavior: exit codes, round trips, SVG output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import natset
from natset.cli import main
from natset.data import ParseError, load_task
from natset.natset import read_natset
from natset.projection import read_projection
from natset.synthetic import default_spec, write_scenario
from oracles import read_hulls_one_by_one


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """One generated curved-road scenario shared by the round-trip tests."""
    root = tmp_path_factory.mktemp("scene")
    spec = default_spec("curved_road", count=20, seed=7)
    paths = write_scenario(spec, root)
    return spec, paths, root


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_natset_file(scene, capsys):
    spec, paths, root = scene
    out = root / "tube.json"
    if not out.exists():
        code, _, _ = run(
            [
                "build",
                "--tracks", str(paths["tracks"]),
                "--task", str(paths["task"]),
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
    return out


def test_gen_writes_scenario_files(tmp_path, capsys):
    code, out, _ = run(
        ["gen", "--kind", "curved_road", "--count", "6", "--seed", "3",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "tracks.csv").exists()
    assert (tmp_path / "task.json").exists()
    assert "wrote" in out


@pytest.mark.parametrize("kind", ["curved_road", "straight_road_with_stop"])
def test_gen_without_options_writes_the_default_spec(tmp_path, capsys, kind):
    code, _, _ = run(["gen", "--kind", kind, "--out-dir", str(tmp_path / "cli")], capsys)
    assert code == 0
    paths = write_scenario(default_spec(kind), tmp_path / "lib")
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == sorted(
        p.name for p in paths.values())
    for path in paths.values():
        assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes()


def test_gen_rejects_bad_kind(tmp_path, capsys):
    code, _, err = run(
        ["gen", "--kind", "figure_eight", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "kind" in err


def test_gen_out_dir_that_is_a_file_exits_2_naming_it(tmp_path, capsys):
    out_dir = tmp_path / "taken"
    out_dir.write_text("not a directory")
    for target in (out_dir, out_dir / "scene"):
        code, out, err = run(["gen", "--kind", "curved_road", "--out-dir", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write --out-dir {target}: ")
    assert out_dir.read_text() == "not a directory"


def test_build_emits_stats_and_tube(scene, capsys):
    spec, paths, root = scene
    out = root / "tube.json"
    code, stdout, _ = run(
        [
            "build",
            "--tracks", str(paths["tracks"]),
            "--task", str(paths["task"]),
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert f"trajectories: {spec.count}" in stdout
    assert f"horizon: {spec.horizon}" in stdout
    assert "support" in stdout and "area" in stdout
    natset = read_natset(out)
    assert natset.horizon == spec.horizon


def test_build_exit_3_on_too_few_trajectories(tmp_path, scene, capsys):
    spec, paths, _ = scene
    lines = paths["tracks"].read_text().splitlines()
    header = lines[0]
    keep = [header] + [ln for ln in lines[1:] if ln.split(",")[0] in ("0", "1")]
    small = tmp_path / "two.csv"
    small.write_text("\n".join(keep) + "\n")
    code, _, err = run(
        [
            "build",
            "--tracks", str(small),
            "--task", str(paths["task"]),
            "--out", str(tmp_path / "tube.json"),
        ],
        capsys,
    )
    assert code == 3
    assert "InsufficientData" in err


def test_build_keeps_going_past_a_single_row_actor(tmp_path, scene, capsys):
    spec, paths, _ = scene
    lines = paths["tracks"].read_text().splitlines()
    # a one-row actor inside the start region: loaded, then dropped by the filter
    lone = tmp_path / "lone.csv"
    lone.write_text("\n".join(lines + ["999" + lines[1][lines[1].index(","):]]) + "\n")
    code, stdout, _ = run(
        [
            "build",
            "--tracks", str(lone),
            "--task", str(paths["task"]),
            "--out", str(tmp_path / "tube.json"),
        ],
        capsys,
    )
    assert code == 0
    assert f"trajectories: {spec.count}" in stdout


def test_build_exit_2_names_bad_line(tmp_path, scene, capsys):
    _, paths, _ = scene
    lines = paths["tracks"].read_text().splitlines()
    lines[5] = lines[5].replace(lines[5].split(",")[2], "not-a-number", 1)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        [
            "build",
            "--tracks", str(bad),
            "--task", str(paths["task"]),
            "--out", str(tmp_path / "tube.json"),
        ],
        capsys,
    )
    assert code == 2
    assert "row 6" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_build_exit_2_names_non_finite_row(tmp_path, scene, capsys, bad):
    _, paths, _ = scene
    lines = paths["tracks"].read_text().splitlines()
    fields = lines[7].split(",")
    fields[5] = bad  # yVelocity
    lines[7] = ",".join(fields)
    tracks = tmp_path / "nonfinite.csv"
    tracks.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        [
            "build",
            "--tracks", str(tracks),
            "--task", str(paths["task"]),
            "--out", str(tmp_path / "tube.json"),
        ],
        capsys,
    )
    assert code == 2
    assert "row 8" in err and "yVelocity" in err


def test_build_exit_2_names_the_far_position(tmp_path, scene, capsys):
    # a finite position beyond COORD_BOUND fails at ingest, not in a hull
    _, paths, _ = scene
    lines = paths["tracks"].read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[7].split(",")
    fields[header.index("xCenter")] = "1e308"
    lines[7] = ",".join(fields)
    tracks = tmp_path / "far.csv"
    tracks.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        [
            "build",
            "--tracks", str(tracks),
            "--task", str(paths["task"]),
            "--out", str(tmp_path / "tube.json"),
        ],
        capsys,
    )
    track = fields[header.index("trackId")]
    assert code == 2
    assert err == (f"error: {tracks}: row 8: column 'xCenter' of trackId {track!r} "
                   "is beyond 1e+09 m: '1e308'\n")
    assert not (tmp_path / "tube.json").exists()


DEMO_OUT = Path(__file__).resolve().parents[1] / "demos" / "out"


@pytest.mark.parametrize("column, value, code", [
    ("xVelocity", "1e8", 2), ("yVelocity", "-2e7", 2), ("xVelocity", "1e7", 0),
])
def test_project_exit_2_names_a_speed_beyond_the_bound(tmp_path, capsys, column, value, code):
    # the demo candidate with one of frame 30's velocities set to ``value``:
    # up to SPEED_BOUND it projects, beyond it the file is refused
    lines = (DEMO_OUT / "scene" / "candidate.csv").read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[31].split(",")
    assert fields[header.index("frame")] == "30"
    fields[header.index(column)] = value
    lines[31] = ",".join(fields)
    candidate = tmp_path / "fast.csv"
    candidate.write_text("\n".join(lines) + "\n")
    out = tmp_path / "projection.json"
    exit_code, _, err = run(["project", "--natset", str(DEMO_OUT / "tube.json"),
                             "--candidate", str(candidate), "--dyn", "dt=0.04", "--out", str(out)],
                            capsys)
    assert (exit_code, out.exists()) == (code, code == 0)
    if code:
        track = fields[header.index("trackId")]
        assert err == (f"error: {candidate}: row 32: column {column!r} of trackId {track!r} "
                       f"is beyond 1e+07 m/s: {value!r}\n")


def test_build_reproduces_committed_demo_tube(tmp_path, capsys):
    scene_dir = DEMO_OUT / "scene"
    out = tmp_path / "tube.json"
    code, _, _ = run(
        [
            "build",
            "--tracks", str(scene_dir / "tracks.csv"),
            "--task", str(scene_dir / "task.json"),
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert out.read_bytes() == (DEMO_OUT / "tube.json").read_bytes()


# `natset build` in a fresh interpreter; prints the scipy modules it loaded
BUILD_IN_PROCESS = """import sys
from natset.cli import main
code = main(sys.argv[1:])
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
sys.exit(code)
"""


def build_demo_in_process(out, threads):
    """Build the demo tube into ``out`` with ``threads`` BLAS threads; returns
    the scipy modules the process loaded, as printed."""
    env = dict(os.environ, PYTHONPATH=str(Path(natset.__file__).parents[1]),
               OPENBLAS_NUM_THREADS=str(threads))
    scene_dir = DEMO_OUT / "scene"
    done = subprocess.run(
        [sys.executable, "-c", BUILD_IN_PROCESS, "build", "--tracks", str(scene_dir / "tracks.csv"),
         "--task", str(scene_dir / "task.json"), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_build_loads_no_scipy(tmp_path):
    # scipy is imported only where a QP is factored or solved
    assert build_demo_in_process(tmp_path / "tube.json", 1) == "[]"


def test_built_tube_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    for threads in (1, 2):
        build_demo_in_process(tmp_path / f"tube{threads}.json", threads)
    assert (tmp_path / "tube1.json").read_bytes() == (tmp_path / "tube2.json").read_bytes()


def test_closed_stdout_ends_a_command_quietly(tmp_path):
    # stdout is a pipe whose reader is gone before the command starts: its
    # report is lost, but the tube is written and the exit is 0, untraced
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(natset.__file__).parents[1]))
    out = tmp_path / "tube.json"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "natset.cli", "build", "--tracks",
             str(DEMO_OUT / "scene" / "tracks.csv"), "--task", str(DEMO_OUT / "scene" / "task.json"),
             "--out", str(out)],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")
    assert out.read_bytes() == (DEMO_OUT / "tube.json").read_bytes()


def test_export_svg_reproduces_committed_demo_figures(tmp_path, capsys):
    overlays = {"tube.svg": [], "projection.svg": ["--projection", str(DEMO_OUT / "projection.json")]}
    for name, overlay in overlays.items():
        out = tmp_path / name
        code, _, _ = run(
            ["export-svg", "--natset", str(DEMO_OUT / "tube.json"), *overlay, "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_bytes() == (DEMO_OUT / name).read_bytes()


def run_module(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(natset.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "natset.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_python_dash_m_runs_the_cli():
    shown = run_module("--help")
    assert shown.returncode == 0
    assert shown.stdout.startswith("usage: natset")
    unknown = run_module("frobnicate")
    assert unknown.returncode == 2
    assert "invalid choice" in unknown.stderr


def test_build_exit_2_on_missing_input(tmp_path, capsys):
    code, _, err = run(
        [
            "build",
            "--tracks", str(tmp_path / "absent.csv"),
            "--task", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "tube.json"),
        ],
        capsys,
    )
    assert code == 2
    assert "not found" in err


def test_project_dyn_refuses_a_mass(scene, tmp_path, capsys):
    # controls are accelerations: the dynamics hold no mass
    _, paths, _ = scene
    tube = build_natset_file(scene, capsys)
    code, _, err = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(paths["candidate"]),
            "--dyn", "dt=0.04,mass=1",
            "--out", str(tmp_path / "proj.json"),
        ],
        capsys,
    )
    assert code == 2
    assert err == "error: --dyn got unknown keys ['mass']\n"
    assert not (tmp_path / "proj.json").exists()


def test_project_roundtrip_on_dataset_member(scene, tmp_path, capsys):
    spec, paths, root = scene
    tube = build_natset_file(scene, capsys)
    lines = paths["tracks"].read_text().splitlines()
    member = [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[0] == "4"]
    member_csv = tmp_path / "member.csv"
    member_csv.write_text("\n".join(member) + "\n")
    out = tmp_path / "proj.json"
    code, stdout, _ = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(member_csv),
            "--dyn", f"dt={spec.dt}",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert "Optimal" in stdout
    doc = read_projection(out)
    assert doc["objective"] <= 1e-8
    assert doc["status"] == "Optimal"


def test_project_chord_candidate_exit_0(scene, tmp_path, capsys):
    spec, paths, root = scene
    tube = build_natset_file(scene, capsys)
    out = tmp_path / "proj.json"
    code, stdout, _ = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(paths["candidate"]),
            "--dyn", f"dt={spec.dt}",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    doc = read_projection(out)
    assert doc["objective"] > 0.1
    before = [v for v in doc["violations_before"] if v is not None]
    assert max(before) > 0.1


def test_project_exit_4_outside_start(scene, tmp_path, capsys):
    spec, paths, _ = scene
    tube = build_natset_file(scene, capsys)
    lines = paths["candidate"].read_text().splitlines()
    shifted = [lines[0]]
    for ln in lines[1:]:
        parts = ln.split(",")
        parts[2] = repr(float(parts[2]) + 10.0)
        shifted.append(",".join(parts))
    far = tmp_path / "far.csv"
    far.write_text("\n".join(shifted) + "\n")
    code, _, err = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(far),
            "--dyn", f"dt={spec.dt}",
            "--out", str(tmp_path / "proj.json"),
        ],
        capsys,
    )
    assert code == 4
    assert "outside" in err


def test_project_rejects_bad_dyn_string(scene, tmp_path, capsys):
    _, paths, root = scene
    tube = build_natset_file(scene, capsys)
    code, _, err = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(paths["candidate"]),
            "--dyn", "dt=0.04,volume=2",
            "--out", str(tmp_path / "proj.json"),
        ],
        capsys,
    )
    assert code == 2
    assert "volume" in err


def test_project_exit_2_on_one_row_candidate(scene, tmp_path, capsys):
    spec, paths, _ = scene
    tube = build_natset_file(scene, capsys)
    one_row = tmp_path / "one.csv"
    one_row.write_text("\n".join(paths["candidate"].read_text().splitlines()[:2]) + "\n")
    code, _, err = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(one_row),
            "--dyn", f"dt={spec.dt}",
            "--out", str(tmp_path / "proj.json"),
        ],
        capsys,
    )
    assert code == 2
    assert f"{one_row}: candidate must have at least 2 states, found 1" in err


def test_project_has_no_solver_options(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "project",
                "--natset", str(tmp_path / "tube.json"),
                "--candidate", str(tmp_path / "candidate.csv"),
                "--dyn", "dt=0.1",
                "--out", str(tmp_path / "proj.json"),
                "--rho", "1",
            ]
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --rho 1" in capsys.readouterr().err


def test_project_relax_initial_is_not_an_option(scene, tmp_path, capsys):
    # the initial state is pinned: there is no flag that skips its check
    spec, paths, _ = scene
    tube = build_natset_file(scene, capsys)
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "project",
                "--natset", str(tube),
                "--candidate", str(paths["candidate"]),
                "--dyn", f"dt={spec.dt}",
                "--out", str(tmp_path / "proj.json"),
                "--relax-initial",
            ]
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --relax-initial" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dyn, name",
    [("dt=nan", "dt"), ("dt=inf", "dt")],
)
def test_project_exit_2_names_non_finite_dynamics(scene, tmp_path, capsys, dyn, name):
    _, paths, _ = scene
    tube = build_natset_file(scene, capsys)
    code, _, err = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(paths["candidate"]),
            "--dyn", dyn,
            "--out", str(tmp_path / "proj.json"),
        ],
        capsys,
    )
    assert code == 2
    assert f"{name} must be finite and > 0" in err


def test_gen_exit_2_names_non_finite_dt(tmp_path, capsys):
    code, _, err = run(
        ["gen", "--kind", "curved_road", "--dt", "inf", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "dt must be finite and > 0" in err


def test_build_exit_2_on_negative_trim(scene, tmp_path, capsys):
    _, paths, _ = scene
    out = tmp_path / "tube.json"
    code, _, err = run(
        [
            "build",
            "--tracks", str(paths["tracks"]),
            "--task", str(paths["task"]),
            "--out", str(out),
            "--trim", "-1",
        ],
        capsys,
    )
    assert code == 2
    assert "trim must be >= 0" in err
    assert not out.exists()


def test_project_exit_2_on_velocity_tube(scene, tmp_path, capsys):
    spec, paths, _ = scene
    doc = json.loads(build_natset_file(scene, capsys).read_text())
    doc["transform"] = [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    tube = tmp_path / "velocity_tube.json"
    tube.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="only position hulls"):
        read_natset(tube)
    code, _, err = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(paths["candidate"]),
            "--dyn", f"dt={spec.dt}",
            "--out", str(tmp_path / "proj.json"),
        ],
        capsys,
    )
    assert code == 2
    assert "only position hulls" in err


def _slack_row(doc):
    doc["hulls"][5]["h"][0] += 1e-3


def _text_dt(doc):
    doc["dt"] = "abc"


def _infinite_dt(doc):
    doc["dt"] = float("inf")


def _duplicate_vertex(doc):
    # with its G row and h entry, so the hull keeps one row per vertex
    hull = doc["hulls"][3]
    hull["vertices"].insert(1, list(hull["vertices"][0]))
    hull["G"].insert(1, list(hull["G"][0]))
    hull["h"].insert(1, hull["h"][0])


def _huge_int_dt(doc):
    doc["dt"] = 10**400


def _long_row(doc):
    doc["hulls"][3]["G"][0] = [2.0 * g for g in doc["hulls"][3]["G"][0]]


def _fractional_support(doc):
    doc["hulls"][4]["support"] = 3.9


def _huge_support(doc):
    doc["hulls"][2]["support"] = 10**30


def _boolean_t(doc):
    doc["hulls"][1]["t"] = True


def _fractional_hull_dim(doc):
    doc["hull_dim"] = 2.7


def _number_for_vertices(doc):
    doc["hulls"][2]["vertices"] = 5


def _huge_vertex(doc):
    doc["hulls"][3]["vertices"][1] = [1e308, -1e308]


def _huge_normal(doc):
    doc["hulls"][3]["G"][0] = [1.7e308, 1.7e308]


def _tube_in_a_list(doc):
    return [doc]


def _hulls_as(value):
    def spoil(doc):
        doc["hulls"] = value
    return spoil


def _list_for_hull(doc):
    doc["hulls"][3] = [1, 2]


def _hull_without_G(doc):
    del doc["hulls"][2]["G"]


def _supports_as_lists(doc):
    for hull in doc["hulls"]:
        hull["support"] = [hull["support"]]


@pytest.mark.parametrize(
    "spoil, cause",
    [
        (_slack_row, "hull at t=5: slack half-space row"),
        (None, "Expecting value"),
        (_text_dt, '"dt" must be a number, got "abc"'),
        (_infinite_dt, "dt must be finite and > 0"),
        (_huge_int_dt, '"dt" must be a number, got an integer beyond float range'),
        (_duplicate_vertex, "hull at t=3: duplicate consecutive vertices"),
        (_long_row, "hull at t=3: rows of G must have unit Euclidean norm"),
        (_fractional_support, "hull at t=4: support must be an integer, got 3.9"),
        (_huge_support, "hull at t=2: support must be an integer, got an integer beyond int64"),
        (_supports_as_lists, "hull at t=0: support must be an integer, got [20]"),
        (_boolean_t, 'hulls[1]["t"] must be an integer, got true'),
        (_fractional_hull_dim, '"hull_dim" must be an integer, got 2.7'),
        (_number_for_vertices, "hull at t=2: vertices must be a list, got 5"),
        (_huge_vertex, "hull at t=3: polygon vertices must be finite with |x|, |y| <= 1e+09 m"),
        (_huge_normal, "hull at t=3: rows of G must have unit Euclidean norm"),
        (_tube_in_a_list, "the file must hold a JSON object, got an array"),
        (_hulls_as({}), '"hulls" must be a list, got an object'),
        (_hulls_as(5), '"hulls" must be a list, got 5'),
        (_list_for_hull, "hulls[3] must be a JSON object, got an array"),
        (_hull_without_G, 'hulls[2] has no "G"'),
    ],
)
def test_project_bad_tube_names_the_file(scene, tmp_path, capsys, spoil, cause):
    spec, paths, _ = scene
    text = build_natset_file(scene, capsys).read_text()
    tube = tmp_path / "spoiled_tube.json"
    if spoil is None:
        tube.write_text("not a tube\n")
    else:
        doc = json.loads(text)
        # a spoiler edits the document, or returns the one to write instead
        tube.write_text(json.dumps(spoil(doc) or doc))
    code, _, err = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(paths["candidate"]),
            "--dyn", f"dt={spec.dt}",
            "--out", str(tmp_path / "proj.json"),
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith(f"error: {tube}: ")
    assert cause in err


def _set(path, value):
    """A spoiler that puts value at the key path of the tube document."""
    def spoil(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return spoil


# a JSON string or bool where the tube holds a number, and a provenance that
# is not a JSON object, with the start of the message that names them
NOT_NUMBERS = {
    "dt_text": (_set(["dt"], "0.04"), '"dt" must be a number, got "0.04"'),
    "dt_bool": (_set(["dt"], True), '"dt" must be a number, got true'),
    "vertex_text": (_set(["hulls", 2, "vertices", 1, 0], "1.5"),
                    'hull at t=2: vertices must hold [x, y] pairs of numbers, got ["1.5", '),
    "vertex_bool": (_set(["hulls", 4, "vertices", 0, 1], False),
                    "hull at t=4: vertices must hold [x, y] pairs of numbers, got ["),
    "G_text": (_set(["hulls", 3, "G", 0, 1], "0.6"),
               'hull at t=3: G must hold [x, y] pairs of numbers, got ['),
    "G_bool": (_set(["hulls", 1, "G", 2, 0], True),
               "hull at t=1: G must hold [x, y] pairs of numbers, got [true, "),
    "h_text": (_set(["hulls", 5, "h", 0], "0.6"), 'hull at t=5: h must hold numbers, got "0.6"'),
    "h_bool": (_set(["hulls", 0, "h", 3], True), "hull at t=0: h must hold numbers, got true"),
    "provenance_list": (_set(["provenance"], [1, 2]),
                        '"provenance" must be a JSON object, got [1, 2]'),
    "transform_bool": (_set(["transform"], [[True, False, 0, 0], [0, 0, True, 0]]),
                       "only position hulls are supported, transform must be "),
}


@pytest.mark.parametrize("name", list(NOT_NUMBERS))
def test_tube_values_must_be_json_numbers(scene, tmp_path, capsys, name):
    spec, paths, _ = scene
    spoil, message = NOT_NUMBERS[name]
    doc = json.loads(build_natset_file(scene, capsys).read_text())
    spoil(doc)
    tube = tmp_path / "tube.json"
    tube.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        read_natset(tube)
    assert str(err.value).startswith(f"{tube}: {message}")
    code, _, err = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(paths["candidate"]),
            "--dyn", f"dt={spec.dt}",
            "--out", str(tmp_path / "proj.json"),
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith(f"error: {tube}: {message}")
    assert not (tmp_path / "proj.json").exists()


def _triangle_rows(hull):
    # the unit square's vertices with the rows of y >= 0, x >= 0, x + y <= 2:
    # every vertex is inside and every row touches a vertex
    hull["vertices"] = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    r = 0.5 ** 0.5
    hull["G"] = [[0.0, -1.0], [-1.0, 0.0], [r, r]]
    hull["h"] = [0.0, 0.0, 2.0 * r]
    return "3 half-space rows for 4 vertices; need one row per edge"


def _rows_rotated_by_one(hull):
    hull["G"] = hull["G"][1:] + hull["G"][:1]
    hull["h"] = hull["h"][1:] + hull["h"][:1]
    return "slack half-space row"


def _edge_row_deleted(hull):
    del hull["G"][2]
    del hull["h"][2]
    n = len(hull["vertices"])
    return f"{n - 1} half-space rows for {n} vertices; need one row per edge"


@pytest.mark.parametrize("spoil", [_triangle_rows, _rows_rotated_by_one, _edge_row_deleted])
def test_hull_rows_must_be_the_polygon_edges(scene, tmp_path, capsys, spoil):
    # a hull whose rows describe some other set than its polygon
    spec, paths, _ = scene
    doc = json.loads(build_natset_file(scene, capsys).read_text())
    t = next(t for t, hull in enumerate(doc["hulls"]) if len(hull["vertices"]) >= 5)
    message = f"hull at t={t}: {spoil(doc['hulls'][t])}"
    tube = tmp_path / "tube.json"
    tube.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        read_natset(tube)
    assert str(err.value) == f"{tube}: {message}"
    # hull by hull through the public constructors, the same message
    with pytest.raises(ValueError) as err:
        read_hulls_one_by_one(doc)
    assert str(err.value) == message
    code, _, err = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(paths["candidate"]),
            "--dyn", f"dt={spec.dt}",
            "--out", str(tmp_path / "proj.json"),
        ],
        capsys,
    )
    assert code == 2
    assert err == f"error: {tube}: {message}\n"
    assert not (tmp_path / "proj.json").exists()


def _vertex_without_row(doc):
    hull = doc["hulls"][4]
    hull["vertices"].append([0.0, 0.0])
    n = len(hull["vertices"])
    return f"hull at t=4: {n - 1} half-space rows for {n} vertices; need one row per edge"


def _h_entry_deleted(doc):
    hull = doc["hulls"][6]
    del hull["h"][-1]
    return f"hull at t=6: inconsistent shapes G ({len(hull['G'])}, 2), h ({len(hull['h'])},)"


def _negative_t(doc):
    doc["hulls"][0]["t"] = -1
    return "hull time indices must be contiguous from 0"


def _slack_row_then_row_deleted(doc):
    # a geometric fault at t=3 and a shape fault at t=9: the shape is checked first
    doc["hulls"][3]["h"][0] += 1e-3
    hull = doc["hulls"][9]
    del hull["G"][-1]
    del hull["h"][-1]
    n = len(hull["vertices"])
    return f"hull at t=9: {n - 1} half-space rows for {n} vertices; need one row per edge"


def _t_gap_then_row_deleted(doc):
    # a gap in the time indices at t=2 and a count fault at t=9: the counts
    # are checked first, and the hull is named by the t the file gives it
    doc["hulls"][2]["t"] = 20
    return _slack_row_then_row_deleted(doc)


@pytest.mark.parametrize("spoil", [_vertex_without_row, _h_entry_deleted, _negative_t,
                                   _slack_row_then_row_deleted, _t_gap_then_row_deleted])
def test_tube_file_shape_is_checked_before_hull_geometry(scene, tmp_path, capsys, spoil):
    spec, paths, _ = scene
    doc = json.loads(build_natset_file(scene, capsys).read_text())
    message = spoil(doc)
    tube = tmp_path / "tube.json"
    tube.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        read_natset(tube)
    assert str(err.value) == f"{tube}: {message}"
    with pytest.raises(ValueError) as err:
        read_hulls_one_by_one(doc)
    assert str(err.value) == message
    out = tmp_path / "proj.json"
    code, _, err = run(["project", "--natset", str(tube), "--candidate", str(paths["candidate"]),
                        "--dyn", f"dt={spec.dt}", "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: {tube}: {message}\n"
    assert not out.exists()


def test_project_subnormal_tube_dt_names_the_tube(tmp_path, capsys):
    # 1 / 1e-320 overflows, so no candidate could be sampled at the tube's rate
    doc = json.loads((DEMO_OUT / "tube.json").read_text())
    doc["dt"] = 1e-320
    tube = tmp_path / "subnormal_dt_tube.json"
    tube.write_text(json.dumps(doc))
    code, _, err = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(DEMO_OUT / "scene" / "candidate.csv"),
            "--dyn", "dt=0.04",
            "--out", str(tmp_path / "proj.json"),
        ],
        capsys,
    )
    assert code == 2
    assert err == f"error: {tube}: dt must be finite and > 0 with a finite 1/dt, got dt=1e-320\n"
    assert not (tmp_path / "proj.json").exists()


def test_build_collinear_region_names_the_task_file(scene, tmp_path, capsys):
    _, paths, _ = scene
    task = json.loads(paths["task"].read_text())
    task["start_polygon"] = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    bad = tmp_path / "collinear_task.json"
    bad.write_text(json.dumps(task))
    code, _, err = run(
        [
            "build",
            "--tracks", str(paths["tracks"]),
            "--task", str(bad),
            "--out", str(tmp_path / "tube.json"),
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith(f"error: {bad}: ")
    assert "all points collinear within tolerance" in err


def test_export_svg_polygon_count_and_determinism(scene, tmp_path, capsys):
    spec, paths, _ = scene
    tube = build_natset_file(scene, capsys)
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    for target in (svg_a, svg_b):
        code, _, _ = run(
            ["export-svg", "--natset", str(tube), "--out", str(target)], capsys
        )
        assert code == 0
    text = svg_a.read_text()
    assert text.count("<polygon") == spec.horizon + 1
    assert text.count("<polyline") == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()


def test_export_svg_with_overlay_has_two_polylines(scene, tmp_path, capsys):
    spec, paths, root = scene
    tube = build_natset_file(scene, capsys)
    proj_out = tmp_path / "proj.json"
    code, _, _ = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(paths["candidate"]),
            "--dyn", f"dt={spec.dt}",
            "--out", str(proj_out),
        ],
        capsys,
    )
    assert code == 0
    svg = tmp_path / "fig.svg"
    code, _, _ = run(
        [
            "export-svg",
            "--natset", str(tube),
            "--projection", str(proj_out),
            "--out", str(svg),
        ],
        capsys,
    )
    assert code == 0
    assert svg.read_text().count("<polyline") == 2


def test_export_svg_exit_2_on_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": True}))
    code, _, err = run(
        ["export-svg", "--natset", str(bad), "--out", str(tmp_path / "o.svg")], capsys
    )
    assert code == 2
    assert "bad tube file" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("frame_rate", float("inf")),
        ("frame_rate", float("nan")),
        ("frame_rate", 0),
        ("frame_rate", -25),
        ("min_speed", float("nan")),
    ],
)
def test_build_exit_2_names_task_file_and_bad_number(scene, tmp_path, capsys, key, value):
    _, paths, _ = scene
    task = tmp_path / "task.json"
    cfg = json.loads(paths["task"].read_text())
    cfg[key] = value
    task.write_text(json.dumps(cfg))
    out = tmp_path / "tube.json"
    code, _, err = run(
        ["build", "--tracks", str(paths["tracks"]), "--task", str(task), "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert f"{task}: bad task config: {key} must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, cause",
    [
        ("min_speed", True, "min_speed must be a number, got true"),
        ("frame_rate", True, "frame_rate must be a number, got true"),
        ("frame_rate", "25", 'frame_rate must be a number, got "25"'),
        ("min_speed", 10**400, "min_speed must be a number, got an integer beyond float range"),
        ("frame_rate", -10**400, "frame_rate must be a number, got an integer beyond float range"),
        ("start_polygon", [[0, 0], [1, 0], [1, True], [0, 1]],
         "start_polygon must hold [x, y] pairs of numbers, got [[0, 0], [1, 0], [1, true], [0, 1]]"),
        ("end_polygon", [[40, -2], [45, -2], ["45", 2], [40, 2]],
         'end_polygon must hold [x, y] pairs of numbers, got [[40, -2], [45, -2], ["45", 2], '),
    ],
    ids=["min_speed_bool", "frame_rate_bool", "frame_rate_text", "min_speed_huge_int",
         "frame_rate_huge_int", "start_bool", "end_text"],
)
def test_task_values_must_be_json_numbers(scene, tmp_path, capsys, key, value, cause):
    # a bool or a string is not a number in a task file, as in a tube file
    _, paths, _ = scene
    task = tmp_path / "task.json"
    cfg = json.loads(paths["task"].read_text())
    cfg[key] = value
    task.write_text(json.dumps(cfg))
    with pytest.raises(ParseError) as err:
        load_task(task)
    assert str(err.value).startswith(f"{task}: bad task config: {cause}")
    out = tmp_path / "tube.json"
    code, _, err = run(
        ["build", "--tracks", str(paths["tracks"]), "--task", str(task), "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert err.startswith(f"error: {task}: bad task config: {cause}")
    assert not out.exists()


@pytest.mark.parametrize("dyn, key", [("dt=0.1,dt=0.2", "dt"), ("dt=0.1,mass=1, mass=2", "mass")])
def test_project_dyn_repeated_key_exits_2(scene, tmp_path, capsys, dyn, key):
    _, paths, _ = scene
    tube = build_natset_file(scene, capsys)
    code, _, err = run(
        [
            "project",
            "--natset", str(tube),
            "--candidate", str(paths["candidate"]),
            "--dyn", dyn,
            "--out", str(tmp_path / "proj.json"),
        ],
        capsys,
    )
    assert code == 2
    assert err == f"error: --dyn repeats the key {key!r}\n"
    assert not (tmp_path / "proj.json").exists()


@pytest.mark.parametrize(
    "edit, cause",
    [
        ("repeat", "rows 3 and 4: actor 0: duplicate frame 1"),
        ("drop", "rows 3 and 4: actor 0: missing frame 2"),
    ],
)
def test_build_exit_2_names_the_rows_of_a_bad_actor(tmp_path, capsys, edit, cause):
    header, *lines = (DEMO_OUT / "scene" / "tracks.csv").read_text().splitlines(keepends=True)
    # lines[1] is actor 0's frame 1 and lines[2] its frame 2; the blank line
    # after the header is not counted, so frame 1 stays on row 3
    if edit == "repeat":
        lines.insert(1, lines[1])
    else:
        del lines[2]
    tracks = tmp_path / "tracks.csv"
    tracks.write_text(header + "\n" + "".join(lines))
    out = tmp_path / "tube.json"
    code, _, err = run(
        ["build", "--tracks", str(tracks), "--task", str(DEMO_OUT / "scene" / "task.json"),
         "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert err == f"error: {tracks}: {cause}\n"
    assert not out.exists()


def test_unwritable_out_exits_2_naming_it(scene, tmp_path, capsys):
    _, paths, _ = scene
    tube = build_natset_file(scene, capsys)
    out = tmp_path / "missing" / "out.json"
    commands = {
        "build": ["--tracks", str(paths["tracks"]), "--task", str(paths["task"])],
        "project": ["--natset", str(tube), "--candidate", str(paths["candidate"]),
                    "--dyn", f"dt={read_natset(tube).dt!r}"],
        "export-svg": ["--natset", str(tube)],
    }
    for command, inputs in commands.items():
        code, _, err = run([command, *inputs, "--out", str(out)], capsys)
        assert code == 2, command
        assert err == f"error: cannot write --out {out}: No such file or directory\n"
    assert not out.parent.exists()
