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
from natset.data import ParseError
from natset.natset import read_natset
from natset.projection import read_projection
from natset.synthetic import default_spec, write_scenario


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


def test_gen_rejects_bad_kind(tmp_path, capsys):
    code, _, err = run(
        ["gen", "--kind", "figure_eight", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "kind" in err


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


DEMO_OUT = Path(__file__).resolve().parents[1] / "demos" / "out"


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
            "--dyn", f"dt={spec.dt},mass=1.0",
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
    [("dt=nan", "dt"), ("dt=0.04,mass=nan", "mass"), ("dt=0.04,mass=inf", "mass")],
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
    vertices = doc["hulls"][3]["vertices"]
    vertices.insert(1, list(vertices[0]))


def _long_row(doc):
    doc["hulls"][3]["G"][0] = [2.0 * g for g in doc["hulls"][3]["G"][0]]


def _fractional_support(doc):
    doc["hulls"][4]["support"] = 3.9


def _boolean_t(doc):
    doc["hulls"][1]["t"] = True


def _fractional_hull_dim(doc):
    doc["hull_dim"] = 2.7


def _number_for_vertices(doc):
    doc["hulls"][2]["vertices"] = 5


@pytest.mark.parametrize(
    "spoil, cause",
    [
        (_slack_row, "hull at t=5: slack half-space row"),
        (None, "Expecting value"),
        (_text_dt, "could not convert string to float"),
        (_infinite_dt, "dt must be finite and > 0"),
        (_duplicate_vertex, "hull at t=3: duplicate consecutive vertices"),
        (_long_row, "hull at t=3: rows of G must have unit Euclidean norm"),
        (_fractional_support, 'hulls[4]["support"] must be an integer, got 3.9'),
        (_boolean_t, 'hulls[1]["t"] must be an integer, got true'),
        (_fractional_hull_dim, '"hull_dim" must be an integer, got 2.7'),
        (_number_for_vertices, "hull at t=2: vertices must be a list, got 5"),
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
        spoil(doc)
        tube.write_text(json.dumps(doc))
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
