"""A corpus of generated scenes run through `cli.main`: the tube bytes and
build report of each, and the outcome of projecting its candidate, one of
its recorded tracks and that track moved out of the tube.

Every pin holds at one and at two BLAS threads.  States and objectives
are not pinned: their last digits move with the BLAS thread count
(README).
"""

import csv
import hashlib
import json

import pytest

from natset.cli import main
from natset.synthetic import default_spec, write_scenario

# per scene: default_spec's arguments; the sha256 of the built tube and of
# the build's stdout (with the output path as <out>); the error of
# projecting its candidate.csv (curved scenes only: a t=1 miss, exit 5
# until ROADMAP item 3 reports it as exit 4); and one recorded track, its
# projection's status and non-empty active rows by step, and the exit-4
# violation once it is moved 50 m along x
CORPUS = {
    "stop_seed1": (
        ("straight_road_with_stop", {"seed": 1}),
        "8cd537fb7915e216d3c66fbba5dfcd658e456fbd81ba667dd2a40d7674cdeb81",
        "e41ed130c62bbad869bbe4c5d3ebf36a8b60576979b0204c94b1d421da709860",
        None,
        ("23", "Optimal", {0: [2, 3], 1: [3, 4]}, 49.9805),
    ),
    "stop_seed7": (
        ("straight_road_with_stop", {"seed": 7}),
        "e8ee4e9a6f1e33f623eb6508e8c358ee489f64a65d73359294a69fc3990bdf1e",
        "ff7c090915d9480943ef649e28dd12476ff7862e8a4b15acecffaa88ef3b6c61",
        None,
        ("32", "Optimal", {2: [0, 1], 55: [6, 7]}, 48.7963),
    ),
    "curved_40": (
        ("curved_road", {"count": 40, "seed": 7, "horizon": 100}),
        "6568da1a762f62e0b98ae3cd6db15cbfe0610c740a18e24229a1b20241259448",
        "6440efb3e7415826cec1a00cea305ef4b3ac8528f67ac3f3f8518db9ddbac0e8",
        "hull row 2 at t=1 is violated by 0.000159067 m and no control input can change it",
        ("34", "Optimal", {1: [2, 3], 3: [2, 3]}, 23.232),
    ),
    "curved_200": (
        ("curved_road", {"count": 200, "seed": 7, "horizon": 200}),
        "b7cccbc99cdc346b1bd77733aac776d2de81958c73c211d8dedcfb2e6df48dd1",
        "ab3c23204d28201c59e8ff579423601cfe143275292e9521cd73e881f5a05bd9",
        "hull row 2 at t=1 is violated by 0.0829798 m and no control input can change it",
        ("6", "Optimal", {1: [7, 8], 8: [3, 4], 12: [6, 7], 26: [3, 4]}, 49.9106),
    ),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run(argv, capsys):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_track(rows, path, shift=0.0):
    """The tracks-CSV rows of one track, xCenter moved by ``shift`` m."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(dict(row, xCenter=repr(float(row["xCenter"]) + shift)))


@pytest.mark.parametrize("name", list(CORPUS))
def test_scene_tube_and_projection_outcomes_are_pinned(tmp_path, capsys, name):
    (kind, overrides), tube_sha, stdout_sha, candidate_error, recorded = CORPUS[name]
    track, status, active, outside = recorded
    paths = write_scenario(default_spec(kind, **overrides), tmp_path / "scene")
    tube = tmp_path / "tube.json"
    code, out, _ = run(["build", "--tracks", paths["tracks"], "--task", paths["task"],
                        "--out", tube], capsys)
    assert code == 0
    assert sha256(tube.read_bytes()) == tube_sha
    assert sha256(out.replace(str(tube), "<out>").encode()) == stdout_sha
    dt = json.loads(tube.read_text())["dt"]

    def project(candidate):
        out = tmp_path / "projection.json"
        code, _, err = run(["project", "--natset", tube, "--candidate", candidate,
                            "--dyn", f"dt={dt!r}", "--out", out], capsys)
        return code, err, out

    if candidate_error is not None:
        code, err, out = project(paths["candidate"])
        assert (code, err) == (5, f"error: {candidate_error}\n")
        assert not out.exists()

    with open(paths["tracks"], newline="", encoding="utf-8") as fh:
        recorded = [row for row in csv.DictReader(fh) if row["trackId"] == track]
    write_track(recorded, tmp_path / "track.csv")
    code, _, out = project(tmp_path / "track.csv")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == status
    assert {t: r for t, r in enumerate(doc["active_constraints"]) if r} == active
    # every projection the command writes can be drawn
    assert run(["export-svg", "--natset", tube, "--projection", out,
                "--out", tmp_path / "fig.svg"], capsys)[0] == 0
    out.unlink()

    write_track(recorded, tmp_path / "moved.csv", shift=50.0)
    code, err, out = project(tmp_path / "moved.csv")
    assert (code, err) == (4, f"error: initial position lies {outside} m outside the t=0 hull "
                              "(tolerance 1e-06); the initial state is pinned and no control "
                              "can move it\n")
    assert not out.exists()
