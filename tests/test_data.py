import csv
from pathlib import Path

import numpy as np
import pytest

from natset import data
from natset.data import (
    EmptyTask,
    GapError,
    ParseError,
    REQUIRED_COLUMNS,
    RawActorState,
    Region,
    Trajectory,
    filter_task,
    load_task,
    load_trajectories,
    slice_at,
)
from natset.geometry import INSIDE_TOL, quickhull, signed_violations
from oracles import point_margin

HEADER = "trackId,frame,xCenter,yCenter,xVelocity,yVelocity,xAcceleration,yAcceleration,heading\n"


def covers(region, point):
    """Per-point reference for region membership within INSIDE_TOL."""
    return point_margin(region.halfspaces, point) <= INSIDE_TOL


def write_csv(path, rows, header=HEADER):
    path.write_text(header + "".join(rows))
    return path


def row(track, frame, x, y, vx=1.0, vy=0.0):
    return f"{track},{frame},{x},{y},{vx},{vy},0.0,0.0,0.0\n"


def square(x0, y0, side=1.0):
    return Region(
        quickhull([(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)])
    )


def walk(actor, points, frame_rate=25.0, speed=1.0):
    states = [
        RawActorState((x, y), (speed, 0.0), (0.0, 0.0), 0.0) for x, y in points
    ]
    return Trajectory(actor, frame_rate, states)


def test_load_two_actors_three_frames(tmp_path):
    p = write_csv(
        tmp_path / "tracks.csv",
        [row("7", f, 0.1 * f, 0.0) for f in range(3)]
        + [row("3", f, 5.0 + 0.1 * f, 1.0) for f in range(3)],
    )
    trajs = load_trajectories(p, frame_rate=25.0)
    assert [tr.actor_id for tr in trajs] == ["3", "7"]
    assert all(len(tr) == 3 for tr in trajs)
    assert trajs[1].states[2].position == pytest.approx((0.2, 0.0))
    assert trajs[0].dt == pytest.approx(0.04)


def test_load_rejects_frame_gap(tmp_path):
    p = write_csv(
        tmp_path / "gap.csv",
        [row("12", f, float(f), 0.0) for f in range(10) if f != 5],
    )
    with pytest.raises(GapError) as err:
        load_trajectories(p)
    assert "12" in str(err.value) and "5" in str(err.value)


def test_load_tolerates_extra_columns(tmp_path):
    header = (
        "recordingId,trackId,frame,trackLifetime,xCenter,yCenter,heading,width,length,"
        "xVelocity,yVelocity,xAcceleration,yAcceleration,lonVelocity,latVelocity,"
        "lonAcceleration,latAcceleration\n"
    )
    lines = [
        f"0,4,{f},{f},{0.5 * f},2.0,90.0,1.8,4.3,2.0,0.0,0.0,0.0,2.0,0.0,0.0,0.0\n"
        for f in range(4)
    ]
    trajs = load_trajectories(write_csv(tmp_path / "ind.csv", lines, header))
    assert len(trajs) == 1 and len(trajs[0]) == 4
    assert trajs[0].states[3].position == pytest.approx((1.5, 2.0))


def test_load_rejects_bad_rows(tmp_path):
    with pytest.raises(ParseError):
        load_trajectories(write_csv(tmp_path / "a.csv", [row("1", 0, "oops", 0.0), row("1", 1, 1.0, 0.0)]))
    with pytest.raises(ParseError):
        load_trajectories(
            write_csv(tmp_path / "b.csv", ["1,0,0.0\n"], header="trackId,frame,xCenter\n")
        )
    with pytest.raises(ParseError):
        load_trajectories(
            write_csv(tmp_path / "c.csv", [row("1", 2, 0.0, 0.0), row("1", 2, 0.1, 0.0)])
        )


def test_load_unsorted_frames_are_ordered(tmp_path):
    p = write_csv(
        tmp_path / "shuffled.csv",
        [row("1", 2, 2.0, 0.0), row("1", 0, 0.0, 0.0), row("1", 1, 1.0, 0.0)],
    )
    (tr,) = load_trajectories(p)
    assert [s.position[0] for s in tr.states] == [0.0, 1.0, 2.0]


def test_filter_drops_stationary_actor():
    start, end = square(0.0, 0.0), square(8.0, 0.0)
    mover = walk("m", [(0.5, 0.5), (4.0, 0.5), (8.5, 0.5)], speed=2.0)
    parked = walk("p", [(0.5, 0.5), (0.5, 0.5), (8.5, 0.5)], speed=0.0)
    ds = filter_task([mover, parked], start, end, min_speed=0.5)
    assert [tr.actor_id for tr in ds.trajectories] == ["m"]


def test_filter_requires_end_region():
    start, end = square(0.0, 0.0), square(8.0, 0.0)
    wanderer = walk("w", [(0.5, 0.5), (4.0, 4.0), (4.0, 8.0)], speed=2.0)
    with pytest.raises(EmptyTask):
        filter_task([wanderer], start, end)


def test_filter_reindexes_to_start_region_entry():
    start, end = square(0.0, 0.0), square(8.0, 0.0)
    # two frames before the start region, entry at original index 2
    tr = walk("a", [(-2.0, 0.5), (-1.0, 0.5), (0.5, 0.5), (4.0, 0.5), (8.5, 0.5)])
    ds = filter_task([tr], start, end)
    kept = ds.trajectories[0]
    assert kept.horizon == 2
    assert kept.states[0].position == (0.5, 0.5)
    assert covers(start, kept.states[0].position)


def test_filter_is_idempotent():
    start, end = square(0.0, 0.0), square(8.0, 0.0)
    trajs = [
        walk("a", [(-1.0, 0.5), (0.5, 0.5), (4.0, 0.5), (8.5, 0.5)]),
        walk("b", [(0.2, 0.2), (3.0, 0.8), (8.1, 0.9)]),
    ]
    once = filter_task(trajs, start, end)
    twice = filter_task(once.trajectories, start, end)
    assert len(once) == len(twice)
    for tr1, tr2 in zip(once.trajectories, twice.trajectories):
        assert tr1.actor_id == tr2.actor_id
        assert tr1.states == tr2.states


def test_slice_counts_follow_horizons():
    start, end = square(0.0, 0.0), square(8.0, 0.0)
    paths = {
        "h5": np.linspace([0.5, 0.3], [8.5, 0.3], 6),
        "h7": np.linspace([0.5, 0.5], [8.5, 0.5], 8),
        "h9": np.linspace([0.5, 0.7], [8.5, 0.7], 10),
    }
    ds = filter_task([walk(k, v) for k, v in paths.items()], start, end)
    assert len(slice_at(ds, 6)) == 2
    assert len(slice_at(ds, 0)) == 3
    assert len(slice_at(ds, 10)) == 0
    counts = [len(slice_at(ds, t)) for t in range(11)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_slice_zero_lies_in_start_region():
    start, end = square(0.0, 0.0), square(8.0, 0.0)
    rng = np.random.default_rng(3)
    trajs = []
    for i in range(8):
        p0 = rng.uniform(0.05, 0.95, size=2)
        trajs.append(walk(str(i), np.linspace(p0, [8.5, 0.5], 12)))
    ds = filter_task(trajs, start, end)
    for pt in slice_at(ds, 0):
        assert covers(start, pt)


def test_load_task_roundtrip(tmp_path):
    cfg = tmp_path / "task.json"
    cfg.write_text(
        '{"start_polygon": [[0,0],[1,0],[1,1],[0,1]], '
        '"end_polygon": [[8,0],[9,0],[9,1],[8,1]], '
        '"min_speed": 0.7, "frame_rate": 10}'
    )
    start, end, min_speed, frame_rate = load_task(cfg)
    assert min_speed == 0.7 and frame_rate == 10.0
    assert covers(start, (0.5, 0.5)) and not covers(start, (2.0, 0.5))
    assert covers(end, (8.5, 0.5))


def test_load_task_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"start_polygon": "nope"}')
    with pytest.raises(ParseError):
        load_task(cfg)


def test_trajectory_requires_one_state():
    (only,) = Trajectory("x", 25.0, [RawActorState((1, 2), (0, 0), (0, 0), 0.0)]).dyn_states
    assert only.tolist() == [1.0, 0.0, 2.0, 0.0]
    with pytest.raises(ValueError, match="'x' has no states"):
        Trajectory("x", 25.0, [])


def test_raw_state_rejects_nan():
    with pytest.raises(ValueError):
        RawActorState((np.nan, 0.0), (0.0, 0.0), (0.0, 0.0), 0.0)


# --- columnar ingest against a per-row reference -------------------------

IND_EXTRA = ("recordingId", "trackLifetime", "width", "length", "lonVelocity", "latVelocity")
# Trajectory.data columns, by their CSV names
DATA_ORDER = ("xCenter", "xVelocity", "yCenter", "yVelocity", "xAcceleration",
              "yAcceleration", "heading")


def reference_load(path):
    """[(trackId, (T, 7) array)] read row by row with csv.DictReader."""
    per_actor = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            values = [float(rec[name]) for name in DATA_ORDER]
            per_actor.setdefault(rec["trackId"], []).append((int(rec["frame"]), values))
    # integer ids first, by value; then the rest, by text
    order = sorted(per_actor, key=lambda a: (0, int(a), a) if a.isdigit() else (1, 0, a))
    return [(a, np.array([v for _, v in sorted(per_actor[a])])) for a in order]


def write_shuffled_recording(path, seed):
    rng = np.random.default_rng(seed)
    header = list(REQUIRED_COLUMNS) + list(IND_EXTRA)
    rng.shuffle(header)
    ids = ["12", "3", "100", "ped_b", "ped_a", "7", "bike"]
    lines = []
    for actor in ids:
        for frame in range(int(rng.integers(2, 40))):
            rec = {name: repr(float(v)) for name, v in zip(header, rng.normal(0, 30, len(header)))}
            rec.update(trackId=actor, frame=str(frame), recordingId="0")
            lines.append(",".join(rec[name] for name in header) + "\n")
    rng.shuffle(lines)
    return write_csv(path, lines, header=",".join(header) + "\n")


@pytest.mark.parametrize("chunk_rows", [7, 4096])
@pytest.mark.parametrize("seed", [0, 1])
def test_load_matches_per_row_reference(tmp_path, monkeypatch, seed, chunk_rows):
    monkeypatch.setattr(data, "CHUNK_ROWS", chunk_rows)
    p = write_shuffled_recording(tmp_path / "rec.csv", seed)
    expected = reference_load(p)
    trajs = load_trajectories(p, frame_rate=10.0)
    assert [tr.actor_id for tr in trajs] == [a for a, _ in expected]
    assert [tr.actor_id for tr in trajs][:4] == ["3", "7", "12", "100"]
    for tr, (_, ref) in zip(trajs, expected):
        assert len(tr) == len(ref)
        assert np.array_equal(tr.data, ref)
        assert tr.states == tuple(
            RawActorState((px, py), (vx, vy), (ax, ay), hd)
            for px, vx, py, vy, ax, ay, hd in ref.tolist()
        )


BAD_ROWS = {
    "non-integer frame": ("1,2.5,0.0,0.0,1.0,0.0,0.0,0.0,0.0\n", "row 11: frame is not an integer"),
    "negative frame": ("1,-3,0.0,0.0,1.0,0.0,0.0,0.0,0.0\n", "row 11: negative frame -3"),
    "empty trackId": (",9,0.0,0.0,1.0,0.0,0.0,0.0,0.0\n", "row 11: empty trackId"),
    "short row": ("1,9,0.0\n", "row 11: column 'yCenter' is not numeric: None"),
    "NaN": ("1,9,0.0,nan,1.0,0.0,0.0,0.0,0.0\n", "row 11: column 'yCenter' is not finite"),
    "inf": ("1,9,0.0,0.0,1.0,0.0,0.0,0.0,-inf\n", "row 11: column 'heading' is not finite"),
    "far position": ("1,9,0.0,-1e308,1.0,0.0,0.0,0.0,0.0\n",
                     "row 11: column 'yCenter' of trackId '1' is beyond 1e\\+09 m: '-1e308'"),
}


@pytest.mark.parametrize("later", [row("2", 5, 0.0, 1.0), "1,x,,,,,,,\n"])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_load_names_the_bad_row(tmp_path, monkeypatch, case, later):
    # batches of four rows: the bad row is the second of the third batch,
    # after a blank line that is not counted, and before a good or bad row
    monkeypatch.setattr(data, "CHUNK_ROWS", 4)
    line, message = BAD_ROWS[case]
    rows = [row("1", f, 0.1 * f, 0.0) for f in range(5)] + ["\n"]
    rows += [row("2", f, 0.1 * f, 1.0) for f in range(4)] + [line]
    rows += [row("2", 4, 0.0, 1.0), later]
    bad = write_csv(tmp_path / "bad.csv", rows)
    with pytest.raises(ParseError, match=message) as err:
        load_trajectories(bad)
    assert str(err.value).startswith(f"{bad}: row 11: ")


@pytest.mark.parametrize(
    "frames, error, message",
    [
        ([0, 1, 1, 2], ParseError, "actor car: duplicate frame 1"),
        ([0, 1, 3], GapError, "actor car: missing frame 2"),
    ],
)
def test_load_names_the_bad_actor(tmp_path, frames, error, message):
    # "zed" is broken too and comes first in the file, but "car" sorts first
    rows = [row("car", f, 0.0, 0.0) for f in frames] + [row("zed", f, 0.0, 0.0) for f in (0, 0)]
    path = write_csv(tmp_path / "frames.csv", rows[::-1])
    with pytest.raises(error) as err:
        load_trajectories(path)
    # zed fills rows 2-3 and car's frames follow from the last: the repeated
    # frame 1 is on rows 5 and 6, and frames 1 and 3 around the gap on rows 5 and 4
    where = {ParseError: "rows 5 and 6", GapError: "rows 5 and 4"}[error]
    assert str(err.value) == f"{path}: {where}: {message}"


def test_load_names_the_byte_and_line_that_are_not_utf8(tmp_path):
    # far past the decoder's first chunk, and a sequence cut off by the end
    scene = Path(__file__).resolve().parents[1] / "demos" / "out" / "scene"
    raw = (scene / "tracks.csv").read_bytes()
    lines = raw.count(b"\n")
    cases = [(raw[:100000] + b"\xff" + raw[100000:],
              "line 735: 'utf-8' codec can't decode byte 0xff in position 100000: "
              "invalid start byte"),
             (raw + b"\xc3", f"line {lines + 1}: 'utf-8' codec can't decode byte 0xc3 "
              f"in position {len(raw)}: unexpected end of data")]
    path = tmp_path / "tracks.csv"
    for text, message in cases:
        path.write_bytes(text)
        with pytest.raises(ParseError) as err:
            load_trajectories(path)
        assert str(err.value) == f"{path}: {message}"


def test_load_reports_actors_in_sorted_order(tmp_path):
    # actor 1 repeats a frame and sorts before actor 2, whose frames have a gap
    rows = [row("2", f, 0.0, 0.0) for f in (0, 2)] + [row("1", 0, 0.0, 0.0)] * 2
    with pytest.raises(ParseError, match="actor 1: duplicate frame 0"):
        load_trajectories(write_csv(tmp_path / "short.csv", rows))


def test_load_keeps_single_row_actor(tmp_path):
    rows = [row("1", 7, 3.0, 4.0)] + [row("2", f, 0.0, 0.0) for f in (0, 1)]
    one, two = load_trajectories(write_csv(tmp_path / "single.csv", rows))
    assert (one.actor_id, len(one), two.actor_id, len(two)) == ("1", 1, "2", 2)
    assert one.positions.tolist() == [[3.0, 4.0]]


def test_load_repeated_column_reads_its_last_copy(tmp_path):
    header = HEADER.rstrip("\n") + ",xCenter\n"
    lines = [row("1", f, 0.0, 0.0).rstrip("\n") + f",{f + 10.0}\n" for f in range(2)]
    (tr,) = load_trajectories(write_csv(tmp_path / "twice.csv", lines, header))
    assert tr.positions[:, 0].tolist() == [10.0, 11.0]


# --- array-backed trajectories --------------------------------------------


def test_trajectory_is_array_backed():
    tr = walk("a", [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)], speed=2.0)
    assert tr.data.shape == (3, 7) and not tr.data.flags.writeable
    assert np.shares_memory(tr.dyn_states, tr.data)
    assert np.array_equal(tr.dyn_states[2], [4.0, 2.0, 5.0, 0.0])
    assert np.array_equal(tr.positions, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    again = Trajectory("a", 25.0, tr.data)
    assert again.data is tr.data and again.states == tr.states


def test_trajectory_copies_a_writable_array():
    arr = np.zeros((3, 7))
    tr = Trajectory("a", 25.0, arr)
    arr[0, 0] = 9.0
    assert tr.data[0, 0] == 0.0
    assert arr.flags.writeable
    # a read-only view does not protect the data while its base is writable
    view = arr.view()
    view.flags.writeable = False
    tr = Trajectory("a", 25.0, view)
    arr[0, 0] = 7.0
    assert tr.data[0, 0] == 9.0


def test_trajectory_rejects_bad_arrays():
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory("a", 25.0, np.array([[0.0] * 7, [np.inf] + [0.0] * 6]))
    with pytest.raises(ValueError, match="7"):
        Trajectory("a", 25.0, np.zeros((3, 4)))


@pytest.mark.parametrize("frame_rate", [float("inf"), float("nan"), 0.0, -25.0])
def test_trajectory_requires_finite_positive_frame_rate(frame_rate):
    with pytest.raises(ValueError, match="frame_rate must be finite and > 0"):
        Trajectory("a", frame_rate, np.zeros((3, 7)))


def test_filter_trims_without_copying():
    start, end = square(0.0, 0.0), square(8.0, 0.0)
    tr = walk("a", [(-2.0, 0.5), (-1.0, 0.5), (0.5, 0.5), (4.0, 0.5), (8.5, 0.5)])
    (kept,) = filter_task([tr], start, end).trajectories
    assert np.shares_memory(kept.data, tr.data)
    assert np.array_equal(kept.data, tr.data[2:])


def reference_filter(trajectories, start, end, min_speed):
    """The task predicate, one sample at a time."""
    kept = []
    for tr in trajectories:
        entry = next((i for i, s in enumerate(tr.states) if covers(start, s.position)), None)
        if entry is None or len(tr) - entry < 2 or not covers(end, tr.states[-1].position):
            continue
        if max(np.hypot(*s.velocity) for s in tr.states[entry:]) >= min_speed:
            kept.append((tr.actor_id, tr.data[entry:]))
    return kept


def test_filter_matches_per_sample_reference():
    rng = np.random.default_rng(11)
    start, end = square(0.0, 0.0, side=2.0), square(6.0, 0.0, side=2.0)
    trajs = []
    for i in range(200):
        n = int(rng.integers(2, 12))
        p0, p1 = rng.uniform(-1.0, 3.0, 2), rng.uniform([5.0, -0.5], [8.5, 2.5])
        trajs.append(walk(str(i), np.linspace(p0, p1, n), speed=float(rng.uniform(0.0, 1.5))))
    expected = reference_filter(trajs, start, end, 0.5)
    got = filter_task(trajs, start, end, 0.5).trajectories
    assert 0 < len(got) < len(trajs)
    assert [tr.actor_id for tr in got] == [a for a, _ in expected]
    for tr, (_, ref) in zip(got, expected):
        assert np.array_equal(tr.data, ref)


def test_filter_tests_the_end_region_with_batched_margins():
    # final points straddle the tolerance band of a slanted end-region edge,
    # where a matrix-vector and a matrix-matrix product round differently;
    # the filter tests the final point alone and decides as the batch does
    start = square(0.0, 0.0)
    end = Region(quickhull([(40.0, 30.0), (47.0, 33.0), (41.0, 39.0)]))
    g, h = end.halfspaces.G[0], end.halfspaces.h[0]
    edge = np.linspace(end.polygon.vertices[0], end.polygon.vertices[1], 9)[1:-1]
    finals = [q + (INSIDE_TOL + k * 2e-16) * g for q in edge for k in range(-40, 41)]
    assert np.allclose([g @ p - h for p in finals], INSIDE_TOL, atol=1e-13)
    trajs = [walk(str(i), [(0.5, 0.5), p]) for i, p in enumerate(finals)]
    inside = signed_violations(end.halfspaces, np.array(finals)) <= INSIDE_TOL
    assert 0 < inside.sum() < len(finals)
    kept = {tr.actor_id for tr in filter_task(trajs, start, end).trajectories}
    assert kept == {str(i) for i in np.flatnonzero(inside)}


def test_slice_matches_per_trajectory_reference():
    start, end = square(0.0, 0.0), square(8.0, 0.0)
    rng = np.random.default_rng(5)
    trajs = [walk(str(i), np.linspace(rng.uniform(0.1, 0.9, 2), [8.5, 0.5], n), speed=n)
             for i, n in enumerate([4, 9, 2, 7, 9, 5])]
    ds = filter_task(trajs, start, end)
    for t in range(ds.max_horizon + 2):
        ref = [tr.dyn_states[t, [0, 2]] for tr in ds.trajectories if tr.horizon >= t]
        got = slice_at(ds, t)
        assert np.array_equal(got, np.array(ref).reshape(-1, 2))
        assert not got.flags.writeable
