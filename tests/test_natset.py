import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from natset.data import (
    ParseError,
    RawActorState,
    Region,
    Task,
    TaskDataset,
    Trajectory,
    filter_task,
    load_task,
    load_trajectories,
    slice_at,
)
from natset.dynamics import POSITIONS, double_integrator
from natset.geometry import (
    ConvexPolygon,
    HalfSpaceSet,
    margins,
    quickhull,
    signed_violations,
    to_halfspaces,
)
from natset.cli import main
from natset.natset import (
    InsufficientData,
    TimedHull,
    _json_text,
    build_natset,
    natset_stats,
    read_natset,
    trajectory_membership,
    write_natset,
)
from natset.projection import CandidateTrajectory, project, write_projection
from natset.synthetic import default_spec, generate_scenario
from oracles import point_margin, read_hulls_one_by_one, stacked_tube


def make_traj(actor, positions, frame_rate=25.0):
    states = [
        RawActorState((x, y), (1.0, 0.0), (0.0, 0.0), 0.0) for x, y in positions
    ]
    return Trajectory(actor, frame_rate, states)


def make_dataset(trajs):
    box = Region(quickhull([(-100, -100), (100, -100), (100, 100), (-100, 100)]))
    return TaskDataset(tuple(trajs), Task(box, box, 0.0))


def fan_dataset(horizons=(5, 7, 9)):
    trajs = []
    for i, h in enumerate(horizons):
        pts = [(0.3 * i + t * (1.0 + 0.1 * i), float(i * i)) for t in range(h + 1)]
        trajs.append(make_traj(f"a{i}", pts))
    return make_dataset(trajs)


def random_dataset(count=12, steps=10, seed=2):
    rng = np.random.default_rng(seed)
    trajs = []
    for i in range(count):
        p0 = rng.uniform(-1.0, 1.0, size=2)
        head = rng.uniform(0.0, 2 * np.pi)
        speed = rng.uniform(1.0, 3.0)
        drift = np.array([np.cos(head), np.sin(head)]) * speed * 0.1
        pts = [p0 + t * drift + rng.normal(0, 0.02, size=2) for t in range(steps + 1)]
        trajs.append(make_traj(f"r{i}", pts))
    return make_dataset(trajs)


def test_horizon_is_last_time_with_three_alive():
    ns = build_natset(fan_dataset((5, 7, 9)))
    assert ns.horizon == 5
    assert len(ns) == 6
    assert [h.t for h in ns.hulls] == list(range(6))


def test_horizon_maximality():
    ds = fan_dataset((5, 7, 9))
    ns = build_natset(ds)
    assert len(slice_at(ds, ns.horizon)) >= 3
    assert len(slice_at(ds, ns.horizon + 1)) < 3


def test_two_trajectories_insufficient():
    ds = make_dataset(
        [make_traj("a", [(0, 0), (1, 0), (2, 0)]), make_traj("b", [(0, 1), (1, 1), (2, 1)])]
    )
    with pytest.raises(InsufficientData):
        build_natset(ds)


def test_degenerate_slice_is_inflated():
    # three actors sliding along the same line: every slice is collinear
    ds = make_dataset(
        [make_traj(f"c{i}", [(t + i, 0.0) for t in range(4)]) for i in range(3)]
    )
    ns = build_natset(ds)
    for hull in ns.hulls:
        assert hull.polygon.area > 0
        assert hull.polygon.area < 1e-4  # inflation is microscopic
    # the generating points still lie inside
    assert point_margin(ns.hulls[0].halfspaces, (1.0, 0.0)) <= 1e-9


def test_generator_containment():
    ds = random_dataset()
    ns = build_natset(ds)
    for tr in ds.trajectories:
        flags = trajectory_membership(ns, tr.dyn_states)
        assert len(flags) == min(ns.horizon, tr.horizon) + 1
        assert all(flags)


def test_membership_flags_outsider():
    ds = random_dataset()
    ns = build_natset(ds)
    far = np.zeros((ns.horizon + 1, 4))
    far[:, 0] = 500.0
    assert not any(trajectory_membership(ns, far))


@pytest.mark.parametrize("shape", [(5, 2), (5,), (5, 7)])
def test_membership_takes_only_t_by_4_states(shape):
    ns = build_natset(random_dataset())
    with pytest.raises(ValueError, match=re.escape(f"(T, 4) array, got shape {shape}")):
        trajectory_membership(ns, np.zeros(shape))


def test_membership_single_state_overlap():
    ns = build_natset(random_dataset())
    one = np.array([[0.0, 0.0, 0.0, 0.0]])
    assert len(trajectory_membership(ns, one)) == 1


def test_stats_unit_square():
    poly = quickhull([(0, 0), (1, 0), (1, 1), (0, 1)])
    stats = natset_stats(stacked_tube([(poly, to_halfspaces(poly), 4)] * 3, dt=0.04))
    assert [s["area"] for s in stats] == pytest.approx([1.0, 1.0, 1.0])
    assert all(s["vertices"] == 4 and s["support"] == 4 for s in stats)


def test_stats_area_scales_quadratically():
    small = quickhull([(0, 0), (1, 0), (1, 1), (0, 1)])
    big = quickhull([(0, 0), (2, 0), (2, 2), (0, 2)])
    ns = stacked_tube(((small, to_halfspaces(small), 4), (big, to_halfspaces(big), 4)), dt=1.0)
    stats = natset_stats(ns)
    assert stats[1]["area"] / stats[0]["area"] == pytest.approx(4.0)


def test_serialization_round_trip_is_bit_exact(tmp_path):
    ns = build_natset(random_dataset())
    path = tmp_path / "tube.json"
    write_natset(ns, path)
    back = read_natset(path)
    assert back.dt == float(f"{ns.dt:.11e}")
    assert back.horizon == ns.horizon
    for h1, h2 in zip(ns.hulls, back.hulls):
        assert h2.support == h1.support
        # rounding to 12 significant digits happened exactly once
        assert np.array_equal(
            h2.polygon.vertices,
            np.vectorize(lambda x: float(f"{x:.11e}"))(h1.polygon.vertices),
        )
    path2 = tmp_path / "tube2.json"
    write_natset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("horizon,seed", [(400, 2), (400, 18), (200, 2)])
def test_far_from_origin_tubes_read_back(tmp_path, horizon, seed):
    # hulls 180-360 m from the origin, where 12-digit rounding moves margins past 1e-9
    spec = default_spec("straight_road_with_stop", count=200, seed=seed, horizon=horizon)
    trajectories, task = generate_scenario(spec)
    start = Region(quickhull(np.asarray(task["start_polygon"])))
    end = Region(quickhull(np.asarray(task["end_polygon"])))
    ns = build_natset(filter_task(trajectories, start, end, task["min_speed"]))
    path = tmp_path / "tube.json"
    write_natset(ns, path)
    assert read_natset(path).horizon == ns.horizon == horizon
    # the scaled tolerance still rejects a half-space moved by 1e-5 m
    text = path.read_text()
    hulls = json.loads(text)["hulls"]
    far = max(range(len(hulls)), key=lambda t: np.max(np.abs(hulls[t]["vertices"])))
    for shift, cause in ((1e-5, "slack half-space"), (-1e-5, "vertices violate")):
        moved = json.loads(text)
        moved["hulls"][far]["h"][0] += shift
        path.write_text(json.dumps(moved))
        with pytest.raises(ValueError, match=cause):
            read_natset(path)


def test_read_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dt": 0.04, "hulls": []}))
    with pytest.raises(ValueError):
        read_natset(bad)


def test_trim_removes_outlier():
    base = [
        make_traj(f"n{i}", [(t + dx, dy) for t in range(4)])
        for i, (dx, dy) in enumerate([(0, 0), (0.5, 1.0), (1.0, 0.2), (0.3, 0.7)])
    ]
    outlier = make_traj("out", [(t, 50.0) for t in range(4)])
    ds = make_dataset(base + [outlier])
    plain = build_natset(ds)
    trimmed = build_natset(ds, trim=1)
    assert plain.hulls[0].support == 5
    assert trimmed.hulls[0].support == 4
    assert point_margin(trimmed.hulls[0].halfspaces, (0.0, 50.0)) > 1e-6
    assert trimmed.hulls[0].polygon.area < plain.hulls[0].polygon.area


def test_trim_never_leaves_fewer_than_three():
    ds = fan_dataset((4, 4, 4))
    ns = build_natset(ds, trim=10)
    assert all(h.support == 3 for h in ns.hulls)


def test_timed_hull_validation():
    poly = quickhull([(0, 0), (1, 0), (1, 1), (0, 1)])
    hs = to_halfspaces(poly)
    with pytest.raises(ValueError, match="built from 2 states"):
        stacked_tube([(poly, hs, 2)], dt=0.04)
    shifted = quickhull([(5, 5), (6, 5), (6, 6), (5, 6)])
    with pytest.raises(ValueError, match="vertices violate half-spaces"):
        stacked_tube([(shifted, hs, 4)], dt=0.04)


def test_mixed_frame_rates_rejected():
    trajs = [
        make_traj("a", [(0, 0), (1, 0), (2, 1)], frame_rate=25.0),
        make_traj("b", [(0, 1), (1, 1), (2, 2)], frame_rate=25.0),
        make_traj("c", [(0, 2), (1, 2), (2, 3)], frame_rate=10.0),
    ]
    with pytest.raises(ValueError):
        build_natset(make_dataset(trajs))


def test_contiguity_enforced(tmp_path):
    # two well-formed hulls whose time indices skip t = 1
    hull = {"t": 0, "support": 3, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "G": [[0, -1], [1, 0], [0, 1], [-1, 0]], "h": [0, 1, 1, 0]}
    doc = {"dt": 0.04, "hull_dim": 2, "transform": [[1, 0, 0, 0], [0, 0, 1, 0]],
           "hulls": [hull, dict(hull, t=2)]}
    path = tmp_path / "tube.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        read_natset(path)
    assert str(err.value) == f"{path}: hull time indices must be contiguous from 0"


def test_margins_do_not_depend_on_batch():
    # 30 points within 1e-3 m of the vertices of each hull of the bundled
    # tube, where a matrix-vector and a matrix-matrix product round apart
    tube = read_natset(Path(__file__).resolve().parents[1] / "demos" / "out" / "tube.json")
    rng = np.random.default_rng(19)
    n = 30
    pts = np.array([
        hull.polygon.vertices[rng.integers(0, len(hull.polygon), n)]
        + rng.uniform(-1e-3, 1e-3, (n, 2))
        for hull in tube.hulls
    ])
    for hull, p in zip(tube.hulls, pts):
        hs = hull.halfspaces
        batch = margins(hs.G, hs.h, p[:, None])
        assert batch.shape == (n, len(hs))
        assert np.array_equal(signed_violations(hs, p), batch.max(axis=1))
        for q, row in zip(p, batch):
            assert np.array_equal(margins(hs.G, hs.h, q), row)


def _move_vertex(dist):
    def mutate(hull, rng):
        j = rng.integers(len(hull["vertices"]))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        hull["vertices"][j][0] += dist * np.cos(angle)
        hull["vertices"][j][1] += dist * np.sin(angle)
    return mutate


def _reverse(hull, rng):
    hull["vertices"].reverse()


def _duplicate_vertex(hull, rng):
    j = rng.integers(len(hull["vertices"]))
    hull["vertices"].insert(j + 1, list(hull["vertices"][j]))


def _delete_vertex(hull, rng):
    del hull["vertices"][rng.integers(len(hull["vertices"]))]


def _scale_row(hull, rng):
    j = rng.integers(len(hull["h"]))
    hull["G"][j] = [g * (1.0 + 1e-11) for g in hull["G"][j]]


def _shift_h(shift):
    def mutate(hull, rng):
        hull["h"][rng.integers(len(hull["h"]))] += shift
    return mutate


def _delete_row(hull, rng):
    j = rng.integers(len(hull["h"]))
    del hull["G"][j]
    del hull["h"][j]


def _support_two(hull, rng):
    hull["support"] = 2


def _shift_t(step):
    def mutate(hull, rng):
        hull["t"] += step
    return mutate


MUTATIONS = {
    "vertex_1e-12": _move_vertex(1e-12),
    "vertex_1e-8": _move_vertex(1e-8),
    "vertex_1e-3": _move_vertex(1e-3),
    "vertex_0.5": _move_vertex(0.5),
    "reverse": _reverse,
    "duplicate_vertex": _duplicate_vertex,
    "delete_vertex": _delete_vertex,
    "scale_row": _scale_row,
    "h_+1e-8": _shift_h(1e-8),
    "h_-1e-8": _shift_h(-1e-8),
    "h_+1e-3": _shift_h(1e-3),
    "h_-1e-3": _shift_h(-1e-3),
    "delete_row": _delete_row,
    "support_2": _support_two,
    "t_+1": _shift_t(1),
    "t_-1": _shift_t(-1),
}


@pytest.fixture(scope="module")
def tube_texts(tmp_path_factory):
    """The bundled tube and an H=400 tube 180-360 m from the origin."""
    spec = default_spec("straight_road_with_stop", count=200, seed=2, horizon=400)
    trajectories, task = generate_scenario(spec)
    start = Region(quickhull(np.asarray(task["start_polygon"])))
    end = Region(quickhull(np.asarray(task["end_polygon"])))
    far = tmp_path_factory.mktemp("far") / "tube.json"
    write_natset(build_natset(filter_task(trajectories, start, end, task["min_speed"])), far)
    bundled = Path(__file__).resolve().parents[1] / "demos" / "out" / "tube.json"
    return [bundled.read_text(), far.read_text()]


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_batched_read_matches_hull_by_hull(tube_texts, tmp_path, name):
    # one hull mutated at a time: of the bundled tube the first, the last
    # and two drawn at random, of the H=400 tube one drawn at random;
    # read_natset must accept exactly the tubes the public constructors
    # accept, and reject the others with the same message
    rng = np.random.default_rng(sorted(MUTATIONS).index(name))
    path = tmp_path / "tube.json"
    bundled, far = tube_texts
    count = len(json.loads(bundled)["hulls"])
    cases = [(bundled, k) for k in (0, count - 1, *rng.integers(1, count - 1, 2))]
    for text, k in cases + [(far, rng.integers(401))]:
        doc = json.loads(text)
        MUTATIONS[name](doc["hulls"][k], rng)
        path.write_text(json.dumps(doc))
        try:
            want = read_hulls_one_by_one(doc)
        except ValueError as exc:
            with pytest.raises(ParseError) as err:
                read_natset(path)
            assert str(err.value) == f"{path}: {exc}"
            continue
        got = read_natset(path)
        assert (got.dt, got.provenance) == (want.dt, want.provenance)
        for a, b in zip(got.hulls, want.hulls, strict=True):
            assert (a.t, a.support) == (b.t, b.support)
            assert np.array_equal(a.polygon.vertices, b.polygon.vertices)
            assert np.array_equal(a.halfspaces.G, b.halfspaces.G)
            assert np.array_equal(a.halfspaces.h, b.halfspaces.h)


def round12(arr):
    return np.vectorize(lambda x: float(f"{x:.11e}"), otypes=[float])(arr)


def test_read_back_holds_the_built_stacks_rounded_once(tmp_path):
    # four tracks, one of which ends early: the support drops from 4 to 3
    built = build_natset(fan_dataset((5, 7, 9, 12)))
    assert built.support.tolist() == [4] * 6 + [3] * 2
    write_natset(built, tmp_path / "tube.json")
    back = read_natset(tmp_path / "tube.json")
    for name in ("start", "support"):
        assert np.array_equal(getattr(back, name), getattr(built, name))
    for name in ("vertices", "G", "h"):
        assert np.array_equal(getattr(back, name), round12(getattr(built, name)))
    assert (back.dt, back.provenance) == (float(f"{built.dt:.11e}"), built.provenance)


def test_write_of_read_gives_the_same_bytes(tube_texts, tmp_path):
    # the bundled tube and the H=400 tube 180-360 m from the origin
    for text in tube_texts:
        path = tmp_path / "tube.json"
        path.write_text(text)
        write_natset(read_natset(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == text


# values that hold no array, json lays out itself: nested containers (empty
# ones, and dicts with non-string keys, which json converts), None, bools,
# ints, floats at repr's switches and the non-finite, and escaped strings
ARRAY_FREE = {
    "nested": [[1, [2.5, -0.0, []]], (3, (4, ())), {}, [], ()],
    "tuple_of_tuples": ((0, 2), (), (1,)),
    "string_keys": {"k": None, "\u00fc": [True, False], "e": {}},
    "list_of_dicts": [{"a": [1, 2]}, {}, 3],
    "tuple_of_a_dict": ({"x": 1.5},),
    "other_keys": {1: "a", 2.5: [None], None: (), False: {}},
    "mixed_keys": {"a": 1, 2: [3, {"b": {}}]},
    "empty_dict": {},
    "empty_list": [],
    "none": None,
    "true": True,
    "false": False,
    "int": -7,
    "big_int": 2**70,
    "scalars": [None, True, False, 0, -7, 2**70],
    "negative_zero": -0.0,
    "floats": [-0.0, 1e16, 1e-7, 9999999999999998.0, 1e-4, 0.1 + 0.2],
    "non_finite": [float("nan"), float("inf"), -float("inf")],
    "nan": float("nan"),
    "inf": -float("inf"),
    "unicode": "na\u00efve \u2713 \U0001f600",
    "escapes": 'quote " back \\ slash\n\ttab \x00 \u2028',
    "strings": ["", "\x7f", "\r\n"],
}


@pytest.mark.parametrize("name", list(ARRAY_FREE))
def test_array_free_values_are_laid_out_as_json_lays_them_out(name, monkeypatch):
    value = ARRAY_FREE[name]
    assert _json_text(value) == json.dumps(value, indent=2)
    # nested beside an array, in a dict and in a list
    array = np.array([[1.5, -0.0], [2.0, 1e-7]])
    beside = {"array": array, "value": value}
    assert _json_text(beside) == json.dumps({"array": array.tolist(), "value": value}, indent=2)
    assert _json_text([array, value]) == json.dumps([array.tolist(), value], indent=2)
    # a value that is neither a dict nor a list or tuple directly holding one
    # is one call of json's own
    items = value if isinstance(value, (list, tuple)) else ()
    if not isinstance(value, dict) and not any(isinstance(v, dict) for v in items):
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
        _json_text(value)
        assert calls == [(value,)]


def test_read_and_project_build_no_per_hull_object(tube_texts, tmp_path, monkeypatch):
    path = tmp_path / "tube.json"
    path.write_text(tube_texts[1])

    def refuse(*args, **kwargs):
        raise AssertionError("built a per-hull object")

    # a build takes each step's hull and its rows, but makes no TimedHull
    monkeypatch.setattr(TimedHull, "__new__", refuse)
    scene = Path(__file__).resolve().parents[1] / "demos" / "out" / "scene"
    start, end, min_speed, frame_rate = load_task(scene / "task.json")
    trajectories = load_trajectories(scene / "tracks.csv", frame_rate=frame_rate)
    write_natset(build_natset(filter_task(trajectories, start, end, min_speed)),
                 tmp_path / "built.json")
    assert (tmp_path / "built.json").read_text() == tube_texts[0]
    # a read and a projection make no per-hull object at all
    for cls in (ConvexPolygon, HalfSpaceSet):
        monkeypatch.setattr(cls, "__init__", refuse)
    tube = read_natset(path)
    # a candidate through the middle of every hull, at the speed that
    # reaches the next middle in one step
    counts = np.diff(tube.start)
    middle = np.add.reduceat(tube.vertices, tube.start[:-1]) / counts[:, None]
    states = np.zeros((len(tube), 4))
    states[:, POSITIONS] = middle
    states[:-1, [1, 3]] = np.diff(middle, axis=0) / tube.dt
    candidate = CandidateTrajectory(states, tube.dt)
    result = project(candidate, tube, double_integrator(tube.dt))
    write_projection(result, candidate, tmp_path / "projection.json")
    assert "hulls" not in vars(tube)
    monkeypatch.undo()

    for t in (0, 1, 200, tube.horizon):
        hull = tube.hulls[t]
        v = tube.vertices[tube.start[t]:tube.start[t + 1]]
        rows = slice(tube.start[t], tube.start[t + 1])
        assert (hull.t, hull.support) == (t, tube.support[t])
        assert len(hull.polygon) == len(v) and len(hull.halfspaces) == rows.stop - rows.start
        for got, want in ((hull.polygon.vertices, v), (hull.halfspaces.G, tube.G[rows]),
                          (hull.halfspaces.h, tube.h[rows])):
            assert np.shares_memory(got, want) and np.array_equal(got, want)
            assert not got.flags.writeable
        with pytest.raises(AttributeError):
            hull.polygon.vertices = v.copy()
        with pytest.raises(AttributeError):
            hull.support = 7
    assert tube.hulls is tube.hulls


def test_integer_coordinates_are_numbers(tmp_path):
    # a unit box written with JSON integers: every entry is 0 or 1, the
    # values a bool would read as
    hull = {"t": 0, "support": 3, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "G": [[0, -1], [1, 0], [0, 1], [-1, 0]], "h": [0, 1, 1, 0]}
    doc = {"dt": 1, "hull_dim": 2, "transform": [[1, 0, 0, 0], [0, 0, 1, 0]],
           "hulls": [hull, dict(hull, t=1)]}
    path = tmp_path / "tube.json"
    path.write_text(json.dumps(doc))
    tube = read_natset(path)
    assert tube.dt == 1.0 and tube.vertices.dtype == float
    assert natset_stats(tube)[1] == {"t": 1, "vertices": 4, "area": 1.0, "support": 3}


def test_stacks_and_offsets_must_agree():
    tube = build_natset(random_dataset())
    with pytest.raises(ValueError, match="stacks and their offsets do not match"):
        replace(tube, start=tube.start[:-1])
    with pytest.raises(ValueError, match="stacks and their offsets do not match"):
        replace(tube, h=tube.h[1:])
    with pytest.raises(ValueError, match="a tube needs at least one hull"):
        replace(tube, start=[0], support=[])
    # the constructor checks what it holds, as a read does
    h = tube.h.copy()
    h[0] += 1e-3
    with pytest.raises(ValueError, match="hull at t=0: slack half-space row"):
        replace(tube, h=h)


def test_offsets_are_integers_non_decreasing_from_0():
    # a float start would index the stacks, and a decreasing one cut them
    # into hulls that are not the tube's
    tube = build_natset(random_dataset())
    swapped = tube.start[[0, 2, 1, *range(3, len(tube.start))]]
    for start in (tube.start.astype(float), swapped, tube.start.astype(bool)):
        with pytest.raises(ValueError, match="stacks and their offsets do not match"):
            replace(tube, start=start)
    narrow = replace(tube, start=tube.start.astype(np.int32)).start
    assert narrow.dtype == np.int64 and not narrow.flags.writeable


@pytest.mark.parametrize("support, message", [
    # a float support, which a write would put in the file as 40.5
    ({0: 40.5}, "hull at t=0: support must be an integer, got 40.5"),
    ({2: 10**30}, "hull at t=2: support must be an integer, got an integer beyond int64"),
    ({3: 2**63}, "hull at t=3: support must be an integer, got an integer beyond int64"),
    # spelled as in the file, or by repr where JSON cannot spell the value
    ({1: True}, "hull at t=1: support must be an integer, got true"),
    ({4: "5"}, 'hull at t=4: support must be an integer, got "5"'),
    ({0: np.float32(40.5)}, f"hull at t=0: support must be an integer, got {np.float32(40.5)!r}"),
])
def test_supports_must_be_integers_within_int64(support, message):
    tube = build_natset(random_dataset())
    values = tube.support.tolist()
    for t, value in support.items():
        values[t] = value
    with pytest.raises(ValueError) as exc:
        replace(tube, support=values)
    assert str(exc.value) == message
    # an integer array of any width is read as int64; a float array is refused
    assert replace(tube, support=tube.support.astype(np.uint8)).support.dtype == np.int64
    with pytest.raises(ValueError, match="hull at t=0: support must be an integer, got 12.0"):
        replace(tube, support=tube.support.astype(float))


def test_a_support_of_lists_is_named():
    # a 2-d support holds one list per hull, not an integer
    tube = build_natset(random_dataset())
    first = int(tube.support[0])
    for support in ([[s] for s in tube.support.tolist()], tube.support.reshape(-1, 1)):
        with pytest.raises(ValueError) as exc:
            replace(tube, support=support)
        assert str(exc.value) == f"hull at t=0: support must be an integer, got [{first}]"


def test_every_tube_the_constructor_accepts_reads_back(tmp_path):
    tube = build_natset(random_dataset())
    big = np.iinfo(np.int64).max
    tube = replace(tube, support=[big, *tube.support.tolist()[1:]])
    write_natset(tube, tmp_path / "tube.json")
    back = read_natset(tmp_path / "tube.json")
    assert back.support.tolist() == tube.support.tolist()
    assert back.support[0] == big


def test_hulls_are_checked_objects_whose_rows_are_their_edges():
    for tube in (build_natset(random_dataset()), build_natset(fan_dataset((5, 7, 9, 12)))):
        for hull in tube.hulls:
            assert type(hull.polygon) is ConvexPolygon
            assert type(hull.halfspaces) is HalfSpaceSet
            edges = to_halfspaces(hull.polygon)
            assert np.array_equal(edges.G, hull.halfspaces.G)
            assert np.array_equal(edges.h, hull.halfspaces.h)


def test_export_svg_builds_no_per_hull_object(tube_texts, tmp_path, monkeypatch, capsys):
    path = tmp_path / "tube.json"
    path.write_text(tube_texts[1])

    def refuse(*args, **kwargs):
        raise AssertionError("built a per-hull object")

    for cls in (ConvexPolygon, HalfSpaceSet):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(TimedHull, "__new__", refuse)
    assert main(["export-svg", "--natset", str(path), "--out", str(tmp_path / "tube.svg")]) == 0
    assert (tmp_path / "tube.svg").read_text().count("<polygon") == 401
