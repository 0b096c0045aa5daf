import json
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
    slice_at,
)
from natset.dynamics import POSITIONS
from natset.geometry import margins, quickhull, signed_violations, to_halfspaces
from natset.natset import (
    InsufficientData,
    NaturalisticSet,
    TimedHull,
    build_natset,
    hull_margins,
    natset_stats,
    read_natset,
    trajectory_membership,
    write_natset,
)
from natset.synthetic import default_spec, generate_scenario
from oracles import point_margin, read_hulls_one_by_one


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


def test_membership_single_state_overlap():
    ns = build_natset(random_dataset())
    one = np.array([[0.0, 0.0, 0.0, 0.0]])
    assert len(trajectory_membership(ns, one)) == 1


def test_stats_unit_square():
    poly = quickhull([(0, 0), (1, 0), (1, 1), (0, 1)])
    hulls = [TimedHull(t, poly, to_halfspaces(poly), 4) for t in range(3)]
    stats = natset_stats(NaturalisticSet(tuple(hulls), dt=0.04))
    assert [s["area"] for s in stats] == pytest.approx([1.0, 1.0, 1.0])
    assert all(s["vertices"] == 4 and s["support"] == 4 for s in stats)


def test_stats_area_scales_quadratically():
    small = quickhull([(0, 0), (1, 0), (1, 1), (0, 1)])
    big = quickhull([(0, 0), (2, 0), (2, 2), (0, 2)])
    ns = NaturalisticSet(
        (
            TimedHull(0, small, to_halfspaces(small), 4),
            TimedHull(1, big, to_halfspaces(big), 4),
        ),
        dt=1.0,
    )
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
    with pytest.raises(ValueError):
        TimedHull(0, poly, hs, 2)
    shifted = quickhull([(5, 5), (6, 5), (6, 6), (5, 6)])
    with pytest.raises(ValueError):
        TimedHull(0, shifted, hs, 4)


def test_mixed_frame_rates_rejected():
    trajs = [
        make_traj("a", [(0, 0), (1, 0), (2, 1)], frame_rate=25.0),
        make_traj("b", [(0, 1), (1, 1), (2, 2)], frame_rate=25.0),
        make_traj("c", [(0, 2), (1, 2), (2, 3)], frame_rate=10.0),
    ]
    with pytest.raises(ValueError):
        build_natset(make_dataset(trajs))


def test_contiguity_enforced():
    poly = quickhull([(0, 0), (1, 0), (1, 1), (0, 1)])
    hull0 = TimedHull(0, poly, to_halfspaces(poly), 3)
    hull2 = TimedHull(2, poly, to_halfspaces(poly), 3)
    with pytest.raises(ValueError):
        NaturalisticSet((hull0, hull2), dt=0.04)


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
    for j in range(n):
        states = np.zeros((len(tube), 4))
        states[:, POSITIONS] = pts[:, j]
        for hull, got in zip(tube.hulls, hull_margins(tube, states)):
            hs = hull.halfspaces
            assert np.array_equal(got, margins(hs.G, hs.h, pts[hull.t, j]))


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
