"""Synthetic scenario generators: determinism, task compatibility, shape."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from natset.data import (
    RawActorState,
    TaskDataset,
    Trajectory,
    filter_task,
    load_task,
    load_trajectories,
)
from natset.dynamics import double_integrator, rollout
from natset.geometry import extent_along
from natset.natset import build_natset, trajectory_membership
from natset.synthetic import (
    RADII,
    SPEED_RANGE,
    ScenarioSpec,
    default_spec,
    generate_scenario,
    straight_candidate,
    write_scenario,
)


def _filtered_dataset(spec, tmp_path):
    paths = write_scenario(spec, tmp_path)
    trajs = load_trajectories(paths["tracks"], frame_rate=1.0 / spec.dt)
    start, end, min_speed, _ = load_task(paths["task"])
    return filter_task(trajs, start, end, min_speed)


def test_generation_is_deterministic(tmp_path):
    spec = default_spec("curved_road", count=12, seed=7)
    a = write_scenario(spec, tmp_path / "a")
    b = write_scenario(spec, tmp_path / "b")
    assert a["tracks"].read_bytes() == b["tracks"].read_bytes()
    assert a["task"].read_bytes() == b["task"].read_bytes()
    assert a["candidate"].read_bytes() == b["candidate"].read_bytes()


def test_default_scene_reproduces_committed_demo_files(tmp_path):
    committed = Path(__file__).resolve().parents[1] / "demos" / "out" / "scene"
    paths = write_scenario(default_spec("curved_road", count=40, seed=7), tmp_path)
    assert sorted(paths) == ["candidate", "task", "tracks"]
    for path in paths.values():
        assert path.read_bytes() == (committed / path.name).read_bytes()


def test_default_stop_scene_keeps_its_bytes(tmp_path):
    # sha256 of the files this generator wrote for the default stop scene
    # (seed 7, 40 tracks, H=100, dt=0.1); the long benchmark's tube and
    # held-out candidates come from the same generator
    digests = {
        "tracks": "972106c6fe1a789a6b54b7e4ead4b56d462ac97436f64c06ae0d3184614d6e22",
        "task": "261c4db6d19d43e8172cf2846fd2acf2c7a572004bb1187214db9036bce5a87d",
    }
    paths = write_scenario(default_spec("straight_road_with_stop"), tmp_path)
    assert sorted(paths) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256(paths[name].read_bytes()).hexdigest() == digest


def test_different_seeds_differ(tmp_path):
    a = write_scenario(default_spec("curved_road", count=6, seed=1), tmp_path / "a")
    b = write_scenario(default_spec("curved_road", count=6, seed=2), tmp_path / "b")
    assert a["tracks"].read_bytes() != b["tracks"].read_bytes()


def test_curved_road_survives_its_own_task_filter(tmp_path):
    spec = default_spec("curved_road", count=15, seed=3)
    dataset = _filtered_dataset(spec, tmp_path)
    assert len(dataset.trajectories) == spec.count
    assert all(tr.horizon == spec.horizon for tr in dataset.trajectories)


def test_straight_road_survives_its_own_task_filter(tmp_path):
    spec = default_spec("straight_road_with_stop", count=10, seed=5)
    dataset = _filtered_dataset(spec, tmp_path)
    assert len(dataset.trajectories) == spec.count


def test_curved_hulls_fan_out_along_the_lane(tmp_path):
    spec = default_spec("curved_road", count=25, seed=7)
    natset = build_natset(_filtered_dataset(spec, tmp_path))
    assert natset.horizon == spec.horizon
    # tangent of the mid-band arc at each end of the tube
    s_mid = 0.5 * sum(SPEED_RANGE)
    r_mid = 0.5 * sum(RADII)
    theta = np.pi - (s_mid / r_mid) * spec.dt * natset.horizon
    tangent_end = (np.sin(theta), -np.cos(theta))
    tangent_start = (0.0, -1.0)
    early = extent_along(natset.hulls[1].polygon, tangent_start)
    late = extent_along(natset.hulls[-1].polygon, tangent_end)
    assert late >= 2.0 * early


def test_stop_scene_stretches_along_lane(tmp_path):
    spec = default_spec("straight_road_with_stop", count=20, seed=7)
    natset = build_natset(_filtered_dataset(spec, tmp_path))
    early = extent_along(natset.hulls[1].polygon, (1.0, 0.0))
    late = extent_along(natset.hulls[-1].polygon, (1.0, 0.0))
    assert late >= 3.0 * early


def test_chord_candidate_is_feasible_but_leaves_the_tube(tmp_path):
    spec = default_spec("curved_road", count=30, seed=7)
    cand = straight_candidate(spec)
    # dynamically consistent: replaying its own implied controls reproduces it
    dyn = double_integrator(spec.dt)
    states = cand.dyn_states
    controls = np.diff(states[:, [1, 3]], axis=0) / spec.dt
    replay = rollout(dyn, states[0], controls)
    assert np.max(np.abs(replay - states)) <= 1e-9
    natset = build_natset(_filtered_dataset(spec, tmp_path))
    inside = trajectory_membership(natset, cand.dyn_states)
    assert inside[0]
    mid = slice(len(inside) // 3, 2 * len(inside) // 3)
    assert not all(inside[mid])


def test_generated_velocities_match_position_differences(tmp_path):
    spec = default_spec("straight_road_with_stop", count=6, seed=11)
    trajs, _ = generate_scenario(spec)
    for tr in trajs:
        pos = tr.positions
        vel = np.array([s.velocity for s in tr.states])
        step = np.diff(pos, axis=0) / spec.dt
        assert np.allclose(vel[:-1], step, atol=1e-12)


@pytest.mark.parametrize("kind", ["curved_road", "straight_road_with_stop"])
def test_trajectories_equal_per_sample_derivation(kind):
    spec = default_spec(kind, count=5, seed=3, horizon=30)
    for tr in generate_scenario(spec)[0]:
        pos = tr.positions
        vel = np.diff(pos, axis=0) / spec.dt
        vel = np.vstack([vel, vel[-1]])
        acc = np.diff(vel, axis=0) / spec.dt
        acc = np.vstack([acc, acc[-1]])
        ref = Trajectory(tr.actor_id, 1.0 / spec.dt, [
            RawActorState(tuple(pos[t]), tuple(vel[t]), tuple(acc[t]),
                          float(np.arctan2(vel[t, 1], vel[t, 0])))
            for t in range(len(pos))
        ])
        assert np.array_equal(tr.data, ref.data)


def test_scenario_parameters_validated():
    with pytest.raises(ValueError):
        ScenarioSpec(kind="roundabout")
    with pytest.raises(ValueError):
        ScenarioSpec(kind="curved_road", count=2)
    with pytest.raises(ValueError):
        straight_candidate(default_spec("straight_road_with_stop"))
