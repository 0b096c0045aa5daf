"""Every projection on the synthetic scene grid is certified or rejected for
the right reason.

The initial state is pinned, and p_1 = p_0 + dt v_0 follows from it, so the
hulls at t = 0 and t = 1 judge the input: no control changes either outcome.
Each outcome is checked here with plain numpy on the hulls' G and h:

* certified: the result starts at x_0, every state lies in its hull within
  FEAS_TOL, and the controls roll out to the states;
* InitialStateOutsideTube: x_0 misses W_0 by more than FEAS_TOL;
* SolverFailure: only when the zero-control step x_1 misses W_1 by more
  than FEAS_TOL, the same bound as at t = 0, and the message names t=1.
"""

import numpy as np
import pytest

from natset import (
    CandidateTrajectory,
    InitialStateOutsideTube,
    Region,
    SolverFailure,
    build_natset,
    double_integrator,
    filter_task,
    project,
    quickhull,
    read_natset,
    read_projection,
    rollout,
    write_natset,
    write_projection,
)
from natset.data import Trajectory
from natset.projection import FEAS_TOL
from natset.synthetic import KINDS, default_spec, generate_scenario, straight_candidate

HORIZONS = (60, 100, 150, 200)


def tube_of(spec):
    trajs, task = generate_scenario(spec)
    start = Region(quickhull(np.array(task["start_polygon"])))
    end = Region(quickhull(np.array(task["end_polygon"])))
    return build_natset(filter_task(trajs, start, end, task["min_speed"]))


def candidates_for(spec):
    """The chord on the curved road; 4 held-out tracks on the stop scene."""
    if spec.kind == "curved_road":
        return [straight_candidate(spec)]
    held_out, _ = generate_scenario(
        default_spec(spec.kind, count=4, seed=spec.seed + 1000, horizon=spec.horizon)
    )
    return held_out


def margin(hull, states):
    """Worst half-space margin of each state's position against one hull."""
    G, h = hull.halfspaces.G, hull.halfspaces.h
    positions = np.asarray(states).reshape(-1, 4)[:, [0, 2]]
    return np.max(positions @ G.T - h, axis=1)


def check_outcome(cand, ns, dyn):
    """Project one candidate and verify its outcome; returns its kind and,
    when certified, the result."""
    x0 = cand.states[0]
    try:
        res = project(cand, ns, dyn)
    except InitialStateOutsideTube:
        assert margin(ns.hulls[0], x0)[0] > FEAS_TOL
        return "outside_start", None
    except SolverFailure as exc:
        x1 = rollout(dyn, x0, np.zeros((1, 2)))[1]
        assert margin(ns.hulls[1], x1)[0] > FEAS_TOL, str(exc)
        assert "at t=1 " in str(exc), str(exc)
        return "t1_miss", None
    assert np.array_equal(res.states[0], x0)
    overlap = min(ns.horizon, cand.horizon)
    for t in range(overlap + 1):
        assert margin(ns.hulls[t], res.states[t])[0] <= FEAS_TOL, f"t={t}"
    assert np.max(np.abs(rollout(dyn, x0, res.controls) - res.states)) <= 1e-9
    return "certified", res


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("kind", KINDS)
def test_scene_grid_outcomes_are_certified_or_typed(kind, seed):
    for horizon in HORIZONS:
        spec = default_spec(kind, count=40, seed=seed, horizon=horizon)
        ns = tube_of(spec)
        dyn = double_integrator(ns.dt)
        for tr in candidates_for(spec):
            check_outcome(CandidateTrajectory.from_trajectory(tr), ns, dyn)


def test_dense_curved_scene_whose_first_step_misses_w1():
    # 200 arcs, seed 7, H=200: the chord starts inside W_0, but its fixed
    # first step leaves W_1, so no projection can be certified
    spec = default_spec("curved_road", count=200, seed=7, horizon=200)
    ns = tube_of(spec)
    cand = CandidateTrajectory.from_trajectory(straight_candidate(spec))
    dyn = double_integrator(ns.dt)
    assert margin(ns.hulls[0], cand.states[0])[0] <= FEAS_TOL
    assert margin(ns.hulls[1], rollout(dyn, cand.states[0], np.zeros((1, 2)))[1])[0] > FEAS_TOL
    assert check_outcome(cand, ns, dyn)[0] != "certified"


def shifted_members_and_tube(kind, shift, path):
    """The members of the seed-7 scene of 40 tracks, every position moved
    by ``shift`` m in x and in y, each cut at its start-region entry, and
    their tube as written to ``path`` and read back."""
    trajs, task = generate_scenario(default_spec(kind, count=40, seed=7))
    moved = []
    for tr in trajs:
        data = np.array(tr.data)
        data[:, [0, 2]] += shift
        moved.append(Trajectory(tr.actor_id, tr.frame_rate, data))
    start, end = (Region(quickhull(np.array(task[key]) + shift))
                  for key in ("start_polygon", "end_polygon"))
    dataset = filter_task(moved, start, end, task["min_speed"])
    write_natset(build_natset(dataset), path)
    return dataset.trajectories, read_natset(path)


@pytest.mark.parametrize("shift", (1e3, 1e5))
@pytest.mark.parametrize("kind", KINDS)
def test_members_far_from_the_origin_are_certified(kind, shift, tmp_path):
    # the written tube keeps 12 digits, which moves a hull by about
    # 1e-12 |x|: a member's pinned p_1 then misses W_1 by up to 3e-7 m at
    # 1e5 m, inside FEAS_TOL, the bound every written state keeps
    members, ns = shifted_members_and_tube(kind, shift, tmp_path / "tube.json")
    dyn = double_integrator(ns.dt)
    for tr in members:
        cand = CandidateTrajectory.from_trajectory(tr)
        write_projection(project(cand, ns, dyn), cand, tmp_path / "projection.json")
        states = read_projection(tmp_path / "projection.json")["states"]
        assert np.allclose(states[0], cand.states[0], rtol=1e-11, atol=0), tr.actor_id
        for t in range(min(ns.horizon, len(states) - 1) + 1):
            assert margin(ns.hulls[t], states[t])[0] <= FEAS_TOL, (tr.actor_id, t)
