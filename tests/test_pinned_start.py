"""Every projection on the synthetic scene grid is certified or rejected for
the right reason.

The initial state is pinned, and p_1 = p_0 + dt v_0 follows from it, so the
hulls at t = 0 and t = 1 judge the input: no control changes either outcome.
Each outcome is checked here with plain numpy on the hulls' G and h:

* certified: the result starts at x_0, every state lies in its hull within
  FEAS_TOL, and the controls roll out to the states;
* InitialStateOutsideTube: x_0 misses W_0 by more than FEAS_TOL;
* SolverFailure: only when the zero-force step x_1 misses W_1 and the
  message names t=1.

Forces scale with the mass, so no outcome may depend on the mass unit.
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
    rollout,
)
from natset.geometry import INSIDE_TOL
from natset.projection import FEAS_TOL
from natset.synthetic import KINDS, default_spec, generate_scenario, straight_candidate

HORIZONS = (60, 100, 150, 200)
MASSES = (1e-6, 1.0, 1e14)


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
        assert margin(ns.hulls[1], x1)[0] > INSIDE_TOL, str(exc)
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


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("kind", KINDS)
def test_scene_grid_outcomes_do_not_depend_on_the_mass(kind, seed):
    # only step 1 is out of every force's reach, whatever the mass
    spec = default_spec(kind, count=40, seed=seed, horizon=100)
    ns = tube_of(spec)
    for tr in candidates_for(spec):
        cand = CandidateTrajectory.from_trajectory(tr)
        outcomes = {m: check_outcome(cand, ns, double_integrator(ns.dt, mass=m)) for m in MASSES}
        kind_at_1, res_at_1 = outcomes[1.0]
        for mass, (kind_at_m, res) in outcomes.items():
            assert kind_at_m == kind_at_1, f"mass={mass:g}"
            if res is not None:
                assert res.active_constraints == res_at_1.active_constraints, f"mass={mass:g}"
