import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import natset
from natset import geometry, qpsolver
from natset.cli import main
from natset.data import (
    SPEED_BOUND,
    RawActorState,
    Region,
    Task,
    TaskDataset,
    Trajectory,
    filter_task,
    load_trajectories,
)
from natset.dynamics import POSITIONS, double_integrator, rollout
from natset.geometry import INSIDE_TOL, quickhull, to_halfspaces
from natset.natset import (
    build_natset,
    read_natset,
    step_rows_within,
    trajectory_membership,
    write_natset,
)
from natset.projection import (
    ACTIVE_TOL,
    FEAS_TOL,
    CandidateTrajectory,
    InitialStateOutsideTube,
    SolverFailure,
    naturalism_report,
    project,
    read_projection,
    _program,
    write_projection,
)
from natset.qpsolver import QuadraticProgram, SolverStatus, solve
from natset.synthetic import default_spec, generate_scenario, straight_candidate, write_tracks_csv

from oracles import (
    condense_blockwise,
    enumerate_oracle,
    exact_kkt_point,
    planar_matrices,
    point_margin,
    rollout_exact,
    stacked_tube,
)


def euler_states(p0, v0, accels, dt):
    states = [np.array([p0[0], v0[0], p0[1], v0[1]], dtype=float)]
    for ax, ay in accels:
        x = states[-1]
        states.append(
            np.array([x[0] + dt * x[1], x[1] + dt * ax, x[2] + dt * x[3], x[3] + dt * ay])
        )
    return np.array(states)


def tube_from_states(state_arrays, dt):
    box = Region(quickhull([(-500, -500), (500, -500), (500, 500), (-500, 500)]))
    trajs = []
    for i, st in enumerate(state_arrays):
        raw = [
            RawActorState((s[0], s[2]), (s[1], s[3]), (0.0, 0.0), 0.0) for s in st
        ]
        trajs.append(Trajectory(str(i), 1.0 / dt, raw))
    ds = TaskDataset(tuple(trajs), Task(box, box, 0.0))
    return build_natset(ds), ds


def spread_family(seed=17, count=9, steps=8, dt=0.1):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        p0 = rng.uniform(-0.3, 0.3, size=2)
        v0 = np.array([1.0, 0.0]) + rng.uniform(-0.15, 0.15, size=2)
        accels = rng.normal(0.0, 0.4, size=(steps, 2))
        out.append(euler_states(p0, v0, accels, dt))
    return out


def box_hull(x0, x1, y0, y1, support=4):
    poly = quickhull([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    return poly, to_halfspaces(poly), support


def two_step_tube():
    hulls = (
        box_hull(-1.0, 1.0, 0.0, 1.0),
        box_hull(0.0, 2.0, 0.0, 1.0),
        box_hull(0.0, 1.0, 0.0, 1.0),
    )
    return stacked_tube(hulls, dt=1.0)


def test_two_step_reachable_projection():
    ns = two_step_tube()
    dyn = double_integrator(dt=1.0)
    cand = CandidateTrajectory([[t, 1.0, 0.5, 0.0] for t in range(3)], dt=1.0)
    res = project(cand, ns, dyn)
    assert res.objective == pytest.approx(2.0, abs=1e-6)
    assert res.states[2][0] == pytest.approx(1.0, abs=1e-6)
    assert res.states[2][2] == pytest.approx(0.5, abs=1e-6)
    assert np.allclose(res.controls, [[-1.0, 0.0], [1.0, 0.0]], atol=1e-6)


def test_two_step_matches_enumeration():
    # same instance reduced by hand: z = (u0x, u0y, u1x, u1y), final position
    # p2 = p0 + 2 v0 + u0, objective 2|u0|^2 + |u0 + u1|^2
    M = np.array([[3.0, 0.0, 1.0, 0.0], [0.0, 3.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    A = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, -1.0, 0, 0]])
    b = np.array([-1.0, 2.0, 0.5, 0.5])
    exact = enumerate_oracle(QuadraticProgram(2.0 * M, np.zeros(4), A, b))
    assert exact.objective == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(exact.z, [-1.0, 0.0, 1.0, 0.0], atol=1e-10)

    ns = two_step_tube()
    dyn = double_integrator(dt=1.0)
    cand = CandidateTrajectory([[t, 1.0, 0.5, 0.0] for t in range(3)], dt=1.0)
    res = project(cand, ns, dyn)
    assert res.objective == pytest.approx(exact.objective, abs=1e-6)
    assert np.allclose(res.controls.ravel(), exact.z, atol=1e-6)


def test_projection_idempotence_on_generators():
    dt = 0.1
    family = spread_family()
    ns, _ = tube_from_states(family, dt)
    dyn = double_integrator(dt=dt)
    for st in family[:6]:
        cand = CandidateTrajectory(st, dt)
        res = project(cand, ns, dyn)
        assert res.objective <= 1e-8
        assert np.max(np.abs(res.states - st)) <= 1e-6


def test_output_is_feasible_and_dynamic():
    dt = 0.1
    family = spread_family(seed=3)
    ns, _ = tube_from_states(family, dt)
    dyn = double_integrator(dt=dt)
    # straight dive across the family from a generator's start
    start = family[0][0]
    cand_states = euler_states(
        (start[0], start[2]), (start[1], start[3]), np.tile([0.0, 3.0], (8, 1)), dt
    )
    cand = CandidateTrajectory(cand_states, dt)
    res = project(cand, ns, dyn)
    for t in range(min(ns.horizon, cand.horizon) + 1):
        assert point_margin(ns.hulls[t].halfspaces, res.states[t, [0, 2]]) <= 1e-6
    # states really are the rollout of the returned controls
    rebuilt = rollout(dyn, cand_states[0], res.controls)
    assert np.max(np.abs(rebuilt - res.states)) <= 1e-9
    assert res.objective > 1e-4  # the dive was not naturalistic


def test_result_keeps_the_fresh_arrays_and_copies_writable_ones(monkeypatch):
    returned = []

    def recorded(*args):
        returned.append(rollout(*args))
        return returned[-1]

    monkeypatch.setattr(natset.projection, "rollout", recorded)
    tube, spec = task_tube("curved_road")
    candidate = CandidateTrajectory.from_trajectory(straight_candidate(spec))
    res = project(candidate, tube, double_integrator(tube.dt))
    # project hands over its own arrays read-only, so the result keeps them
    assert len(returned) == 1 and res.states is returned[0]
    assert not (res.states.flags.writeable or res.controls.flags.writeable)
    # a caller's writable arrays are copied: writing them changes no result
    states, controls = np.array(res.states), np.array(res.controls)
    copy = replace(res, states=states, controls=controls)
    assert copy.states is not states and copy.controls is not controls
    states[:] = controls[:] = 0.0
    assert np.array_equal(copy.states, res.states) and np.array_equal(copy.controls, res.controls)


def test_program_keeps_the_arrays_it_is_given(monkeypatch):
    passed = []

    def recorded(P, q, A, b):
        passed.append((P, q, b))
        return QuadraticProgram(P, q, A, b)

    monkeypatch.setattr(natset.projection, "QuadraticProgram", recorded)
    tube, spec = task_tube("curved_road")
    candidate = CandidateTrajectory.from_trajectory(straight_candidate(spec))
    qp = _program(candidate, tube)
    # _program hands over fresh read-only arrays, so the program copies none
    ((P, q, b),) = passed
    assert qp.P is P
    assert np.shares_memory(qp.q, q) and np.shares_memory(qp.b, b)


def test_objective_no_worse_than_any_shared_start_member():
    dt = 0.1
    family = spread_family(seed=29)
    ns, _ = tube_from_states(family, dt)
    dyn = double_integrator(dt=dt)
    base = family[0]
    rng = np.random.default_rng(4)
    cand_states = euler_states(
        (base[0][0], base[0][2]),
        (base[0][1], base[0][3]),
        rng.normal(0.0, 1.2, size=(8, 2)),
        dt,
    )
    cand = CandidateTrajectory(cand_states, dt)
    res = project(cand, ns, dyn)
    dist_sq = float(np.sum((cand_states - base) ** 2))
    assert res.objective <= dist_sq + 1e-9


def test_candidate_longer_than_tube():
    dt = 0.1
    family = spread_family(seed=7, steps=6)
    ns, _ = tube_from_states(family, dt)
    dyn = double_integrator(dt=dt)
    start = family[0][0]
    cand = CandidateTrajectory(
        euler_states(
            (start[0], start[2]), (start[1], start[3]), np.zeros((12, 2)), dt
        ),
        dt,
    )
    res = project(cand, ns, dyn)
    assert res.states.shape == (13, 4)
    report = naturalism_report(cand, ns)
    assert len(report) == 13
    assert all(v is None for v in report[ns.horizon + 1 :])
    assert all(v is not None for v in report[: ns.horizon + 1])


def test_naturalism_report_on_generator():
    dt = 0.1
    family = spread_family(seed=13)
    ns, _ = tube_from_states(family, dt)
    cand = CandidateTrajectory(family[1], dt)
    assert all(v <= 1e-9 for v in naturalism_report(cand, ns))


def test_initial_state_outside_tube():
    hulls = (
        box_hull(5.0, 6.0, 5.0, 6.0),
        box_hull(0.0, 2.0, 0.0, 1.0),
        box_hull(0.0, 1.0, 0.0, 1.0),
    )
    ns = stacked_tube(hulls, dt=1.0)
    dyn = double_integrator(dt=1.0)
    cand = CandidateTrajectory([[t, 1.0, 0.5, 0.0] for t in range(3)], dt=1.0)
    with pytest.raises(InitialStateOutsideTube) as err:
        project(cand, ns, dyn)
    assert err.value.violation > 1.0
    assert str(err.value).startswith("initial position lies ")
    assert "(tolerance 1e-06); the initial state is pinned" in str(err.value)


def test_unreachable_fixed_step_is_solver_failure():
    hulls = (
        box_hull(-1.0, 1.0, 0.0, 1.0),
        box_hull(5.0, 6.0, 5.0, 6.0),  # p1 = p0 + dt v0 cannot reach this
        box_hull(0.0, 1.0, 0.0, 1.0),
    )
    ns = stacked_tube(hulls, dt=1.0)
    dyn = double_integrator(dt=1.0)
    cand = CandidateTrajectory([[t, 1.0, 0.5, 0.0] for t in range(3)], dt=1.0)
    with pytest.raises(SolverFailure) as err:
        project(cand, ns, dyn)
    assert "t=1" in str(err.value)


def box_tube(hulls, dt):
    """`hulls` copies of the 10 m box [0, 10]^2, each built from 3 states."""
    return stacked_tube([box_hull(0.0, 10.0, 0.0, 10.0, support=3)] * hulls, dt)


def at_box_centre(states, vx, dt):
    return CandidateTrajectory([[5.0, vx, 5.0, 0.0]] * states, dt)


T1_MISS = "hull row 1 at t=1 is violated by 3 m and no control input can change it"


@pytest.mark.parametrize("hulls, vx, outcome", [
    (1, 1.0, ((),)), (1, 30.0, ((),)), (1, 80.0, ((),)),
    (2, 1.0, ((), ())), (2, 30.0, ((), ())), (2, 80.0, T1_MISS),
    (3, 1.0, ((), (), ())), (3, 30.0, ((), (), (1,))), (3, 80.0, T1_MISS),
])
def test_short_tubes_check_step_1_and_pose_steps_from_2(hulls, vx, outcome):
    # at 80 m/s p_1 = 13 misses the box by 3 m; at 30 m/s only the free
    # p_2 = 11 does, and a control reaches it. A tube of 1 hull has no step 1.
    cand = at_box_centre(5, vx, 0.1)
    if isinstance(outcome, str):
        with pytest.raises(SolverFailure, match=f"^{outcome}$"):
            project(cand, box_tube(hulls, 0.1), double_integrator(0.1))
    else:
        res = project(cand, box_tube(hulls, 0.1), double_integrator(0.1))
        assert (res.status, res.active_constraints) == (SolverStatus.OPTIMAL, outcome)


@pytest.mark.parametrize("outside, code", [(0.5 * FEAS_TOL, 0), (2 * FEAS_TOL, 5)])
def test_a_t1_miss_is_judged_by_feas_tol(tmp_path, capsys, outside, code):
    # at 5 + outside m per 1 s step, the pinned p_1 lies ``outside`` m past
    # the box's edge x = 10: as a miss of p_0 would be, that is judged by
    # FEAS_TOL, the bound every written state keeps
    write_natset(box_tube(3, 1.0), tmp_path / "tube.json")
    data = np.zeros((5, 7))
    data[:, :4] = [5.0, 5.0 + outside, 5.0, 0.0]
    write_tracks_csv([Trajectory("c", 1.0, data)], tmp_path / "candidate.csv")
    out = tmp_path / "projection.json"
    assert main(["project", "--natset", str(tmp_path / "tube.json"),
                 "--candidate", str(tmp_path / "candidate.csv"),
                 "--dyn", "dt=1", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == (f"error: hull row 1 at t=1 is violated by "
                       f"{outside:.6g} m and no control input can change it\n")
        assert not out.exists()
    else:
        states = read_projection(out)["states"]
        assert 0.4 * FEAS_TOL < states[1, 0] - 10.0 <= FEAS_TOL


@pytest.mark.parametrize("shift", [0.0, 8.0])
def test_a_step_2_miss_at_a_tiny_dt_is_posed_to_the_qp(shift):
    # dt^2 underflows, so no entry of the condensed position map is nonzero;
    # with the hulls of steps 2 on moved by 8 m, p_1 = p_0 fits the t=1 box
    # and the free p_2 misses its hull by 3 m, but that is a program in
    # accelerations, not a fact of the pinned start
    dt = 1e-200
    hulls = [box_hull(0.0, 10.0, 0.0, 10.0, support=3)] * 2
    hulls += [box_hull(shift, 10.0 + shift, 0.0, 10.0, support=3)] * 4
    with pytest.raises(ValueError) as err:
        project(at_box_centre(6, SPEED_BOUND, dt), stacked_tube(hulls, dt))
    assert str(err.value) == ("the projection QP in accelerations for dt=1e-200 cannot be "
                              "posed: P is not positive definite; not strictly convex")


def test_demo_program_poses_the_hull_rows_of_steps_2_on():
    demo = Path(__file__).resolve().parents[1] / "demos" / "out"
    tube = natset.read_natset(demo / "tube.json")
    (track,) = natset.load_trajectories(demo / "scene" / "candidate.csv", frame_rate=1.0 / tube.dt)
    cand = CandidateTrajectory.from_trajectory(track)
    qp = _program(cand, tube)
    T = min(cand.horizon, tube.horizon)
    counts = [len(tube.hulls[t].halfspaces.h) for t in range(2, T + 1)]
    assert np.array_equal(qp.A.steps, np.repeat(np.arange(2, T + 1), counts))
    assert np.array_equal(qp.A.G, tube.G[tube.start[2]:tube.start[T + 1]])


def test_dt_mismatch_rejected():
    ns = two_step_tube()
    cand = CandidateTrajectory([[t, 1.0, 0.5, 0.0] for t in range(3)], dt=0.5)
    with pytest.raises(ValueError):
        project(cand, ns, double_integrator(dt=1.0))
    cand = CandidateTrajectory([[t, 1.0, 0.5, 0.0] for t in range(3)], dt=1.0)
    with pytest.raises(ValueError):
        project(cand, ns, double_integrator(dt=0.5))
    # 1e-13 s against 5e-13 s is a fivefold mismatch, however few seconds apart
    fine = replace(ns, dt=5e-13)
    cand = CandidateTrajectory([[t, 1.0, 0.5, 0.0] for t in range(3)], dt=1e-13)
    with pytest.raises(ValueError, match="candidate dt"):
        project(cand, fine, double_integrator(dt=5e-13))


def stop_and_go_400():
    """The seed-7 stop-and-go tube at H=400 and a held-out track that
    leaves it at hundreds of steps."""
    tube, spec = task_tube("straight_road_with_stop", 400)
    held_out, _ = generate_scenario(
        default_spec("straight_road_with_stop", count=24, seed=1001, horizon=400))
    return tube, held_out[10]


@pytest.mark.parametrize("scene", ["demo", "stop_and_go_400"])
def test_project_without_dyn_writes_what_dyn_at_the_tube_dt_writes(tmp_path, capsys, scene):
    demo = Path(__file__).resolve().parents[1] / "demos" / "out"
    tube_path, candidate_path = demo / "tube.json", demo / "scene" / "candidate.csv"
    if scene == "stop_and_go_400":
        tube, track = stop_and_go_400()
        tube_path, candidate_path = tmp_path / "tube.json", tmp_path / "candidate.csv"
        write_natset(tube, tube_path)
        write_tracks_csv([track], candidate_path)
    dyn = ["--dyn", f"dt={read_natset(tube_path).dt!r}"]
    runs = []
    for given in ([], dyn):
        out = tmp_path / f"projection{len(given)}.json"
        code = main(["project", "--natset", str(tube_path), "--candidate", str(candidate_path),
                     *given, "--out", str(out)])
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        runs.append((code, stdout, out.read_bytes()))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


def test_project_takes_the_step_from_the_tube():
    tube, track = stop_and_go_400()
    candidate = CandidateTrajectory.from_trajectory(track)
    alone, given = project(candidate, tube), project(candidate, tube, double_integrator(tube.dt))
    assert sum(map(len, alone.active_constraints)) > 0
    for name in ("states", "controls"):
        assert np.array_equal(getattr(alone, name), getattr(given, name))
    for name in ("objective", "status", "active_constraints", "violation_report"):
        assert getattr(alone, name) == getattr(given, name)


def test_projection_json_round_trip(tmp_path):
    dt = 0.1
    family = spread_family(seed=19, steps=6)
    ns, _ = tube_from_states(family, dt)
    dyn = double_integrator(dt=dt)
    start = family[0][0]
    cand = CandidateTrajectory(
        euler_states((start[0], start[2]), (start[1], start[3]), np.zeros((10, 2)), dt),
        dt,
    )
    res = project(cand, ns, dyn)
    path = tmp_path / "proj.json"
    write_projection(res, cand, path)
    doc = read_projection(path)
    assert doc["status"] == "Optimal"
    assert doc["states"].shape == (11, 4)
    assert doc["controls"].shape == (10, 2)
    assert doc["candidate_states"].shape == (11, 4)
    assert len(doc["violations_before"]) == 11
    assert any(v is None for v in doc["violations_before"])
    assert doc["objective"] == pytest.approx(res.objective, rel=1e-11)


def test_active_constraints_mark_touched_rows():
    ns = two_step_tube()
    dyn = double_integrator(dt=1.0)
    cand = CandidateTrajectory([[t, 1.0, 0.5, 0.0] for t in range(3)], dt=1.0)
    res = project(cand, ns, dyn)
    assert len(res.active_constraints) == 3
    # the projected endpoint sits on the x <= 1 edge of the last square
    hs = ns.hulls[2].halfspaces
    touched = res.active_constraints[2]
    assert any(
        np.allclose(hs.G[i], [1.0, 0.0]) and hs.h[i] == pytest.approx(1.0)
        for i in touched
    )


def test_straight_candidate_demo_reproduces_committed_projection(tmp_path):
    # the steps of demos/project_straight_candidate.py
    spec = default_spec("curved_road", count=40, seed=7)
    trajectories, task_cfg = generate_scenario(spec)
    start = Region(quickhull(np.asarray(task_cfg["start_polygon"])))
    end = Region(quickhull(np.asarray(task_cfg["end_polygon"])))
    ns = build_natset(filter_task(trajectories, start, end, task_cfg["min_speed"]))
    candidate = CandidateTrajectory.from_trajectory(straight_candidate(spec))
    result = project(candidate, ns)
    write_projection(result, candidate, tmp_path / "projection.json")
    committed = Path(__file__).resolve().parents[1] / "demos" / "out" / "projection.json"
    assert (tmp_path / "projection.json").read_bytes() == committed.read_bytes()


def run_demo(name, tmp_path):
    """Run demos/<name> from a copy in tmp_path, so its outputs land in
    tmp_path/out; exit 0 is required."""
    script = tmp_path / name
    shutil.copy(Path(__file__).resolve().parents[1] / "demos" / name, script)
    env = dict(os.environ, PYTHONPATH=str(Path(natset.__file__).parents[1]))
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120, check=True)


def test_straight_candidate_demo_script_prints_the_tight_steps(tmp_path):
    demos = Path(__file__).resolve().parents[1] / "demos"
    run = run_demo("project_straight_candidate.py", tmp_path)
    committed = json.loads((demos / "out" / "projection.json").read_text())
    tight = [t for t, rows in enumerate(committed["active_constraints"]) if rows]
    assert (tight[0], tight[-1]) == (21, 36)
    assert "steps with a tight hull constraint: 21..36\n" in run.stdout
    for name in ("projection.json", "projection.svg"):
        assert (tmp_path / "out" / name).read_bytes() == (demos / "out" / name).read_bytes()


def test_build_tube_demo_script_reproduces_its_committed_outputs(tmp_path):
    run_demo("build_tube_from_arcs.py", tmp_path)
    committed = Path(__file__).resolve().parents[1] / "demos" / "out"
    names = ["tube.json", "tube.svg"] + [
        str(p.relative_to(committed)) for p in sorted((committed / "scene").iterdir())
    ]
    written = sorted(str(p.relative_to(tmp_path / "out")) for p in (tmp_path / "out").rglob("*"))
    assert written == sorted(names + ["scene"])
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == (committed / name).read_bytes(), name


def test_stop_and_go_demo_script_keeps_both_drivers_inside(tmp_path):
    shown = run_demo("stop_and_go_branching.py", tmp_path).stdout
    assert "pass-through member inside tube at all steps: True\n" in shown
    assert "synthetic non-stopping driver inside tube: True\n" in shown
    assert shown.count("extent=") == 11


def task_tube(kind, horizon=None):
    """The 40-track, seed-7 tube of one scene kind, as the demos build it."""
    spec = default_spec(kind, count=40, seed=7, **({} if horizon is None else {"horizon": horizon}))
    trajectories, task_cfg = generate_scenario(spec)
    start = Region(quickhull(np.asarray(task_cfg["start_polygon"])))
    end = Region(quickhull(np.asarray(task_cfg["end_polygon"])))
    return build_natset(filter_task(trajectories, start, end, task_cfg["min_speed"])), spec


# (horizon, held-out seed, candidate): stop-and-go tracks projected into the
# seed-7 stop-and-go tube, with their active-set steps, final working-set
# size and the first 16 hex digits of the sha256 of its sorted rows as
# little-endian int64; steps minus twice the drops is the size, so the last
# three take one to three drops each
STOP_AND_GO_PATHS = (
    ((100, 1001, 10), 60, 60, "56f5780dc8286e67"),
    ((150, 1003, 10), 135, 131, "73554574560b94b0"),
    ((200, 1001, 10), 193, 191, "9cecff9a7906c69b"),
    ((200, 1003, 10), 213, 207, "5958f9be71e40e21"),
)


def test_solver_path_is_pinned():
    # status, step count and working set of the active-set method on the
    # demo chord and on step-heavy stop-and-go candidates; a change to the
    # factor updates must not change which rows enter or leave
    tube, spec = task_tube("curved_road")
    candidate = CandidateTrajectory.from_trajectory(straight_candidate(spec))
    sol = solve(_program(candidate, tube))
    assert (sol.status, sol.iterations) == (SolverStatus.OPTIMAL, 9)
    assert np.flatnonzero(sol.lam).tolist() == [163, 190, 207, 215, 241, 250, 293]
    tubes = {}
    for (horizon, seed, idx), steps, size, digest in STOP_AND_GO_PATHS:
        if horizon not in tubes:
            tubes[horizon] = task_tube("straight_road_with_stop", horizon)[0]
        tube = tubes[horizon]
        held_out, _ = generate_scenario(
            default_spec("straight_road_with_stop", count=24, seed=seed, horizon=horizon)
        )
        candidate = CandidateTrajectory(held_out[idx].dyn_states, tube.dt)
        sol = solve(_program(candidate, tube))
        working = np.flatnonzero(sol.lam)
        key = (horizon, seed, idx)
        assert (sol.status, sol.iterations, working.size) == (SolverStatus.OPTIMAL, steps, size), key
        assert hashlib.sha256(working.astype("<i8").tobytes()).hexdigest()[:16] == digest, key


def dense_program(candidate, natset, dyn):
    """Reference: the projection QP in dyn's accelerations, with P, q and A
    formed densely from the planar matrix-power map of `condense_blockwise`,
    one hull row at a time."""
    H = candidate.horizon
    Phi, Gamma = condense_blockwise(*planar_matrices(dyn.dt), H)
    free = Phi @ candidate.states[0]
    P = 2.0 * Gamma.T @ Gamma
    q = 2.0 * Gamma.T @ (free - candidate.states.ravel())
    Gamma_pos = Gamma.reshape(H + 1, 4, -1)[:, [0, 2]]
    free_pos = free.reshape(H + 1, 4)[:, [0, 2]]
    rows, rhs = [np.zeros((0, 2 * H))], [np.zeros(0)]
    for t in range(1, min(H, natset.horizon) + 1):
        hs = natset.hulls[t].halfspaces
        coeff = hs.G @ Gamma_pos[t]
        keep = np.any(coeff, axis=1)
        rows.append(coeff[keep])
        rhs.append((hs.h - hs.G @ free_pos[t])[keep])
    return 0.5 * (P + P.T), q, np.concatenate(rows), np.concatenate(rhs)


def random_tube_around(candidate, rng):
    """Random convex hulls, each around the zero-control position of its step."""
    x0, dt = candidate.states[0], candidate.dt
    hulls = []
    for t in range(candidate.horizon + 1):
        center = np.array([x0[0] + t * dt * x0[1], x0[2] + t * dt * x0[3]])
        count = int(rng.integers(3, 10))
        angles = (np.arange(count) + rng.uniform(0.0, 0.9, size=count)) * 2.0 * np.pi / count
        radii = rng.uniform(0.5, 2.0, size=count)
        poly = quickhull(center + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)]))
        hulls.append((poly, to_halfspaces(poly), 4))
    return stacked_tube(hulls, dt=candidate.dt)


def assert_relative(actual, expected, rtol):
    scale = max(1.0, np.max(np.abs(expected), initial=0.0))
    assert np.shape(actual) == np.shape(expected)
    assert np.max(np.abs(np.asarray(actual) - expected), initial=0.0) <= rtol * scale


@pytest.mark.parametrize("horizon", [1, 2, 7, 60])
def test_hull_rows_and_block_objective_match_the_dense_program(horizon):
    rng = np.random.default_rng(horizon)
    dt = 0.1
    states = np.cumsum(rng.normal(0.0, 0.3, size=(horizon + 1, 4)), axis=0)
    candidate = CandidateTrajectory(states, dt)
    tube = random_tube_around(candidate, rng)
    qp = _program(candidate, tube)
    P, q, A, b = dense_program(candidate, tube, double_integrator(dt))
    assert qp.n == 2 * horizon and qp.P.shape == (horizon, horizon)
    assert qp.A.shape == A.shape
    assert_relative(qp.q, q, 1e-12)
    assert_relative(qp.b, b, 1e-12)
    assert_relative(qp.A.row_norms(), np.linalg.norm(A, axis=1), 1e-12)
    assert_relative(qp.A[np.arange(qp.k)], A, 1e-12)
    for i in rng.integers(0, max(qp.k, 1), size=min(qp.k, 5)):
        assert_relative(qp.A[i], A[i], 1e-12)
    for _ in range(3):
        z = rng.standard_normal(qp.n)
        assert_relative(qp.A @ z - qp.b, A @ z - b, 1e-12)
        assert_relative((qp.P @ qp.blocks(z)).ravel(), P @ z, 1e-12)
        assert qp.objective(z) == pytest.approx(0.5 * z @ P @ z + q @ z, rel=1e-12)


def test_project_matches_the_dense_program_on_chords():
    # project_active's inputs: chords across a 200-track, 100-step tube
    spec = default_spec("curved_road", count=200, seed=7, horizon=100)
    trajectories, task_cfg = generate_scenario(spec)
    start = Region(quickhull(np.asarray(task_cfg["start_polygon"])))
    end = Region(quickhull(np.asarray(task_cfg["end_polygon"])))
    tube = build_natset(filter_task(trajectories, start, end, task_cfg["min_speed"]))
    dyn = double_integrator(tube.dt)
    compared = 0
    for seed in range(1024, 1032):
        chord = straight_candidate(default_spec("curved_road", count=200, seed=seed, horizon=100))
        candidate = CandidateTrajectory.from_trajectory(chord)
        try:
            res = project(candidate, tube, dyn)
        except (InitialStateOutsideTube, SolverFailure):
            continue
        dense = solve(QuadraticProgram(*dense_program(candidate, tube, dyn)))
        assert dense.status is SolverStatus.OPTIMAL and dense.iterations > 0
        controls = dense.z.reshape(-1, 2)
        assert np.max(np.abs(res.controls - controls)) <= 1e-10
        margins = step_margins(tube, rollout(dyn, candidate.states[0], controls))
        active = tuple(tuple(np.flatnonzero(np.abs(m) <= ACTIVE_TOL)) for m in margins)
        assert res.active_constraints == active
        compared += 1
    assert compared == 8


@pytest.fixture(scope="module")
def long_tube():
    """project_long's inputs: held-out tracks and a 200-track, 400-step tube."""
    spec = default_spec("straight_road_with_stop", count=200, seed=7, horizon=400)
    trajectories, task_cfg = generate_scenario(spec)
    start = Region(quickhull(np.asarray(task_cfg["start_polygon"])))
    end = Region(quickhull(np.asarray(task_cfg["end_polygon"])))
    tube = build_natset(filter_task(trajectories, start, end, task_cfg["min_speed"]))
    held_out, _ = generate_scenario(
        default_spec("straight_road_with_stop", count=24, seed=1001, horizon=400)
    )
    return tube, [CandidateTrajectory.from_trajectory(tr) for tr in held_out]


def test_projection_allocates_no_dense_constraint_matrix(long_tube):
    # a dense A alone would be 5291 rows x 800 columns, 32 MiB; candidate 9
    # takes 17 active-set steps, whose thin factor keeps 32 rows of 800
    tube, candidates = long_tube
    dyn = double_integrator(tube.dt)
    tracemalloc.start()
    try:
        res = project(candidates[9], tube, dyn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert any(len(rows) for rows in res.active_constraints)
    assert peak < 32 * 2**20


def exact_unconstrained_controls(candidate):
    """The unconstrained optimum in long double, by iterative refinement.

    Per axis the positions and velocities are free + Cp u and free + Cv u
    with Cp[t, j] = (t-1-j) dt^2 and Cv[t, j] = dt for j < t, so the
    optimum solves (Cp'Cp + Cv'Cv) u = -(Cp' dp + Cv' dv) for dp, dv the
    zero-control trajectory's offsets from the candidate.
    Residuals are formed in long double; a double Cholesky factor makes
    each correction.
    """
    ld = np.longdouble
    H, dt = candidate.horizon, ld(candidate.dt)
    lag = (np.arange(H + 1)[:, None] - 1 - np.arange(H)[None, :]).astype(ld)
    Cp = np.where(lag >= 0, lag * dt * dt, ld(0))
    Cv = np.where(lag >= 0, dt, ld(0))
    S = candidate.states.astype(ld)
    steps = np.arange(H + 1).astype(ld)[:, None]
    dp = S[0, [0, 2]] + steps * dt * S[0, [1, 3]] - S[:, [0, 2]]
    dv = S[0, [1, 3]] - S[:, [1, 3]]
    rhs = -(Cp.T @ dp + Cv.T @ dv)
    Cp64, Cv64 = Cp.astype(float), Cv.astype(float)
    factor = scipy.linalg.cho_factor(Cp64.T @ Cp64 + Cv64.T @ Cv64)
    u = np.zeros((H, 2), dtype=ld)
    for _ in range(5):
        residual = rhs - (Cp.T @ (Cp @ u) + Cv.T @ (Cv @ u))
        u += scipy.linalg.cho_solve(factor, residual.astype(float))
    return u


def test_long_horizon_controls_match_the_long_double_optimum(long_tube):
    # P has condition number ~8e7 at H=400, so double precision fixes the
    # controls to about 1e-9 relative; 1e-8 leaves room for the rounding
    tube, candidates = long_tube
    dyn = double_integrator(tube.dt)
    compared = 0
    for candidate in candidates:
        try:
            res = project(candidate, tube, dyn)
        except InitialStateOutsideTube:
            continue
        if any(len(rows) for rows in res.active_constraints):
            continue  # the tube shapes the optimum; the reference ignores it
        exact = exact_unconstrained_controls(candidate)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert float(np.max(np.abs(res.controls - exact))) <= 1e-8 * scale
        compared += 1
    assert compared >= 12


@pytest.fixture(scope="module")
def recorded_scenes():
    """Per scene kind: its spec, 40 recorded 800-step tracks and the tube
    built from all of them, with no task filter."""
    scenes = {}
    for kind in ("curved_road", "straight_road_with_stop"):
        spec = default_spec(kind, horizon=800)
        trajectories, _ = generate_scenario(spec)
        scenes[kind] = spec, trajectories, build_natset(TaskDataset(trajectories, None))
    return scenes


# the largest state deviation (m) of a recorded track's projection from the
# track, per horizon; the deviations measured at one and at two OpenBLAS
# threads peak at 7.9e-13, 5.4e-12, 9.5e-11, 1.3e-9 and 2.45e-8
SELF_PROJECTION_BOUNDS = {60: 1e-12, 100: 6e-12, 200: 1e-10, 400: 1.5e-9, 800: 3e-8}


def test_recorded_tracks_are_their_own_projections(recorded_scenes):
    # a recorded track lies in the tube built from it, and its velocities
    # are forward differences, so p_{t+1} = p_t + dt v_t: the exact
    # projection is the track itself, and any deviation is solver error
    for spec, trajectories, tube in recorded_scenes.values():
        dyn = double_integrator(spec.dt)
        for horizon, bound in SELF_PROJECTION_BOUNDS.items():
            for track in (trajectories[0], trajectories[-1]):
                candidate = CandidateTrajectory(track.dyn_states[: horizon + 1], spec.dt)
                res = project(candidate, tube, dyn)
                deviation = float(np.max(np.abs(res.states - candidate.states)))
                assert deviation <= bound, (spec.kind, horizon)


# (tube tracks, tube horizon, chord seed): the demo chord in its 40-track
# tube and a project_active chord in its 200-track, 100-step tube, each cut
# to its first 30 steps; the size of the final working set, and a bound on
# the largest state deviation (m) of the projection from the exact one,
# measured at 6.96e-15 and 2.34e-14 at one and at two OpenBLAS threads
EXACT_KKT_CASES = {(40, None, 7): (4, 1e-14), (200, 100, 1024): (7, 3e-14)}


@pytest.mark.parametrize("case", sorted(EXACT_KKT_CASES, key=str))
def test_projection_is_the_exact_kkt_point_of_its_working_set(case):
    # solved in fractions.Fraction from the program's floats, the working
    # set's KKT point has multipliers >= 0 and violates no other row: it is
    # the exact optimum of the program, against which the states are measured
    count, horizon, seed = case
    size, bound = EXACT_KKT_CASES[case]
    spec = default_spec("curved_road", count=count, seed=7,
                        **({} if horizon is None else {"horizon": horizon}))
    trajectories, task_cfg = generate_scenario(spec)
    start = Region(quickhull(np.asarray(task_cfg["start_polygon"])))
    end = Region(quickhull(np.asarray(task_cfg["end_polygon"])))
    tube = build_natset(filter_task(trajectories, start, end, task_cfg["min_speed"]))
    chord = straight_candidate(replace(spec, seed=seed))
    candidate = CandidateTrajectory(chord.dyn_states[:31], spec.dt)
    working = np.flatnonzero(solve(_program(candidate, tube)).lam)
    assert working.size == size
    z, lam, margins = exact_kkt_point(_program(candidate, tube), working)
    assert min(lam) >= 0 and max(margins) <= 0
    assert all(margins[i] == 0 for i in working)
    res = project(candidate, tube, double_integrator(spec.dt))
    assert exact_deviation(res, candidate, z) <= bound


def exact_deviation(res, candidate, z):
    """The largest distance (m) of a projection's states from the exact
    rollout of the accelerations z, a list of Fractions, from the
    candidate's pinned start."""
    exact = rollout_exact(candidate.dt, candidate.states[0], z)
    return max(abs(Fraction(s) - e) for row, exact_row in zip(res.states.tolist(), exact)
               for s, e in zip(row, exact_row))


@pytest.fixture(scope="module")
def demo_files():
    """The committed demo tube and the states of its candidate."""
    demo = Path(__file__).resolve().parents[1] / "demos" / "out"
    tube = read_natset(demo / "tube.json")
    (track,) = load_trajectories(demo / "scene" / "candidate.csv", frame_rate=1.0 / tube.dt)
    return tube, track.dyn_states


def ladder_candidate(demo_files, v, length=None):
    """The demo candidate, cut to its first ``length`` states, with frame
    30's xVelocity set to v."""
    tube, states = demo_files
    states = np.array(states[:length])
    states[30, 1] = v
    return CandidateTrajectory(states, tube.dt)


@pytest.mark.parametrize("v", [1e4, 1e6, SPEED_BOUND])
def test_huge_candidate_velocities_certify_the_exact_optimum(demo_files, v):
    # the start point -P^{-1}q grows with v, and its rounding stays in the
    # answer, which the duality gap relative to the objective's terms
    # accepts: measured at 6.6e-15 v to 6.7e-15 v m from the exact optimum,
    # at one and at two OpenBLAS threads
    tube, _ = demo_files
    candidate = ladder_candidate(demo_files, v, 41)
    qp = _program(candidate, tube)
    sol = solve(qp)
    assert sol.status is SolverStatus.OPTIMAL
    z, lam, margins = exact_kkt_point(qp, np.flatnonzero(sol.lam))
    assert min(lam) >= 0 and max(margins) <= 0
    res = project(candidate, tube, double_integrator(tube.dt))
    assert exact_deviation(res, candidate, z) <= 1e-14 * v


@pytest.mark.parametrize("status, steps, cause", [
    pytest.param(SolverStatus.MAX_ITER, 18,
                 "MaxIter: its answer after 18 active-set steps fails the KKT certificate",
                 id="MaxIter"),
    pytest.param(SolverStatus.INFEASIBLE, 146, "Infeasible after 146 active-set steps",
                 id="Infeasible"),
])
def test_exit_5_names_the_steps_and_why_the_solve_stopped(demo_files, monkeypatch, status, steps,
                                                          cause):
    # no candidate within CandidateTrajectory's bounds is known to reach
    # either end, so the demo's solve is stubbed to return it
    tube, states = demo_files
    candidate = CandidateTrajectory(states, tube.dt)
    sol = solve(_program(candidate, tube))
    monkeypatch.setattr(natset.projection, "solve",
                        lambda qp: replace(sol, status=status, iterations=steps))
    with pytest.raises(SolverFailure) as exc:
        project(candidate, tube)
    assert str(exc.value) == "solver returned " + cause


def test_exit_5_names_the_step_cap(demo_files, monkeypatch):
    # the demo chord leaves the tube, so its solve takes more than one step
    tube, states = demo_files
    monkeypatch.setattr(qpsolver, "_MAX_STEPS", 1)
    with pytest.raises(SolverFailure) as exc:
        project(CandidateTrajectory(states, tube.dt), tube, double_integrator(tube.dt))
    assert str(exc.value) == "solver returned MaxIter: it stopped at its cap of 1 active-set steps"


@pytest.mark.parametrize("horizon", [30, 100, 400, 800])
def test_factor_and_start_point_equal_scipys_bit_for_bit(recorded_scenes, horizon):
    # dpotrf is the routine behind scipy.linalg.cholesky, and the start
    # point's two dtrtrs solves give cho_solve's bits
    spec, trajectories, tube = recorded_scenes["curved_road"]
    candidate = CandidateTrajectory(trajectories[0].dyn_states[: horizon + 1], spec.dt)
    qp = _program(candidate, tube)
    L = scipy.linalg.cholesky(qp.P, lower=True)
    assert np.array_equal(qp.L, L)
    # with no rows, solve returns its start point -P^{-1} q
    free = solve(QuadraticProgram(qp.P, qp.q, np.zeros((0, qp.n)), np.zeros(0)))
    assert free.iterations == 0
    assert np.array_equal(free.z, scipy.linalg.cho_solve((L, True), qp.blocks(-qp.q)).ravel())


def step_margins(tube, states):
    """Each step's margins, taken from its own hull's rows of the stacked
    G and h, over the steps where tube and states overlap."""
    per_step = []
    for t in range(min(len(tube), len(states))):
        rows = slice(tube.start[t], tube.start[t + 1])
        per_step.append(geometry.margins(tube.G[rows], tube.h[rows], states[t, POSITIONS]))
    return per_step


def per_step_reference(tube, states):
    """Membership, violations and active rows step by step, from `step_margins`."""
    per_step = step_margins(tube, states)
    return (
        [bool(np.max(m) <= INSIDE_TOL) for m in per_step],
        [float(np.max(m)) for m in per_step],
        [np.flatnonzero(np.abs(m) <= ACTIVE_TOL).tolist() for m in per_step],
    )


def test_step_reductions_match_the_per_step_reference():
    # every hull's right edge is x = 0, so a position's margin there is its x
    tube = stacked_tube([box_hull(-1.0, 0.0, -1.0, 1.0)] * 5, dt=1.0)
    xs = [ACTIVE_TOL, -ACTIVE_TOL, INSIDE_TOL, -INSIDE_TOL, 2 * ACTIVE_TOL, -0.5, 0.5, 0.0]
    met = set()
    for T in (3, 5, 8):  # shorter than, as long as and longer than the tube
        states = np.array([[xs[t], 0.0, 0.1 * t - 0.3, 0.0] for t in range(T)])
        inside, worst, active = per_step_reference(tube, states)
        assert trajectory_membership(tube, states) == inside
        report = naturalism_report(CandidateTrajectory(states, 1.0), tube)
        assert report == worst + [None] * (T - len(worst))
        assert step_rows_within(tube, states, ACTIVE_TOL) == active
        met.update(np.concatenate(step_margins(tube, states)).tolist())
    assert {ACTIVE_TOL, -ACTIVE_TOL, INSIDE_TOL, -INSIDE_TOL} <= met


def test_active_constraints_match_the_per_step_reference():
    spec = default_spec("curved_road", count=40, seed=7)
    trajectories, task_cfg = generate_scenario(spec)
    start = Region(quickhull(np.asarray(task_cfg["start_polygon"])))
    end = Region(quickhull(np.asarray(task_cfg["end_polygon"])))
    tube = build_natset(filter_task(trajectories, start, end, task_cfg["min_speed"]))
    chord = straight_candidate(spec).dyn_states
    # ten more constant-velocity steps past the tube's end
    step = spec.dt * np.array([chord[-1, 1], 0.0, chord[-1, 3], 0.0])
    tail = chord[-1] + np.outer(np.arange(1, 11), step)
    dyn = double_integrator(spec.dt)
    for states in (chord[:30], chord[: tube.horizon + 1], np.vstack([chord, tail])):
        res = project(CandidateTrajectory(states, spec.dt), tube, dyn)
        _, _, active = per_step_reference(tube, res.states)
        assert any(active)
        assert res.active_constraints == tuple(map(tuple, active))


@pytest.mark.parametrize("dt", [float("inf"), float("nan"), 0.0, -0.1])
def test_candidate_requires_finite_positive_dt(dt):
    with pytest.raises(ValueError, match="dt must be finite and > 0"):
        CandidateTrajectory(np.zeros((3, 4)), dt)
