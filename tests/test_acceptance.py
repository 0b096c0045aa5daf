"""Acceptance gate: one test per criterion, each printing a verdict line.

Verdicts also accumulate in VERDICTS; conftest replays them after the
run summary so they show even when capture hides per-test output.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from natset.data import Region, TaskDataset, filter_task, load_trajectories
from natset.dynamics import double_integrator, rollout
from natset.geometry import extent_along, quickhull, to_halfspaces
from natset.natset import build_natset
from natset.projection import CandidateTrajectory, naturalism_report, project
from natset.qpsolver import SolverStatus, solve
from natset.synthetic import RADII, SPEED_RANGE, default_spec, generate_scenario, straight_candidate

from oracles import enumerate_oracle, gift_wrap
from test_qpsolver import random_qps

VERDICTS = []


def _record(line):
    VERDICTS.append(line)
    print(line)


def _verdict(num, failures, detail):
    ok = not failures
    _record(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: " + "; ".join(failures)


def _dataset_from(task_cfg, trajectories):
    start = Region(quickhull(np.asarray(task_cfg["start_polygon"], dtype=float)))
    end = Region(quickhull(np.asarray(task_cfg["end_polygon"], dtype=float)))
    return filter_task(trajectories, start, end, task_cfg["min_speed"])


def _point_sets(count, seed):
    """Half uniform in a disk, half clustered mixtures, sizes 3 to 50."""
    rng = np.random.default_rng(seed)
    sets = []
    for i in range(count):
        size = int(rng.integers(3, 51))
        if i % 2 == 0:
            radii = np.sqrt(rng.uniform(0.0, 1.0, size)) * 10.0
            angles = rng.uniform(0.0, 2.0 * np.pi, size)
            pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        else:
            centers = rng.uniform(-8.0, 8.0, size=(int(rng.integers(2, 5)), 2))
            picks = rng.integers(0, len(centers), size)
            pts = centers[picks] + rng.normal(0.0, 1.5, size=(size, 2))
        sets.append(pts)
    return sets


def test_criterion_1_hull_matches_wrapping_oracle():
    started = time.perf_counter()
    failures = []
    worst_violation = 0.0
    for idx, pts in enumerate(_point_sets(200, seed=20240811)):
        poly = quickhull(pts)
        ours = {tuple(v) for v in poly.vertices}
        oracle = {tuple(v) for v in gift_wrap(pts)}
        if ours != oracle:
            failures.append(f"set {idx}: vertex mismatch ({len(ours)} vs {len(oracle)})")
            continue
        hs = to_halfspaces(poly)
        margins = hs.G @ pts.T - hs.h[:, None]
        worst_violation = max(worst_violation, float(margins.max()))
    if worst_violation > 1e-9:
        failures.append(f"containment violated by {worst_violation:.3e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f} s, bound 5 s")
    _verdict(
        1,
        failures,
        f"200 point sets, worst containment {worst_violation:.2e} (tol 1e-9), {elapsed:.2f} s (< 5 s)",
    )


def test_criterion_2_solver_matches_enumeration_oracle():
    started = time.perf_counter()
    failures = []
    worst_gap = 0.0
    for idx, qp in enumerate(random_qps(100, seed=918273)):
        truth = enumerate_oracle(qp)
        sol = solve(qp)
        gap = abs(sol.objective - truth.objective)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-5:
            failures.append(f"qp {idx}: objective gap {gap:.2e}")
        if sol.status is SolverStatus.OPTIMAL:
            stat = np.max(np.abs(qp.P @ sol.z + qp.q + qp.A.T @ sol.lam), initial=0.0)
            margins = qp.A @ sol.z - qp.b
            viol = np.max(margins, initial=0.0)
            comp = np.max(np.abs(sol.lam * margins), initial=0.0)
            lam_min = np.min(sol.lam, initial=0.0)
            stat_tol = 1e-7 + 1e-7 * np.max(np.abs(qp.q), initial=0.0)
            if stat > stat_tol:
                failures.append(f"qp {idx}: stationarity {stat:.2e} > {stat_tol:.2e}")
            if viol > 1e-7:
                failures.append(f"qp {idx}: violation {viol:.2e}")
            if comp > 1e-6:
                failures.append(f"qp {idx}: complementarity {comp:.2e}")
            if lam_min < -1e-9:
                failures.append(f"qp {idx}: negative multiplier {lam_min:.2e}")
        else:
            failures.append(f"qp {idx}: status {sol.status.name}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f} s, bound 10 s")
    _verdict(
        2,
        failures,
        f"100 random programs, worst objective gap {worst_gap:.2e} (tol 1e-5), {elapsed:.2f} s (< 10 s)",
    )


def test_criterion_3_projection_is_idempotent_on_members():
    spec = default_spec("curved_road", count=20, seed=11)
    trajs, task_cfg = generate_scenario(spec)
    dataset = _dataset_from(task_cfg, trajs)
    natset = build_natset(dataset)
    dyn = double_integrator(spec.dt)
    failures = []
    worst_obj = 0.0
    worst_dev = 0.0
    for tr in dataset.trajectories:
        cand = CandidateTrajectory.from_trajectory(tr)
        res = project(cand, natset, dyn)
        dev = float(np.max(np.abs(res.states - cand.states)))
        worst_obj = max(worst_obj, res.objective)
        worst_dev = max(worst_dev, dev)
        if res.objective > 1e-8:
            failures.append(f"actor {tr.actor_id}: objective {res.objective:.2e}")
        if dev > 1e-6:
            failures.append(f"actor {tr.actor_id}: deviation {dev:.2e}")
    _verdict(
        3,
        failures,
        f"20 members, worst objective {worst_obj:.2e} (tol 1e-8), worst deviation {worst_dev:.2e} (tol 1e-6)",
    )


def test_criterion_4_end_to_end_curved_road():
    started = time.perf_counter()
    spec = default_spec("curved_road", count=40, seed=7)
    trajs, task_cfg = generate_scenario(spec)
    dataset = _dataset_from(task_cfg, trajs)
    natset = build_natset(dataset)
    cand = CandidateTrajectory.from_trajectory(straight_candidate(spec))
    dyn = double_integrator(spec.dt)
    res = project(cand, natset, dyn)
    failures = []

    out_report = naturalism_report(CandidateTrajectory(res.states, spec.dt), natset)
    out_worst = max(v for v in out_report if v is not None)
    if out_worst > 1e-6:
        failures.append(f"(a) output violation {out_worst:.2e}")

    residual = float(np.max(np.abs(rollout(dyn, res.states[0], res.controls) - res.states)))
    if residual > 1e-9:
        failures.append(f"(b) dynamics residual {residual:.2e}")

    overlap = len(out_report)
    apex = [v for v in res.violation_report[overlap // 3 : 2 * overlap // 3] if v is not None]
    apex_worst = max(apex)
    if apex_worst <= 0.0:
        failures.append("(c) candidate never violates near the apex")

    dists = [
        float(np.sum((tr.dyn_states[1: cand.states.shape[0]] - cand.states[1:]) ** 2))
        for tr in dataset.trajectories
    ]
    if res.objective > min(dists):
        failures.append(f"(d) objective {res.objective:.3f} > nearest member {min(dists):.3f}")

    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f} s, bound 10 s")
    _verdict(
        4,
        failures,
        "40 arcs: output viol "
        f"{out_worst:.2e} (tol 1e-6), residual {residual:.2e} (tol 1e-9), "
        f"apex viol {apex_worst:.2f} (> 0), objective {res.objective:.2f} <= "
        f"member min {min(dists):.2f}, {elapsed:.2f} s (< 10 s)",
    )


def test_criterion_5_hulls_lengthen_along_the_lane():
    failures = []
    details = []

    spec = default_spec("curved_road", count=40, seed=7)
    trajs, task_cfg = generate_scenario(spec)
    natset = build_natset(_dataset_from(task_cfg, trajs))
    s_mid = 0.5 * sum(SPEED_RANGE)
    r_mid = 0.5 * sum(RADII)
    theta = np.pi - (s_mid / r_mid) * spec.dt * natset.horizon
    early = extent_along(natset.hulls[1].polygon, (0.0, -1.0))
    late = extent_along(natset.hulls[-1].polygon, (np.sin(theta), -np.cos(theta)))
    ratio = late / early
    details.append(f"curved_road ratio {ratio:.1f} (>= 2)")
    if ratio < 2.0:
        failures.append(f"curved_road ratio {ratio:.2f} < 2")

    spec = default_spec("straight_road_with_stop", count=40, seed=7)
    trajs, task_cfg = generate_scenario(spec)
    natset = build_natset(_dataset_from(task_cfg, trajs))
    early = extent_along(natset.hulls[1].polygon, (1.0, 0.0))
    late = extent_along(natset.hulls[-1].polygon, (1.0, 0.0))
    ratio = late / early
    details.append(f"straight_road_with_stop ratio {ratio:.1f} (>= 3)")
    if ratio < 3.0:
        failures.append(f"straight_road_with_stop ratio {ratio:.2f} < 3")

    _verdict(5, failures, ", ".join(details))


# Approximate maneuver regions for the recorded-intersection check, in the
# recordings' local frame (meters).  The published figures are not part of
# this repository, so these are coarse reconstructions; the +-3 count
# tolerance absorbs region imprecision.  Calibrate locally if the check
# is enabled and the counts land outside the band.
IND_CASES = (
    {
        "label": "curved road",
        "tracks": "01_tracks.csv",
        "start": [[22.0, -14.0], [30.0, -14.0], [30.0, -22.0], [22.0, -22.0]],
        "end": [[78.0, -40.0], [88.0, -40.0], [88.0, -50.0], [78.0, -50.0]],
        "expected": 39,
    },
    {
        "label": "eastbound lane",
        "tracks": "22_tracks.csv",
        "start": [[8.0, -40.0], [16.0, -40.0], [16.0, -48.0], [8.0, -48.0]],
        "end": [[88.0, -30.0], [96.0, -30.0], [96.0, -38.0], [88.0, -38.0]],
        "expected": 49,
    },
)


def test_criterion_6_recorded_dataset_counts():
    root = os.environ.get("NATSET_IND_DIR")
    if not root:
        _record("criterion 6: SKIP - NATSET_IND_DIR not set; recorded dataset absent")
        pytest.skip("recorded dataset not available (set NATSET_IND_DIR to enable)")
    failures = []
    details = []
    for case in IND_CASES:
        path = Path(root) / case["tracks"]
        if not path.exists():
            failures.append(f"{case['label']}: {path} missing")
            continue
        trajs = load_trajectories(path, frame_rate=25.0)
        start = Region(quickhull(np.asarray(case["start"], dtype=float)))
        end = Region(quickhull(np.asarray(case["end"], dtype=float)))
        kept = filter_task(trajs, start, end, min_speed=0.5)
        count = len(kept)
        details.append(f"{case['label']}: {count} (expect {case['expected']}+-3)")
        if abs(count - case["expected"]) > 3:
            failures.append(
                f"{case['label']}: {count} trajectories, expected {case['expected']}+-3"
            )
    _verdict(6, failures, ", ".join(details))


def test_criterion_7_performance_smoke():
    spec = default_spec("curved_road", count=200, seed=7, horizon=100)
    trajs, _ = generate_scenario(spec)
    dataset = TaskDataset(trajs, task=None)
    started = time.perf_counter()
    natset = build_natset(dataset)
    build_time = time.perf_counter() - started
    assert natset.horizon == 100

    cand = CandidateTrajectory.from_trajectory(straight_candidate(spec))
    dyn = double_integrator(spec.dt)
    started = time.perf_counter()
    res = project(cand, natset, dyn)
    project_time = time.perf_counter() - started

    failures = []
    if build_time >= 1.0:
        failures.append(f"build took {build_time:.3f} s, bound 1 s")
    if project_time >= 2.0:
        failures.append(f"project took {project_time:.3f} s, bound 2 s")
    if res.status is not SolverStatus.OPTIMAL:
        failures.append(f"projection status {res.status.name}")
    _verdict(
        7,
        failures,
        f"build H=100 m=200 in {build_time:.3f} s (< 1 s), "
        f"project 100 steps in {project_time:.3f} s (< 2 s)",
    )
