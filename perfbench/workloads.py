"""Workloads: seeded input generation, the timed operation, output checks.

build_large     `natset build` in process on one recording file.
project_active  `natset.project` on corner-cutting chords that leave the tube.
project_long    `natset project` in process on held-out stop-and-go tracks
                against a 400-step tube; most need no solver iterations.

Inputs come from natset.synthetic and are written as files; the program
under test only reads those files.  Both project tubes use scene seed 7,
the package's default scene seed; the run's seed picks the candidates (and
the whole recording on build_large).
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import natset
from natset import cli, synthetic
from natset.data import Trajectory
from natset.projection import FEAS_TOL

TUBE_SEED = 7

# default sizes; tests pass smaller ones
SIZES = {
    "build_large": {"m": 300, "extra": 150, "horizon": 100},
    "project_active": {"m": 200, "horizon": 100, "candidates": 24},
    "project_long": {"m": 200, "horizon": 400, "candidates": 24},
}

# a rollout of the written controls may drift from the written states by
# the 12-digit rounding of both; far below FEAS_TOL
ROLLOUT_TOL = 1e-6
# natset's region test tolerance, in meters
REGION_TOL = 1e-9


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_tube(spec, out):
    """Build a tube with the package and write it; it must read back."""
    trajs, task = synthetic.generate_scenario(spec)
    start = natset.Region(natset.quickhull(np.array(task["start_polygon"])))
    end = natset.Region(natset.quickhull(np.array(task["end_polygon"])))
    dataset = natset.filter_task(trajs, start, end, task["min_speed"])
    tube = natset.build_natset(dataset)
    natset.write_natset(tube, out / "tube.json")
    natset.read_natset(out / "tube.json")
    # the QP's size: two controls per step, and every hull row from t=2 on
    # (the t=1 position is fixed by the start state, so its rows drop out)
    k = sum(len(hull.halfspaces.h) for hull in tube.hulls[2:])
    return {"m": len(dataset), "H": tube.horizon, "n": 2 * tube.horizon, "k": k,
            "tube_seed": spec.seed}


def _covers(polygon, tol=REGION_TOL):
    """Point test for the convex hull of `polygon`, by scipy, not natset."""
    # imported here, in the generator only, so that measuring processes
    # do not carry scipy.spatial in their peak RSS
    from scipy.spatial import ConvexHull

    eq = ConvexHull(np.array(polygon, dtype=float)).equations
    return lambda p: bool(np.max(eq[:, :2] @ p + eq[:, 2]) <= tol)


def on_task(trajs, task):
    """{actor id: dynamics states from start-region entry} per on-task track.

    The task predicate worked out with plain numpy from the generated
    states, so the build check does not lean on natset's own filter: a
    track is on task when it enters the start region, ends at least one
    step later inside the end region, and reaches min_speed on the way.
    """
    in_start, in_end = _covers(task["start_polygon"]), _covers(task["end_polygon"])
    out = {}
    for tr in trajs:
        pos = np.array([s.position for s in tr.states], dtype=float)
        vel = np.array([s.velocity for s in tr.states], dtype=float)
        entry = next((i for i, p in enumerate(pos) if in_start(p)), None)
        if entry is None or len(pos) - entry < 2 or not in_end(pos[-1]):
            continue
        if np.max(np.hypot(vel[entry:, 0], vel[entry:, 1])) < task["min_speed"]:
            continue
        out[tr.actor_id] = np.column_stack(
            [pos[entry:, 0], vel[entry:, 0], pos[entry:, 1], vel[entry:, 1]]
        )
    return out


def _write_candidates(trajs, out):
    names = []
    for i, tr in enumerate(trajs):
        name = f"cand{i:02d}"
        synthetic.write_tracks_csv([tr], out / f"{name}.csv")
        names.append(name)
    return names


def generate(workload, seed, out, sizes=None):
    """Write the inputs of one run into `out`; returns the manifest."""
    size = dict(SIZES[workload], **(sizes or {}))
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "build_large":
        spec = synthetic.default_spec(
            "curved_road", count=size["m"], seed=seed, horizon=size["horizon"]
        )
        trajs, task = synthetic.generate_scenario(spec)
        # stop-and-go traffic elsewhere in the recording, under fresh ids;
        # it never enters the start region, so the filter drops all of it
        other = synthetic.default_spec(
            "straight_road_with_stop",
            count=size["extra"],
            seed=seed + 1,
            horizon=size["horizon"],
            dt=spec.dt,
        )
        extra, _ = synthetic.generate_scenario(other)
        trajs = list(trajs) + [
            Trajectory(str(size["m"] + i), tr.frame_rate, tr.states)
            for i, tr in enumerate(extra)
        ]
        synthetic.write_tracks_csv(trajs, out / "tracks.csv")
        _write_json(task, out / "task.json")
        expected = on_task(trajs, task)
        np.savez(out / "on_task.npz", **expected)
        inputs = ["recording"]
        sizes_out = {
            "m": size["m"],
            "on_task": len(expected),
            "extra_tracks": size["extra"],
            "H": size["horizon"],
            "rows": sum(len(tr) for tr in trajs),
        }
    elif workload == "project_active":
        spec = synthetic.default_spec(
            "curved_road", count=size["m"], seed=TUBE_SEED, horizon=size["horizon"]
        )
        sizes_out = _write_tube(spec, out)
        n = size["candidates"]
        chords = [
            synthetic.straight_candidate(
                synthetic.default_spec(
                    "curved_road",
                    count=size["m"],
                    seed=1000 + n * seed + i,
                    horizon=size["horizon"],
                )
            )
            for i in range(n)
        ]
        inputs = _write_candidates(chords, out)
    elif workload == "project_long":
        spec = synthetic.default_spec(
            "straight_road_with_stop",
            count=size["m"],
            seed=TUBE_SEED,
            horizon=size["horizon"],
        )
        sizes_out = _write_tube(spec, out)
        held_out, _ = synthetic.generate_scenario(
            synthetic.default_spec(
                "straight_road_with_stop",
                count=size["candidates"],
                seed=1000 + seed,
                horizon=size["horizon"],
            )
        )
        inputs = _write_candidates(held_out, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "inputs": inputs, "sizes": sizes_out}
    _write_json(manifest, out / "manifest.json")
    return manifest


class Workload:
    """One run's inputs in `run_dir`, seen from a measuring process."""

    def __init__(self, run_dir, manifest):
        self.dir = Path(run_dir)
        self.manifest = manifest

    def setup(self):
        """Part of the cold start that users pay once per process."""

    def load_inputs(self):
        """Input preparation: not part of any timing."""

    def op(self, input_id, out_path):
        """The timed operation; returns (exit code, payload)."""
        raise NotImplementedError

    def finish(self, input_id, payload, out_path):
        """Make sure the op's output is at out_path (untimed)."""

    def check(self, input_id, code, out_path, payload):
        """(outcome, cause): certified, rejected or failed."""
        raise NotImplementedError


def _quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


class BuildLarge(Workload):
    def op(self, input_id, out_path):
        return _quiet_main(
            [
                "build",
                "--tracks", str(self.dir / "tracks.csv"),
                "--task", str(self.dir / "task.json"),
                "--out", str(out_path),
            ]
        )

    def _expected(self):
        if not hasattr(self, "_on_task"):
            with np.load(self.dir / "on_task.npz") as npz:
                self._on_task = {name: npz[name] for name in npz.files}
        return self._on_task

    def check(self, input_id, code, out_path, text):
        if code != 0:
            return "failed", f"exit_{code}"
        try:
            tube = natset.read_natset(out_path)
        except ValueError as exc:
            return "failed", f"check: tube does not read back: {exc}"
        expected = self._expected()
        if f"trajectories: {len(expected)}\n" not in text:
            return "failed", f"check: printed trajectory count is not the {len(expected)} on task"
        if tube.hulls[0].support != len(expected):
            return "failed", (
                f"check: t=0 hull built from {tube.hulls[0].support} states, "
                f"not the {len(expected)} on-task tracks"
            )
        for name, states in expected.items():
            if not all(natset.trajectory_membership(tube, states)):
                return "failed", f"check: on-task track {name} leaves the tube"
        return "certified", None


class _Projecting(Workload):
    """Shared checks for the two projection workloads."""

    def _tube_doc(self):
        if not hasattr(self, "_doc"):
            with open(self.dir / "tube.json", encoding="utf-8") as fh:
                doc = json.load(fh)
            sel = np.array(doc["transform"])
            self._doc = (
                float(doc["dt"]),
                sel,
                [(np.array(h["G"]), np.array(h["h"])) for h in doc["hulls"]],
            )
        return self._doc

    def _candidate_states(self, input_id):
        dt, _, _ = self._tube_doc()
        (tr,) = natset.load_trajectories(self.dir / f"{input_id}.csv", frame_rate=1.0 / dt)
        return tr.dyn_states

    def check(self, input_id, code, out_path, payload):
        dt, sel, hulls = self._tube_doc()
        x0 = self._candidate_states(input_id)[0]
        if code == 4:
            # the program says the start misses the t=0 hull
            G, h = hulls[0]
            if np.max(G @ (sel @ x0) - h) > FEAS_TOL:
                return "rejected", "exit_4"
            return "failed", "check: exit 4 but the start lies inside the t=0 hull"
        if code == 5:
            # accepted only when no control can help: x1 = A x0 misses W_1
            x1 = x0 + dt * np.array([x0[1], 0.0, x0[3], 0.0])
            G, h = hulls[1]
            if np.max(G @ (sel @ x1) - h) > 0.0:
                return "rejected", "exit_5"
            return "failed", "check: exit 5 on a candidate whose t=1 state fits"
        if code != 0:
            return "failed", f"exit_{code}"
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("status") != "Optimal":
            return "failed", f"check: status {doc.get('status')!r}"
        states = np.array(doc["states"], dtype=float).reshape(-1, 4)
        controls = np.array(doc["controls"], dtype=float).reshape(-1, 2)
        if not np.allclose(states[0], x0, rtol=1e-11, atol=1e-12):
            return "failed", "check: projection does not start at the candidate's state"
        worst = max(
            float(np.max(G @ (sel @ states[t]) - h))
            for t, (G, h) in enumerate(hulls[: len(states)])
        )
        if worst > FEAS_TOL:
            return "failed", f"check: leaves the tube by {worst:.3g} m"
        replay = natset.rollout(natset.double_integrator(dt), states[0], controls)
        drift = float(np.max(np.abs(replay - states)))
        if drift > ROLLOUT_TOL:
            return "failed", f"check: states differ from rollout(controls) by {drift:.3g}"
        return "certified", None


class ProjectActive(_Projecting):
    def setup(self):
        self.tube = natset.read_natset(self.dir / "tube.json")
        self.dyn = natset.double_integrator(self.tube.dt)

    def load_inputs(self):
        self.candidates = {
            name: natset.CandidateTrajectory(self._candidate_states(name), self.tube.dt)
            for name in self.manifest["inputs"]
        }

    def op(self, input_id, out_path):
        candidate = self.candidates[input_id]
        try:
            return 0, natset.project(candidate, self.tube, self.dyn)
        except natset.InitialStateOutsideTube:
            return 4, None
        except natset.SolverFailure:
            return 5, None

    def finish(self, input_id, result, out_path):
        if result is not None:
            natset.write_projection(result, self.candidates[input_id], out_path)


class ProjectLong(_Projecting):
    def op(self, input_id, out_path):
        dt, _, _ = self._tube_doc()
        return _quiet_main(
            [
                "project",
                "--natset", str(self.dir / "tube.json"),
                "--candidate", str(self.dir / f"{input_id}.csv"),
                "--dyn", f"dt={dt!r}",
                "--out", str(out_path),
            ]
        )

    def load_inputs(self):
        self._tube_doc()


KINDS = {
    "build_large": BuildLarge,
    "project_active": ProjectActive,
    "project_long": ProjectLong,
}


def load(run_dir):
    with open(Path(run_dir) / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    return KINDS[manifest["workload"]](run_dir, manifest)
