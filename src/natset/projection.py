"""Projecting a candidate trajectory into a hull tube.

The candidate is replaced by the closest dynamically feasible trajectory
(squared Euclidean distance over stacked states) whose positions stay
inside the tube cross-sections wherever tube and candidate overlap in
time.  With the dynamics eliminated by condensation this is a convex QP
in the control sequence; the initial state is pinned, never optimized.
The x and y axes share one condensed map, so the QP's matrix is one
H x H block and its hull rows stay implicit (`HullRows`).
"""

import json
from dataclasses import dataclass

import numpy as np

from .data import ParseError, Trajectory
from .dynamics import condense, per_axis, rollout
from .geometry import INSIDE_TOL, margins
from .natset import _round12, _round12_nested, hull_margins
from .qpsolver import QuadraticProgram, SolverStatus, solve

# membership tolerance of the t = 0 pre-check on the pinned initial state
FEAS_TOL = 1e-6
# constraint rows unaffected by any control: below this norm they are
# constants, checked once and dropped
ZERO_ROW_TOL = 1e-14
ACTIVE_TOL = 1e-6


class InitialStateOutsideTube(ValueError):
    """The initial position misses the t = 0 hull; carries the violation."""

    def __init__(self, violation):
        super().__init__(
            f"initial position lies {violation:.6g} m outside the t=0 hull "
            f"(tolerance {FEAS_TOL:g}); the initial state is pinned and no "
            "control can move it"
        )
        self.violation = float(violation)


class SolverFailure(RuntimeError):
    """The projection QP did not come back Optimal, or cannot be satisfied."""


@dataclass(frozen=True)
class CandidateTrajectory:
    """States to be naturalized, sampled every dt seconds."""

    states: np.ndarray
    dt: float

    def __post_init__(self):
        arr = np.array(self.states, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"states must be (T+1, 4), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("candidate needs at least one state")
        if not np.all(np.isfinite(arr)):
            raise ValueError("candidate contains non-finite states")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)

    @classmethod
    def from_trajectory(cls, traj: Trajectory):
        return cls(traj.dyn_states, traj.dt)

    @property
    def horizon(self):
        return self.states.shape[0] - 1


@dataclass(frozen=True)
class ProjectionResult:
    states: np.ndarray
    controls: np.ndarray
    objective: float
    status: SolverStatus
    active_constraints: tuple
    violation_report: tuple

    def __post_init__(self):
        st = np.array(self.states, dtype=float)
        ct = np.array(self.controls, dtype=float)
        st.setflags(write=False)
        ct.setflags(write=False)
        object.__setattr__(self, "states", st)
        object.__setattr__(self, "controls", ct)
        object.__setattr__(self, "active_constraints", tuple(map(tuple, self.active_constraints)))
        object.__setattr__(self, "violation_report", tuple(self.violation_report))


def naturalism_report(candidate, natset):
    """Signed hull violation of the candidate at each of its time steps.

    Entries beyond the tube horizon are None: there is no hull to violate.
    """
    out = [float(np.max(m)) for m in hull_margins(natset, candidate.states)]
    return out + [None] * (candidate.horizon + 1 - len(out))


class HullRows:
    """Hull constraint rows on the control stack, kept without a matrix.

    The controls z = (F_x0, F_y0, F_x1, F_y1, ...) reshape to one force
    column per axis, and each axis's positions are ``free + Cp @ forces``
    with the same (H+1, H) map Cp.  Row i, for the half-space normal
    ``G[i]`` of the hull at step ``steps[i]``, is therefore Cp[steps[i]]
    with each entry times that normal: A @ z is the normals applied to
    the positions ``Cp @ z.reshape(H, 2)``, and a dense row is formed
    only on request.  This is the row interface of `qpsolver`.
    """

    def __init__(self, Cp, steps, G):
        self.Cp = Cp
        self.steps = steps
        self.G = G
        self.shape = (len(G), 2 * Cp.shape[1])

    def __matmul__(self, z):
        return margins(self.G, 0.0, (self.Cp @ np.reshape(z, (-1, 2)))[self.steps])

    def __getitem__(self, idx):
        rows = self.Cp[self.steps[idx], :, None] * self.G[idx, None, :]
        return rows.reshape(np.shape(idx) + (self.shape[1],))

    def row_norms(self):
        return np.linalg.norm(self.G, axis=1) * np.linalg.norm(self.Cp, axis=1)[self.steps]


def _program(candidate, natset, dyn):
    """The projection QP in the controls, from the per-axis condensed map.

    Per axis the stacked (position, velocity) trajectory is ``Phi x0 +
    Gamma u``, so the objective's block is 2 Gamma'Gamma = 2 (Cp'Cp +
    Cv'Cv) for Cp and Cv the position and velocity rows of Gamma, and
    each axis's part of the linear term is 2 Gamma'(Phi x0 - target).
    """
    H = candidate.horizon
    cm = condense(per_axis(dyn), H)
    # row 2t + s of these stacks is step t's position (s = 0) or velocity
    # (s = 1); column c is the axis, matching the state order (p_x, v_x, p_y, v_y)
    free = cm.Phi @ candidate.states[0].reshape(2, 2).T
    target = candidate.states.reshape(H + 1, 2, 2).transpose(0, 2, 1).reshape(-1, 2)
    P = 2.0 * (cm.Gamma.T @ cm.Gamma)
    q = 2.0 * (cm.Gamma.T @ (free - target))

    Cp, free_pos = cm.Gamma[0::2], free[0::2]
    # x_init is pinned, so t = 0 carries no constraint; its membership was
    # the pre-check.  Rows of steps 1 .. T of the stacked tube, in order.
    T = min(H, natset.horizon)
    G_all, h_all, start = natset.rows
    G = G_all[start[1]:start[T + 1]]
    steps = np.repeat(np.arange(1, T + 1), np.diff(start[1 : T + 2]))
    limit = -margins(G, h_all[start[1]:start[T + 1]], free_pos[steps])
    # rows no control influences are facts, not constraints: check and drop.
    # Rounding is monotone, so max |G[i] Cp[t]| is exactly the product of
    # the two maxima.
    scale = np.max(np.abs(G), axis=1, initial=0.0) * np.max(np.abs(Cp), axis=1)[steps]
    fixed = scale < ZERO_ROW_TOL
    broken = np.flatnonzero(fixed & (limit < -INSIDE_TOL))
    if broken.size:
        j = broken[0]
        t = steps[j]
        raise SolverFailure(
            f"hull row {j + start[1] - start[t]} at t={t} is violated by {-limit[j]:.6g} m "
            "and no control input can change it"
        )
    A = HullRows(Cp, steps[~fixed], G[~fixed])
    return QuadraticProgram(P, q.ravel(), A, limit[~fixed])


def project(candidate, natset, dyn):
    """Solve the tube-constrained least-squares projection.

    The initial state is pinned, so a candidate whose first position
    misses the t = 0 hull by more than FEAS_TOL raises
    InitialStateOutsideTube.  ``dyn`` must move x and y alike (see
    `dynamics.per_axis`).
    """
    if candidate.horizon < 1:
        raise ValueError("candidate must have at least 2 states")
    if abs(candidate.dt - natset.dt) > 1e-12:
        raise ValueError(
            f"candidate dt {candidate.dt!r} does not match tube dt {natset.dt!r}"
        )
    if abs(dyn.dt - natset.dt) > 1e-12:
        raise ValueError(f"dynamics dt {dyn.dt!r} does not match tube dt {natset.dt!r}")

    x_init = candidate.states[0]
    H_a = candidate.horizon
    report = naturalism_report(candidate, natset)
    if report[0] > FEAS_TOL:
        raise InitialStateOutsideTube(report[0])

    sol = solve(_program(candidate, natset, dyn))
    if sol.status is not SolverStatus.OPTIMAL:
        raise SolverFailure(f"solver returned {sol.status.value}")

    controls = sol.z.reshape(H_a, 2)
    states = rollout(dyn, x_init, controls)
    diff = states.ravel() - candidate.states.ravel()
    objective = float(diff @ diff)

    active = [np.flatnonzero(np.abs(m) <= ACTIVE_TOL) for m in hull_margins(natset, states)]

    return ProjectionResult(
        states=states,
        controls=controls,
        objective=objective,
        status=sol.status,
        active_constraints=active,
        violation_report=report,
    )


def write_projection(result, candidate, path):
    """Projection output JSON; candidate states ride along for plotting."""
    doc = {
        "status": result.status.value,
        "objective": _round12(result.objective),
        "states": _round12_nested(result.states),
        "controls": _round12_nested(result.controls),
        "violations_before": [
            None if v is None else _round12(v) for v in result.violation_report
        ],
        "active_constraints": [list(map(int, rows)) for rows in result.active_constraints],
        "candidate_states": _round12_nested(candidate.states),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_projection(path):
    """Load a projection JSON into a plain dict with array values."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["states"] = np.array(doc["states"], dtype=float).reshape(-1, 4)
        doc["controls"] = np.array(doc["controls"], dtype=float).reshape(-1, 2)
        if "candidate_states" in doc:
            doc["candidate_states"] = np.array(
                doc["candidate_states"], dtype=float
            ).reshape(-1, 4)
        doc["objective"] = float(doc["objective"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad projection file: {exc}") from None
    return doc
