"""Projecting a candidate trajectory into a hull tube.

The candidate is replaced by the closest dynamically feasible trajectory
(squared Euclidean distance over stacked states) whose positions stay
inside the tube cross-sections wherever tube and candidate overlap in
time.  With the dynamics eliminated by condensation this is a convex QP
in the accelerations, which are the written controls; the initial state
is pinned, never optimized.  The x and y axes share one condensed map, so
the QP's matrix is one H x H block and its hull rows stay implicit
(`HullRows`).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import qpsolver
from .data import (SPEED_BOUND, ParseError, Trajectory, _float, _json_object, _numbers,
                   _within_bounds)
from .dynamics import POSITIONS, condense, double_integrator, positive, rollout
from .geometry import COORD_BOUND, _OUT_OF_BOUNDS, _freeze, margins, owners
from .natset import _round12, _write_json, step_rows_within, step_violations
from .qpsolver import QuadraticProgram, SolverStatus, solve

# meters a written state may miss its hull by; so also the pinned start's rule
FEAS_TOL = 1e-6
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
    """States to be naturalized, sampled every dt seconds, within the
    bounds that `load_trajectories` reads (`data._within_bounds`)."""

    states: np.ndarray
    dt: float

    def __post_init__(self):
        arr = _freeze(self.states)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"states must be (T+1, 4), got {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError(f"candidate must have at least 2 states, found {arr.shape[0]}")
        if not _within_bounds(arr):
            t = next(t for t in range(len(arr)) if not _within_bounds(arr[t : t + 1]))
            raise ValueError(f"candidate state at t={t} must be finite with |x|, |y| <= "
                             f"{COORD_BOUND:g} m and |v_x|, |v_y| <= {SPEED_BOUND:g} m/s")
        positive("dt", self.dt)
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
        for name in ("states", "controls"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        object.__setattr__(self, "active_constraints",
                           tuple(tuple(map(int, rows)) for rows in self.active_constraints))
        object.__setattr__(self, "violation_report", tuple(self.violation_report))


def naturalism_report(candidate, natset):
    """Signed hull violation of the candidate at each of its time steps.

    Entries beyond the tube horizon are None: there is no hull to violate.
    """
    out = step_violations(natset, candidate.states).tolist()
    return out + [None] * (candidate.horizon + 1 - len(out))


class HullRows:
    """Hull constraint rows on the acceleration stack, kept without a matrix.

    The variables z = (a_x0, a_y0, a_x1, a_y1, ...) reshape to one
    acceleration column per axis, and each axis's positions are
    ``free + Cp @ accelerations`` with the same (H+1, H) map Cp.  Row i,
    for the half-space normal ``G[i]`` of the hull at step ``steps[i]``,
    is therefore Cp[steps[i]] with each entry times that normal: A @ z is
    the normals applied to the positions ``Cp @ z.reshape(H, 2)``, and a
    dense row is formed only on request.  This is the row interface of
    `qpsolver`.
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


def _program(candidate, natset):
    """The projection QP in the accelerations, from the condensed map of
    one axis of the double integrator at the tube's step.

    Per axis the stacked (position, velocity) trajectory is ``Phi x0 +
    Gamma a``, so the objective's block is 2 Gamma'Gamma = 2 (Cp'Cp +
    Cv'Cv) for Cp and Cv the position and velocity rows of Gamma, and
    each axis's part of the linear term is 2 Gamma'(Phi x0 - target).
    """
    H, dt = candidate.horizon, natset.dt
    # row 2t + s of these stacks is step t's position (s = 0) or velocity
    # (s = 1); column c is the axis, matching the state order (p_x, v_x, p_y, v_y)
    target = candidate.states.reshape(H + 1, 2, 2).transpose(0, 2, 1).reshape(-1, 2)
    # Gamma scales as dt^2: an extreme dt puts it, P or q out of range
    with np.errstate(over="ignore"):
        cm = condense(dt, H)
        free = cm.Phi @ candidate.states[0].reshape(2, 2).T
        P = 2.0 * (cm.Gamma.T @ cm.Gamma)
        q = 2.0 * (cm.Gamma.T @ (free - target))

    Cp, free_pos = cm.Gamma[0::2], free[0::2]
    # rows of steps 2 .. T, in order; `project` checks the pinned steps 0 and 1
    T = min(H, natset.horizon)
    lo, hi = natset.start[min(2, T + 1)], natset.start[T + 1]
    G = natset.G[lo:hi]
    steps = owners(natset.start[: T + 2])[lo:]
    A = HullRows(Cp, steps, G)
    b = -margins(G, natset.h[lo:hi], free_pos[steps])
    # all three are fresh and held by no one else: read-only, the program keeps them
    P.flags.writeable = q.flags.writeable = b.flags.writeable = False
    try:
        return QuadraticProgram(P, q.ravel(), A, b)
    except ValueError as exc:
        raise ValueError(f"the projection QP in accelerations for dt={dt!r} "
                         f"cannot be posed: {exc}") from None


def project(candidate, natset, dyn=None):
    """Solve the tube-constrained least-squares projection for the double
    integrator at the tube's step.

    The initial state is pinned, and FEAS_TOL judges both of its facts: a
    first position that misses the t = 0 hull by more raises
    InitialStateOutsideTube, and a step-1 position p_0 + dt v_0 that misses
    a t = 1 hull row by more raises SolverFailure, as does a solve that is
    not Optimal, naming its steps and, for MaxIter, the cap or the
    certificate that stopped it.  The controls are the accelerations that
    solve the QP, and the states their rollout.  ValueError names a dt of
    ``candidate`` or of ``dyn``, which is optional, that is not the tube's,
    or a projected position beyond COORD_BOUND and its step.
    """
    # a relative rule: tube files keep dt to 12 significant digits, and the
    # CLI samples a candidate at 1 / (1 / dt)
    for name, given in (("candidate", candidate), ("dynamics", dyn)):
        if given is not None and not math.isclose(given.dt, natset.dt, rel_tol=1e-9):
            raise ValueError(f"{name} dt {given.dt!r} does not match tube dt {natset.dt!r}")

    report = naturalism_report(candidate, natset)
    if report[0] > FEAS_TOL:
        raise InitialStateOutsideTube(report[0])
    x0 = candidate.states[0]
    # a tube of 1 hull has no t = 1 rows; an extreme dt or v_0 puts p_1 out of range
    with np.errstate(over="ignore"):
        p1 = x0[POSITIONS] + natset.dt * x0[1::2]
    lo, hi = natset.start[1], natset.start[min(2, natset.horizon + 1)]
    miss = margins(natset.G[lo:hi], natset.h[lo:hi], p1)
    broken = np.flatnonzero(miss > FEAS_TOL)
    if broken.size:
        j = broken[0]
        raise SolverFailure(f"hull row {j} at t=1 is violated by {miss[j]:.6g} m "
                            "and no control input can change it")

    sol = solve(_program(candidate, natset))
    steps = f"{sol.iterations} active-set steps"
    if sol.status is SolverStatus.INFEASIBLE:
        raise SolverFailure(f"solver returned Infeasible after {steps}")
    if sol.status is SolverStatus.MAX_ITER:
        why = (f"it stopped at its cap of {steps}" if sol.iterations == qpsolver._MAX_STEPS
               else f"its answer after {steps} fails the KKT certificate")
        raise SolverFailure(f"solver returned MaxIter: {why}")

    controls = sol.z.reshape(-1, 2)
    states = rollout(double_integrator(natset.dt), x0, controls)
    beyond = np.flatnonzero(~(np.abs(states[:, POSITIONS]) <= COORD_BOUND).all(axis=1))
    if beyond.size:
        x, y = states[beyond[0], POSITIONS]
        raise ValueError(f"projected position at t={beyond[0]} is ({x:.12g}, {y:.12g}); "
                         f"positions {_OUT_OF_BOUNDS}")
    # the states are fresh and held by no one else, and the controls view the
    # solution's read-only z: ProjectionResult keeps both
    states.flags.writeable = False
    diff = states.ravel() - candidate.states.ravel()
    objective = float(diff @ diff)

    active = step_rows_within(natset, states, ACTIVE_TOL)

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
        "states": result.states,
        "controls": result.controls,
        "violations_before": [None if v is None else _round12(v) for v in result.violation_report],
        "active_constraints": result.active_constraints,
        "candidate_states": candidate.states,
    }
    _write_json(doc, path)


def read_projection(path):
    """Load a projection JSON into a plain dict with array values; like a
    tube file's, its arrays and objective must hold finite JSON numbers,
    and the positions of its states within COORD_BOUND."""
    try:
        doc = _json_object(path)
        for key, width in (("states", 4), ("controls", 2), ("candidate_states", 4)):
            if key != "candidate_states" or key in doc:
                values = _numbers(doc[key], (width,))
                if values is None or not np.isfinite(values).all():
                    raise ValueError(f'"{key}" must hold rows of {width} finite numbers')
                doc[key] = values.reshape(-1, width)
                if key != "controls" and not (abs(doc[key][:, POSITIONS]) <= COORD_BOUND).all():
                    raise ValueError(f'"{key}" positions {_OUT_OF_BOUNDS}')
        doc["objective"] = _float(doc["objective"], '"objective"')
        if not math.isfinite(doc["objective"]):
            raise ValueError(f'"objective" must be finite, got {doc["objective"]}')
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: bad projection file: {exc}") from None
    return doc
