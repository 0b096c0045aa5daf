"""Projecting a candidate trajectory into a hull tube.

The candidate is replaced by the closest dynamically feasible trajectory
(squared Euclidean distance over stacked states) whose positions stay
inside the tube cross-sections wherever tube and candidate overlap in
time.  With the dynamics eliminated by condensation this is a convex QP
in the control sequence; the initial state is pinned, never optimized.
"""

import json
from dataclasses import dataclass

import numpy as np

from .data import ParseError, Trajectory
from .dynamics import NX, POSITIONS, condense, rollout
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
            f"(tolerance {FEAS_TOL:g}); pass relax_initial to drop this check"
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


def project(candidate, natset, dyn, relax_initial=False):
    """Solve the tube-constrained least-squares projection.

    relax_initial skips the t = 0 membership pre-check; the initial state
    stays pinned either way.
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
    if not relax_initial and report[0] > FEAS_TOL:
        raise InitialStateOutsideTube(report[0])

    cm = condense(dyn, H_a)
    free = cm.Phi @ x_init  # trajectory under zero control
    target = candidate.states.ravel()
    P = 2.0 * cm.Gamma.T @ cm.Gamma
    q = 2.0 * cm.Gamma.T @ (free - target)
    P = 0.5 * (P + P.T)  # scrub float asymmetry from the triple product

    # position rows of the map, per step: p_t = free_pos[t] + Gamma_pos[t] @ U
    Gamma_pos = cm.Gamma.reshape(H_a + 1, NX, -1)[:, POSITIONS]
    free_pos = free.reshape(H_a + 1, NX)[:, POSITIONS]
    rows, rhs = [], []
    # x_init is pinned, so t = 0 carries no constraint; its membership was
    # the pre-check
    for t in range(1, min(H_a, natset.horizon) + 1):
        hs = natset.hulls[t].halfspaces
        coeff = hs.G @ Gamma_pos[t]
        limit = hs.h - hs.G @ free_pos[t]
        # rows no control influences are facts, not constraints: check and drop
        fixed = np.max(np.abs(coeff), axis=1) < ZERO_ROW_TOL
        broken = np.flatnonzero(fixed & (limit < -1e-9))
        if broken.size:
            i = broken[0]
            raise SolverFailure(
                f"hull row {i} at t={t} is violated by {-limit[i]:.6g} m "
                "and no control input can change it"
            )
        rows.append(coeff[~fixed])
        rhs.append(limit[~fixed])

    A = np.concatenate(rows) if rows else np.zeros((0, 2 * H_a))
    b = np.concatenate(rhs) if rhs else np.zeros(0)
    qp = QuadraticProgram(P, q, A, b)
    sol = solve(qp)
    if sol.status is not SolverStatus.OPTIMAL:
        raise SolverFailure(f"solver returned {sol.status.value}")

    controls = sol.z.reshape(H_a, 2)
    states = rollout(dyn, x_init, controls)
    diff = states.ravel() - target
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
