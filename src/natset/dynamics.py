"""Planar point-mass dynamics and the condensed control-to-state map.

The state vector ordering is fixed package-wide to ``(p_x, v_x, p_y, v_y)``
and controls are planar forces ``(F_x, F_y)`` on a point of mass M:

    p_{x,t+1} = p_x,t + dt * v_x,t        v_{x,t+1} = v_x,t + dt * F_x,t / M
    p_{y,t+1} = p_y,t + dt * v_y,t        v_{y,t+1} = v_y,t + dt * F_y,t / M

`LinearDynamics` is that model: it holds dt and M, and its matrices A and B
follow from them.  The mass is only a unit: the accelerations F / M give
the same states whatever M is.  ``condense`` stacks any linear recursion
into one affine map so a horizon-T rollout becomes
``xi = Phi @ x0 + Gamma @ U`` with U the flattened control sequence; the
projection module condenses one axis of the unit-mass model, whose
controls are accelerations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NX = 4  # state dimension
NU = 2  # control dimension
# the hull coordinates (p_x, p_y): the columns of a state that tubes bound
POSITIONS = slice(0, NX, 2)


class NonPositiveParameter(ValueError):
    """A dt, mass or frame rate that is not finite and > 0 with a finite 1/value."""


def positive(name, value):
    """Raise NonPositiveParameter unless value and 1/value are finite and > 0."""
    if not (0.0 < value < math.inf and 1.0 / float(value) < math.inf):
        raise NonPositiveParameter(
            f"{name} must be finite and > 0 with a finite 1/{name}, got {name}={value}")


@dataclass(frozen=True)
class LinearDynamics:
    """The planar point mass with time step ``dt`` and ``mass``; its
    read-only A and B are derived from the two, so they cannot disagree."""

    dt: float
    mass: float = 1.0
    A: np.ndarray = field(init=False, repr=False, compare=False)
    B: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positive("dt", self.dt)
        positive("mass", self.mass)
        dt, mass = float(self.dt), float(self.mass)
        # x and y are two identical, uncoupled (p, v) blocks
        A = np.eye(NX)
        A[0, 1] = A[2, 3] = dt
        B = np.zeros((NX, NU))
        B[1, 0] = B[3, 1] = dt / mass
        A.flags.writeable = False
        B.flags.writeable = False
        for name, value in (("dt", dt), ("mass", mass), ("A", A), ("B", B)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CondensedMap:
    """Stacked-state map: block t of Phi is A^t, block (t, k) of Gamma is
    A^(t-1-k) B for k < t and zero otherwise."""

    Phi: np.ndarray
    Gamma: np.ndarray
    horizon: int


def double_integrator(dt: float, mass: float = 1.0) -> LinearDynamics:
    """Discrete planar double integrator with force controls."""
    return LinearDynamics(dt, mass)


def rollout(dyn: LinearDynamics, x_init, controls) -> np.ndarray:
    """Simulate the recursion; returns states of shape (len(controls)+1, 4)."""
    A, B = dyn.A, dyn.B
    x = np.asarray(x_init, dtype=float).ravel()
    U = np.asarray(controls, dtype=float).reshape(-1, NU)
    states = np.empty((len(U) + 1, NX))
    states[0] = x
    for t, u in enumerate(U):
        x = A @ x + B @ u
        states[t + 1] = x
    return states


def condense(A, B, horizon: int) -> CondensedMap:
    """Affine control-to-state map of ``x' = A x + B u`` over ``horizon`` steps.

    For any x0 and control stack U (shape horizon * inputs), the stacked
    trajectory of horizon+1 states equals ``Phi @ x0 + Gamma @ U``.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    nx, nu = B.shape
    powers = [np.eye(nx)]
    for _ in range(horizon):
        powers.append(A @ powers[-1])
    Phi = np.concatenate(powers)
    # block (t, k) of Gamma depends on the lag t-1-k only, so each A^j B is
    # formed once and column block k takes the lags 0 .. horizon-1-k
    lagged = np.array([p @ B for p in powers[:horizon]])
    Gamma = np.zeros(((horizon + 1) * nx, horizon * nu))
    blocks = Gamma.reshape(horizon + 1, nx, horizon, nu)
    for k in range(horizon):
        blocks[k + 1 :, :, k] = lagged[: horizon - k]
    Phi.flags.writeable = False
    Gamma.flags.writeable = False
    return CondensedMap(Phi=Phi, Gamma=Gamma, horizon=horizon)
