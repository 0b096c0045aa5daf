"""Planar double-integrator dynamics and its condensed control-to-state map.

The state vector ordering is fixed package-wide to ``(p_x, v_x, p_y, v_y)``
and controls are planar forces ``(F_x, F_y)`` on a point of mass M:

    p_{x,t+1} = p_x,t + dt * v_x,t        v_{x,t+1} = v_x,t + dt * F_x,t / M
    p_{y,t+1} = p_y,t + dt * v_y,t        v_{y,t+1} = v_y,t + dt * F_y,t / M

``condense`` stacks the recursion into one affine map so a horizon-T rollout
becomes ``xi = Phi @ x0 + Gamma @ U`` with U the flattened control sequence.
The x and y axes never mix, so ``per_axis`` splits off the identical
one-axis system ``(p, v)`` driven by one force; the projection module
builds its quadratic program on the condensed map of that system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    A: np.ndarray
    B: np.ndarray
    dt: float
    mass: float

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.A @ x + self.B @ u


@dataclass(frozen=True)
class CondensedMap:
    """Stacked-state map: block t of Phi is A^t, block (t, k) of Gamma is
    A^(t-1-k) B for k < t and zero otherwise."""

    Phi: np.ndarray
    Gamma: np.ndarray
    horizon: int


def double_integrator(dt: float, mass: float = 1.0) -> LinearDynamics:
    """Discrete planar double integrator with force controls."""
    positive("dt", dt)
    positive("mass", mass)
    A = np.array(
        [
            [1.0, dt, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, dt],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    B = np.array(
        [
            [0.0, 0.0],
            [dt / mass, 0.0],
            [0.0, 0.0],
            [0.0, dt / mass],
        ]
    )
    A.flags.writeable = False
    B.flags.writeable = False
    return LinearDynamics(A=A, B=B, dt=float(dt), mass=float(mass))


def per_axis(dyn: LinearDynamics) -> LinearDynamics:
    """The (2x2, 2x1) system of one axis, shared by x and y.

    Raises ValueError unless ``dyn`` acts on (p_x, v_x) and (p_y, v_y) as
    two identical, uncoupled blocks, each driven by its own force.
    """
    a, b = dyn.A[:2, :2].copy(), dyn.B[:2, :1].copy()
    pair = np.eye(2)
    if not (np.array_equal(dyn.A, np.kron(pair, a)) and np.array_equal(dyn.B, np.kron(pair, b))):
        raise ValueError("x and y dynamics do not decouple into identical blocks")
    a.flags.writeable = False
    b.flags.writeable = False
    return LinearDynamics(A=a, B=b, dt=dyn.dt, mass=dyn.mass)


def rollout(dyn: LinearDynamics, x_init, controls) -> np.ndarray:
    """Simulate the recursion; returns states of shape (len(controls)+1, 4)."""
    x = np.asarray(x_init, dtype=float).ravel()
    U = np.asarray(controls, dtype=float).reshape(-1, NU)
    states = np.empty((len(U) + 1, NX))
    states[0] = x
    for t, u in enumerate(U):
        x = dyn.step(x, u)
        states[t + 1] = x
    return states


def condense(dyn: LinearDynamics, horizon: int) -> CondensedMap:
    """Affine control-to-state map over ``horizon`` steps.

    For any x0 and control stack U (shape horizon * inputs), the stacked
    trajectory of horizon+1 states equals ``Phi @ x0 + Gamma @ U``.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    nx, nu = dyn.B.shape
    powers = [np.eye(nx)]
    for _ in range(horizon):
        powers.append(dyn.A @ powers[-1])
    Phi = np.concatenate(powers)
    # block (t, k) of Gamma depends on the lag t-1-k only, so each A^j B is
    # formed once and column block k takes the lags 0 .. horizon-1-k
    lagged = np.array([p @ dyn.B for p in powers[:horizon]])
    Gamma = np.zeros(((horizon + 1) * nx, horizon * nu))
    blocks = Gamma.reshape(horizon + 1, nx, horizon, nu)
    for k in range(horizon):
        blocks[k + 1 :, :, k] = lagged[: horizon - k]
    Phi.flags.writeable = False
    Gamma.flags.writeable = False
    return CondensedMap(Phi=Phi, Gamma=Gamma, horizon=horizon)
