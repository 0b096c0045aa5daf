"""Planar double-integrator dynamics and the condensed control-to-state map.

The state vector ordering is fixed package-wide to ``(p_x, v_x, p_y, v_y)``
and controls are planar accelerations ``(a_x, a_y)``:

    p_{x,t+1} = p_x,t + dt * v_x,t        v_{x,t+1} = v_x,t + dt * a_x,t
    p_{y,t+1} = p_y,t + dt * v_y,t        v_{y,t+1} = v_y,t + dt * a_y,t

`LinearDynamics` is that model and holds only dt.  Both maps below are
running sums added in step order: ``rollout`` sums each axis's velocity
steps dt a and then its position steps dt v, and ``condense`` builds one
axis's map ``Phi @ x0 + Gamma @ a`` from the sums s_t of t time steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

NX = 4  # state dimension
NU = 2  # control dimension
# the hull coordinates (p_x, p_y): the columns of a state that tubes bound
POSITIONS = slice(0, NX, 2)


class NonPositiveParameter(ValueError):
    """A dt or frame rate that is not finite and > 0 with a finite 1/value."""


def positive(name, value):
    """Raise NonPositiveParameter unless value and 1/value are finite and > 0."""
    if not (0.0 < value < math.inf and 1.0 / float(value) < math.inf):
        raise NonPositiveParameter(
            f"{name} must be finite and > 0 with a finite 1/{name}, got {name}={value}")


@dataclass(frozen=True)
class LinearDynamics:
    """The planar double integrator with time step ``dt``."""

    dt: float

    def __post_init__(self):
        positive("dt", self.dt)
        object.__setattr__(self, "dt", float(self.dt))


@dataclass(frozen=True)
class CondensedMap:
    """Stacked map of one axis: rows 2t and 2t + 1 are step t's position and
    velocity.  With s_t the sum of t time steps, step t's rows of Phi are
    [[1, s_t], [0, 1]]; at column k < t, Gamma's position row holds
    s_(t-1-k) dt and its velocity row dt, and both are zero at k >= t."""

    Phi: np.ndarray
    Gamma: np.ndarray


def double_integrator(dt: float) -> LinearDynamics:
    """Discrete planar double integrator with acceleration controls."""
    return LinearDynamics(dt)


def rollout(dyn: LinearDynamics, x_init, controls) -> np.ndarray:
    """Simulate the recursion; returns states of shape (len(controls)+1, 4).

    ``x_init`` holds the 4 start values and ``controls`` is a (T, 2) array
    of accelerations.
    """
    x = np.asarray(x_init, dtype=float)
    U = np.asarray(controls, dtype=float)
    if x.shape != (NX,):
        raise ValueError(f"x_init must hold {NX} numbers, got shape {x.shape}")
    if U.ndim != 2 or U.shape[1] != NU:
        raise ValueError(f"controls must be a (T, {NU}) array, got shape {U.shape}")
    states = np.empty((len(U) + 1, NX))
    states[0] = x
    v, p = states[:, 1::2], states[:, 0::2]
    v[1:] = U * dyn.dt
    np.cumsum(v, axis=0, out=v)
    p[1:] = dyn.dt * v[:-1]
    np.cumsum(p, axis=0, out=p)
    return states


def condense(dt: float, horizon: int) -> CondensedMap:
    """One axis over ``horizon`` steps of ``dt``: for a start (p_0, v_0) and
    accelerations a, the stacked (position, velocity) pairs of steps
    0 .. horizon are ``Phi @ (p_0, v_0) + Gamma @ a``."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    H = horizon
    s = np.concatenate(([0.0], np.cumsum(np.full(H, dt, dtype=float))))
    Phi = np.zeros((H + 1, 2, 2))
    Phi[:, 0, 0] = Phi[:, 1, 1] = 1.0
    Phi[:, 0, 1] = s
    # Gamma's rows are Toeplitz: step t's position and velocity rows are the
    # windows of (s_(H-1) dt, ..., s_0 dt, 0, ..., 0) and (dt, ..., dt,
    # 0, ..., 0), H entries each, that start at H - t
    lagged = np.zeros((2, 2 * H))
    lagged[0, :H] = s[H - 1 :: -1] * dt
    lagged[1, :H] = dt
    Gamma = np.empty((H + 1, 2, H))
    Gamma[:] = sliding_window_view(lagged, H, axis=1)[:, ::-1].transpose(1, 0, 2)
    Phi, Gamma = Phi.reshape(-1, 2), Gamma.reshape(-1, H)
    Phi.flags.writeable = False
    Gamma.flags.writeable = False
    return CondensedMap(Phi=Phi, Gamma=Gamma)
