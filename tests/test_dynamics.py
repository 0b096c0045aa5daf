import dataclasses

import numpy as np
import pytest

from natset.dynamics import (
    LinearDynamics,
    NonPositiveParameter,
    condense,
    double_integrator,
    rollout,
)

from oracles import condense_blockwise, planar_matrices, rollout_scalar

# time steps from the demos' to ones whose condensed entries near the
# limits of floating point
DTS = (0.04, 0.1, 1 / 3, 0.07, 1e-3, 2.5, 1e-150, 1e150)


def test_double_integrator_rejects_nonpositive():
    with pytest.raises(NonPositiveParameter):
        double_integrator(dt=0.0)
    with pytest.raises(NonPositiveParameter):
        double_integrator(dt=-0.1)


def test_dynamics_holds_only_dt():
    dyn = LinearDynamics(0.1)
    assert dyn == double_integrator(0.1) and dyn != double_integrator(0.2)
    assert [f.name for f in dataclasses.fields(dyn)] == ["dt"]
    for name in ("A", "B", "mass"):
        assert not hasattr(dyn, name)
        with pytest.raises(TypeError):
            LinearDynamics(dt=0.1, **{name: np.eye(4)})
    with pytest.raises(TypeError):
        double_integrator(0.1, 1.0)


def test_zero_control_rollout_is_constant_velocity():
    dyn = double_integrator(dt=0.1)
    states = rollout(dyn, [0.0, 1.0, 0.0, 0.0], np.zeros((3, 2)))
    assert np.allclose(states[:, 0], [0.0, 0.1, 0.2, 0.3])
    assert np.allclose(states[:, 1], 1.0)


def test_empty_controls_returns_initial_state():
    dyn = double_integrator(dt=0.1)
    states = rollout(dyn, [1.0, 2.0, 3.0, 4.0], np.zeros((0, 2)))
    assert states.shape == (1, 4)
    assert np.allclose(states[0], [1, 2, 3, 4])


def test_constant_unit_acceleration_builds_velocity():
    dyn = double_integrator(dt=1.0)
    controls = np.tile([1.0, 0.0], (5, 1))
    states = rollout(dyn, np.zeros(4), controls)
    assert np.allclose(states[:, 1], np.arange(6.0))


@pytest.mark.parametrize(
    "x_init, controls, message",
    [
        # six accelerations if read flat, but (3, 4) is not a control sequence
        (np.zeros(4), np.zeros((3, 4)), r"controls must be a \(T, 2\) array, got shape \(3, 4\)"),
        (np.zeros(4), np.zeros(6), r"controls must be a \(T, 2\) array, got shape \(6,\)"),
        (np.zeros(5), np.zeros((3, 2)), r"x_init must hold 4 numbers, got shape \(5,\)"),
        (np.zeros((1, 4)), np.zeros((3, 2)), r"x_init must hold 4 numbers, got shape \(1, 4\)"),
    ],
)
def test_rollout_rejects_misshapen_start_and_controls(x_init, controls, message):
    with pytest.raises(ValueError, match=message):
        rollout(double_integrator(0.1), x_init, controls)


def test_rollout_equals_scalar_reference():
    rng = np.random.default_rng(11)
    for dt in DTS:
        dyn = double_integrator(dt)
        for T in (0, 1, 7, 100, 800):
            x0 = rng.standard_normal(4)
            controls = rng.standard_normal((T, 2))
            reference = np.array(rollout_scalar(dt, x0, controls))
            assert np.array_equal(rollout(dyn, x0, controls), reference), (dt, T)


def test_condense_horizon_one():
    cm = condense(0.5, 1)
    assert np.array_equal(cm.Phi, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.5], [0.0, 1.0]])
    assert np.array_equal(cm.Gamma, [[0.0], [0.0], [0.0], [0.5]])


def axis_stack(cm, x0, U):
    """The planar states of each axis's condensed map, side by side."""
    axes = [(cm.Phi @ x0[2 * c : 2 * c + 2] + cm.Gamma @ U[:, c]).reshape(-1, 2) for c in range(2)]
    return np.hstack(axes)


def test_condense_matches_rollout():
    rng = np.random.default_rng(7)
    dyn = double_integrator(dt=0.04)
    cm = condense(dyn.dt, 3)
    for _ in range(20):
        x0 = rng.standard_normal(4)
        U = rng.standard_normal((3, 2))
        assert np.allclose(axis_stack(cm, x0, U), rollout(dyn, x0, U), atol=1e-12)


def test_condense_rollout_consistency_many_horizons():
    rng = np.random.default_rng(19)
    dyn = double_integrator(dt=0.1)
    for horizon in [1, 2, 5, 13, 27, 50]:
        cm = condense(dyn.dt, horizon)
        x0 = rng.standard_normal(4)
        U = rng.standard_normal((horizon, 2))
        assert np.max(np.abs(axis_stack(cm, x0, U) - rollout(dyn, x0, U))) < 1e-10


@pytest.mark.parametrize("horizon", [1, 2, 7, 60, 100, 400, 800])
def test_condense_equals_blockwise_reference(horizon):
    # the running sums give the very bits of the matrix-power products
    for dt in DTS:
        A, B = planar_matrices(dt)
        Phi, Gamma = condense_blockwise(A[:2, :2], B[:2, :1], horizon)
        cm = condense(dt, horizon)
        assert np.array_equal(cm.Phi, Phi), dt
        assert np.array_equal(cm.Gamma, Gamma), dt
        assert not (cm.Phi.flags.writeable or cm.Gamma.flags.writeable)


def test_rollout_linearity():
    rng = np.random.default_rng(29)
    dyn = double_integrator(dt=0.2)
    x0 = rng.standard_normal(4)
    U1 = rng.standard_normal((8, 2))
    U2 = rng.standard_normal((8, 2))
    lhs = rollout(dyn, x0, U1 + U2) - rollout(dyn, x0, U1) - rollout(dyn, x0, U2)
    rhs = -rollout(dyn, x0, np.zeros_like(U1))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("horizon", [1, 2, 7, 60])
def test_per_axis_condensed_map_is_each_axis_of_the_planar_map(horizon):
    # x and y are identical and uncoupled, so the one-axis map is each axis
    # of the planar map in accelerations
    planar_Phi, planar_Gamma = condense_blockwise(*planar_matrices(0.04), horizon)
    axis = condense(0.04, horizon)
    assert axis.Phi.shape == (2 * (horizon + 1), 2)
    assert axis.Gamma.shape == (2 * (horizon + 1), horizon)
    for c in range(2):
        rows = (np.arange(horizon + 1)[:, None] * 4 + 2 * c + np.arange(2)).ravel()
        assert np.array_equal(planar_Phi[rows][:, 2 * c : 2 * c + 2], axis.Phi)
        assert np.array_equal(planar_Gamma[rows][:, c::2], axis.Gamma)
        other = planar_Gamma[rows][:, 1 - c :: 2]
        assert not np.any(other)
