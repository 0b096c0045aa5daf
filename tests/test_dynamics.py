import numpy as np
import pytest

from natset.dynamics import (
    CondensedMap,
    LinearDynamics,
    NonPositiveParameter,
    condense,
    double_integrator,
    rollout,
)


def test_double_integrator_structure():
    dyn = double_integrator(dt=0.04, mass=1.0)
    assert dyn.A[0][1] == pytest.approx(0.04)
    assert dyn.B[1][0] == pytest.approx(0.04)
    expected_A = np.array(
        [[1, 0.04, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.04], [0, 0, 0, 1]]
    )
    assert np.allclose(dyn.A, expected_A)


def test_double_integrator_mass_scaling():
    dyn = double_integrator(dt=1.0, mass=2.0)
    assert dyn.B[1][0] == pytest.approx(0.5)
    assert dyn.B[3][1] == pytest.approx(0.5)


def test_double_integrator_rejects_nonpositive():
    with pytest.raises(NonPositiveParameter):
        double_integrator(dt=0.0, mass=1.0)
    with pytest.raises(NonPositiveParameter):
        double_integrator(dt=0.1, mass=-1.0)


def test_dynamics_holds_only_dt_and_mass():
    # A and B follow from dt and the mass, so they can neither be given
    # nor written
    dyn = LinearDynamics(0.1, 2.0)
    assert dyn == double_integrator(0.1, 2.0) and dyn != double_integrator(0.1)
    assert np.array_equal(dyn.B, np.kron(np.eye(2), [[0.0], [0.05]]))
    for name in ("A", "B"):
        with pytest.raises(TypeError):
            LinearDynamics(dt=0.1, mass=1.0, **{name: np.eye(4)})
        with pytest.raises(ValueError, match="read-only"):
            getattr(dyn, name)[0, 0] = 2.0


def test_zero_control_rollout_is_constant_velocity():
    dyn = double_integrator(dt=0.1, mass=1.0)
    states = rollout(dyn, [0.0, 1.0, 0.0, 0.0], np.zeros((3, 2)))
    assert np.allclose(states[:, 0], [0.0, 0.1, 0.2, 0.3])
    assert np.allclose(states[:, 1], 1.0)


def test_empty_controls_returns_initial_state():
    dyn = double_integrator(dt=0.1)
    states = rollout(dyn, [1.0, 2.0, 3.0, 4.0], np.zeros((0, 2)))
    assert states.shape == (1, 4)
    assert np.allclose(states[0], [1, 2, 3, 4])


def test_constant_unit_force_builds_velocity():
    dyn = double_integrator(dt=1.0, mass=3.0)
    controls = np.tile([3.0, 0.0], (5, 1))  # F_x = mass -> unit acceleration
    states = rollout(dyn, np.zeros(4), controls)
    assert np.allclose(states[:, 1], np.arange(6.0))


def test_condense_horizon_one():
    dyn = double_integrator(dt=0.5, mass=2.0)
    cm = condense(dyn.A, dyn.B, 1)
    assert np.allclose(cm.Phi[:4], np.eye(4))
    assert np.allclose(cm.Phi[4:], dyn.A)
    assert np.allclose(cm.Gamma[:4], 0.0)
    assert np.allclose(cm.Gamma[4:], dyn.B)


def test_condense_identity_dynamics_blocks():
    B = np.eye(4)[:, :2] + np.eye(4)[:, 2:]
    cm = condense(np.eye(4), B, 3)
    for t in range(1, 4):
        for k in range(t):
            assert np.allclose(cm.Gamma[t * 4 : (t + 1) * 4, k * 2 : (k + 1) * 2], B)


def test_condense_matches_rollout():
    rng = np.random.default_rng(7)
    dyn = double_integrator(dt=0.04, mass=1.3)
    cm = condense(dyn.A, dyn.B, 3)
    for _ in range(20):
        x0 = rng.standard_normal(4)
        U = rng.standard_normal((3, 2))
        stacked = cm.Phi @ x0 + cm.Gamma @ U.ravel()
        assert np.allclose(stacked.reshape(-1, 4), rollout(dyn, x0, U), atol=1e-12)


def test_condense_rollout_consistency_many_horizons():
    rng = np.random.default_rng(19)
    dyn = double_integrator(dt=0.1, mass=0.7)
    for horizon in [1, 2, 5, 13, 27, 50]:
        cm = condense(dyn.A, dyn.B, horizon)
        x0 = rng.standard_normal(4)
        U = rng.standard_normal((horizon, 2))
        stacked = (cm.Phi @ x0 + cm.Gamma @ U.ravel()).reshape(-1, 4)
        assert np.max(np.abs(stacked - rollout(dyn, x0, U))) < 1e-10


def condense_blockwise(A, B, horizon):
    """Reference: every block of Gamma formed by its own product."""
    powers = [np.eye(4)]
    for _ in range(horizon):
        powers.append(A @ powers[-1])
    Phi = np.empty(((horizon + 1) * 4, 4))
    for t in range(horizon + 1):
        Phi[t * 4 : (t + 1) * 4] = powers[t]
    Gamma = np.zeros(((horizon + 1) * 4, horizon * 2))
    for t in range(1, horizon + 1):
        for k in range(t):
            Gamma[t * 4 : (t + 1) * 4, k * 2 : (k + 1) * 2] = powers[t - 1 - k] @ B
    return Phi, Gamma


@pytest.mark.parametrize("horizon", [1, 2, 7, 60])
def test_condense_equals_blockwise_reference(horizon):
    rng = np.random.default_rng(horizon)
    planar = double_integrator(dt=0.04, mass=1.3)
    random = (rng.standard_normal((4, 4)) / 2.0, rng.standard_normal((4, 2)))
    for A, B in ((planar.A, planar.B), random):
        cm = condense(A, B, horizon)
        Phi, Gamma = condense_blockwise(A, B, horizon)
        assert cm.horizon == horizon
        assert np.array_equal(cm.Phi, Phi)
        assert np.array_equal(cm.Gamma, Gamma)


def test_rollout_linearity():
    rng = np.random.default_rng(29)
    dyn = double_integrator(dt=0.2, mass=2.0)
    x0 = rng.standard_normal(4)
    U1 = rng.standard_normal((8, 2))
    U2 = rng.standard_normal((8, 2))
    lhs = rollout(dyn, x0, U1 + U2) - rollout(dyn, x0, U1) - rollout(dyn, x0, U2)
    rhs = -rollout(dyn, x0, np.zeros_like(U1))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("horizon", [1, 2, 7, 60])
def test_per_axis_condensed_map_is_each_axis_of_the_planar_map(horizon):
    # the projection condenses the (p, v) block of one axis: x and y are
    # identical and uncoupled, so it is each axis of the planar map
    dyn = double_integrator(dt=0.04, mass=1.3)
    planar, axis = condense(dyn.A, dyn.B, horizon), condense(dyn.A[:2, :2], dyn.B[:2, :1], horizon)
    assert axis.Phi.shape == (2 * (horizon + 1), 2)
    assert axis.Gamma.shape == (2 * (horizon + 1), horizon)
    for c in range(2):
        rows = (np.arange(horizon + 1)[:, None] * 4 + 2 * c + np.arange(2)).ravel()
        assert np.array_equal(planar.Phi[rows][:, 2 * c : 2 * c + 2], axis.Phi)
        assert np.array_equal(planar.Gamma[rows][:, c::2], axis.Gamma)
        other = planar.Gamma[rows][:, 1 - c :: 2]
        assert not np.any(other)
