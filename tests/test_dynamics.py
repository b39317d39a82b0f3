"""Swing-phase dynamics: frozen values, structural identities, kinematics.

Frozen numbers were computed from the independent symbolic derivation that
also backs :mod:`triped.verification`; the structural identities (symmetry,
energy bookkeeping, gradient consistency) hold for any correct Lagrangian
model regardless of where the numbers came from.
"""

import math

import numpy as np
import pytest

import triped as T
from triped.dynamics import (INPUT_MATRIX, coriolis_matrix, gravity_torque,
                             hip_position, inertia_matrix, kinetic_energy,
                             mass_points, potential_energy, swing_accel,
                             swing_foot_height, swing_foot_position,
                             total_energy, velocity_forces)

P = T.RobotParams()

PINNED_Q = np.array([0.2, -0.1, 1.9])
PINNED_DQ = np.array([1.1, -0.7, 0.3])


def random_states(n, seed, rate_scale=3.0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (rng.uniform(-1.2, 1.2, 3), rng.uniform(-1, 1, 3) * rate_scale)


def test_inertia_frozen_entries_at_aligned_configuration():
    # All links parallel: every cosine coupling is at its extreme value.
    M = inertia_matrix(np.full(3, 0.7), P)
    np.testing.assert_allclose(
        M,
        [[5.25, -0.5, 2.25],
         [-0.5, 0.25, 0.0],
         [2.25, 0.0, 1.6875]],
        rtol=0, atol=1e-14)


def test_inertia_frozen_at_pinned_state():
    np.testing.assert_allclose(
        inertia_matrix(PINNED_Q, P),
        [[5.25, -0.477668244562803, -0.28990011216493045],
         [-0.477668244562803, 0.25, 0.0],
         [-0.28990011216493045, 0.0, 1.6875]],
        rtol=0, atol=1e-14)


def test_inertia_symmetric_positive_definite():
    for q, _ in random_states(50, seed=3):
        M = inertia_matrix(q, P)
        np.testing.assert_array_equal(M, M.T)
        assert np.linalg.eigvalsh(M).min() > 0


def test_gravity_frozen_level_ground():
    np.testing.assert_allclose(
        gravity_torque(np.array([0.1, 0.0, 0.0]), P, 0.0),
        [5.386511995179614, 0.0, 0.0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("incline", [0.1, -0.25, math.radians(25.0)])
def test_gravity_vanishes_with_all_links_vertical(incline):
    # q_i = incline points every link along the world vertical: equilibrium.
    q = np.full(3, incline)
    np.testing.assert_allclose(gravity_torque(q, P, incline), 0.0, atol=1e-13)


def test_gravity_is_negative_potential_gradient():
    h = 1e-6
    for q, _ in random_states(10, seed=4):
        for incline in (0.0, 0.3, -0.2):
            G = gravity_torque(q, P, incline)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                grad = (potential_energy(q + e, P, incline)
                        - potential_energy(q - e, P, incline)) / (2 * h)
                assert G[k] == pytest.approx(-grad, abs=5e-7)


def test_coriolis_frozen_at_pinned_state():
    np.testing.assert_allclose(
        coriolis_matrix(PINNED_Q, PINNED_DQ, P),
        [[0.0, 0.10343207233146885, -0.6693737470554162],
         [0.1625361136637368, 0.0, 0.0],
         [2.45437040586986, 0.0, 0.0]],
        rtol=0, atol=1e-14)


def test_inertia_rate_minus_twice_coriolis_is_skew():
    h = 1e-6
    for q, dq in random_states(5, seed=5):
        Mdot = sum(
            (inertia_matrix(q + h * ek, P) - inertia_matrix(q - h * ek, P))
            / (2 * h) * dq[k]
            for k, ek in enumerate(np.eye(3)))
        N = Mdot - 2.0 * coriolis_matrix(q, dq, P)
        np.testing.assert_allclose(N, -N.T, atol=5e-7)


def test_velocity_forces_equal_coriolis_product():
    for q, dq in random_states(20, seed=6):
        np.testing.assert_allclose(
            velocity_forces(q, dq, P),
            coriolis_matrix(q, dq, P) @ dq, rtol=0, atol=1e-12)


def test_swing_accel_satisfies_equations_of_motion():
    rng = np.random.default_rng(7)
    for q, dq in random_states(20, seed=8):
        u = rng.uniform(-30, 30, 2)
        incline = rng.uniform(-0.5, 0.5)
        ddq = swing_accel(q, dq, u, P, incline)
        residual = (inertia_matrix(q, P) @ ddq
                    + coriolis_matrix(q, dq, P) @ dq
                    - gravity_torque(q, P, incline) - INPUT_MATRIX @ u)
        np.testing.assert_allclose(residual, 0.0, atol=1e-10)


def test_swing_accel_rejects_non_finite_state():
    with pytest.raises(T.NonFiniteStateError):
        swing_accel(np.array([np.nan, 0.0, 0.0]), np.zeros(3), np.zeros(2),
                    P, 0.0)


def test_energy_definitions():
    for q, dq in random_states(10, seed=9):
        M = inertia_matrix(q, P)
        assert kinetic_energy(q, dq, P) == pytest.approx(
            0.5 * dq @ M @ dq, rel=1e-13)
        assert total_energy(q, dq, P, 0.3) == pytest.approx(
            kinetic_energy(q, dq, P) + potential_energy(q, P, 0.3), rel=1e-13)


def test_total_energy_frozen_at_reference_start():
    x = T.nominal_initial_state()
    E = total_energy(np.array(x[:3]), np.array(x[3:]), P, math.radians(25.0))
    assert E == pytest.approx(57.55304604205462, rel=1e-13)


def test_kinematic_chain_consistency():
    r, l = P.leg_length, P.torso_length
    for q, _ in random_states(20, seed=10):
        e = lambda a: np.array([math.sin(a), math.cos(a)])
        hip = hip_position(q, P)
        np.testing.assert_allclose(hip, r * e(q[0]), atol=1e-14)
        np.testing.assert_allclose(swing_foot_position(q, P),
                                   hip - r * e(q[1]), atol=1e-14)
        np.testing.assert_allclose(mass_points(q, P)[3][1],
                                   hip + l * e(q[2]), atol=1e-14)
        assert swing_foot_height(q, P) == pytest.approx(
            swing_foot_position(q, P)[1], abs=1e-14)


def test_swing_foot_height_frozen_and_symmetric():
    q = np.array([0.1, -0.2, 1.8])
    assert swing_foot_height(q, P) == pytest.approx(
        0.014937587436784194, abs=1e-15)
    # Mirror-symmetric legs put both feet on the surface.
    assert swing_foot_height(np.array([0.3, -0.3, 1.0]), P) == pytest.approx(
        0.0, abs=1e-15)


def test_swing_foot_height_over_an_array_of_configurations():
    qs = np.array([[0.1, -0.2, 1.8], [0.3, -0.3, 1.0], [-0.4, 0.2, 1.5]])
    heights = swing_foot_height(qs, P)
    assert heights.shape == (3,)
    np.testing.assert_array_equal(heights, [swing_foot_height(q, P) for q in qs])


def test_mass_points_account_for_whole_robot():
    points = mass_points(np.array([0.2, -0.3, 1.7]), P)
    total = sum(mass for mass, _ in points)
    assert total == pytest.approx(
        2 * P.leg_mass + P.hip_mass + P.torso_mass, rel=1e-15)


def test_input_matrix_frozen():
    np.testing.assert_array_equal(INPUT_MATRIX,
                                  [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
