"""Reduced (output/zero channel) model: frozen values and pushforward."""

import math

import numpy as np
import pytest

import triped as T
from triped.dynamics import (INPUT_MATRIX, gravity_torque, inertia_matrix,
                             velocity_forces)
from triped.reduced import (OUTPUT_MAP, input_matrix_e, pushforward,
                            quadratic_bracket, reduced_forces,
                            reduced_inertias, to_reduced)

P = T.RobotParams()
TARGETS = T.GaitTargets()


def random_full_states(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        # Torso near upright keeps the torque map comfortably nonsingular.
        q = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                      rng.uniform(1.2, 1.9)])
        dq = rng.uniform(-2, 2, 3)
        yield q, dq


def test_output_map_frozen():
    np.testing.assert_array_equal(OUTPUT_MAP, [[0.0, 0.0, 1.0],
                                               [1.0, 1.0, 0.0]])


def test_reduced_inertias_with_aligned_legs_and_torso():
    # alpha = beta = 0: all links parallel, so the shape factor is
    # 4*M_H + m*(3 - 2) = 5 and the zero-channel inertia is 5 r^2/4.
    q = np.full(3, 0.4)
    rs = to_reduced(q, np.zeros(3), TARGETS)
    assert rs.alpha == pytest.approx(0.0, abs=1e-15)
    assert rs.beta == pytest.approx(0.0, abs=1e-15)
    i_e, i_z = reduced_inertias(rs, P)
    np.testing.assert_allclose(i_e, np.diag([2.8125, 5.0]), atol=1e-14)
    assert i_z == pytest.approx(1.25, rel=1e-15)


def test_reduced_inertias_frozen_at_pinned_state():
    rs = to_reduced(np.array([0.2, -0.1, 1.9]), np.array([1.1, -0.7, 0.3]),
                    TARGETS)
    i_e, i_z = reduced_inertias(rs, P)
    np.testing.assert_allclose(i_e, np.diag([9.646941333182294,
                                             17.150117925657412]),
                               rtol=0, atol=1e-13)
    assert i_z == pytest.approx(4.287529481414353, rel=1e-14)
    np.testing.assert_allclose(
        quadratic_bracket(rs, P),
        [[1.8333619840973912, -2.251665675834245],
         [2.251665675834245, 3.2593101939509177]], rtol=0, atol=1e-13)


def test_torque_map_frozen_with_aligned_links():
    rs = to_reduced(np.full(3, 0.1), np.zeros(3), TARGETS)
    b_e, b_z = input_matrix_e(rs, P)
    np.testing.assert_allclose(b_e, [[26.0 / 3.0, 35.0 / 3.0],
                                     [-28.0, -60.0]], rtol=1e-14)
    np.testing.assert_allclose(b_z, [-7.0 / 3.0, -10.0 / 3.0], rtol=1e-14)


def test_closed_form_torque_map_matches_pushforward():
    for q, dq in random_full_states(40, seed=21):
        rs = to_reduced(q, dq, TARGETS)
        closed_e, closed_z = input_matrix_e(rs, P)
        pushed_e, pushed_z = pushforward(rs, P, inertia_matrix(q, P),
                                         INPUT_MATRIX)
        np.testing.assert_allclose(closed_e, pushed_e, atol=1e-12)
        np.testing.assert_allclose(closed_z, pushed_z, atol=1e-12)


def test_reduced_forces_are_pushed_forward_from_the_given_state():
    # Exactly the state given, not one rebuilt from the reduced coordinates
    # (q1 - (q1 - q2) rounds): the pushforward at (q, dq) itself.
    incline = 0.3
    for q, dq in random_full_states(40, seed=22):
        rs = to_reduced(q, dq, TARGETS)
        e, z = pushforward(rs, P, inertia_matrix(q, P), np.stack(
            [velocity_forces(q, dq, P), gravity_torque(q, P, incline)],
            axis=-1))
        tau_e, tau_z, tau_g_e, tau_g_z = reduced_forces(rs, P, incline)
        assert np.array_equal(tau_e, e[:, 0]) and tau_z == z[0]
        assert np.array_equal(tau_g_e, -e[:, 1]) and tau_g_z == -z[1]
        np.testing.assert_allclose(rs.omega_e, OUTPUT_MAP @ dq, atol=1e-14)


def test_reduced_inertias_positive_over_shape_grid():
    for alpha in np.linspace(-2.5, 2.5, 11):
        for beta in np.linspace(-2.5, 2.5, 11):
            q = np.array([0.0, -beta / 2.0, -alpha / 2.0])
            rs = to_reduced(q, np.zeros(3), TARGETS)
            assert rs.alpha == pytest.approx(alpha, abs=1e-12)
            assert rs.beta == pytest.approx(beta, abs=1e-12)
            i_e, i_z = reduced_inertias(rs, P)
            assert np.diag(i_e).min() > 0
            assert i_z > 0


def test_error_coordinates_reference_targets():
    q = np.array([math.radians(15.0), math.radians(-15.0),
                  math.radians(105.0)])
    rs = to_reduced(q, np.zeros(3), TARGETS)
    np.testing.assert_allclose(rs.q_e, 0.0, atol=1e-15)
