"""Posture controller: error vectors, torque allocation, closed-loop laws."""

import math
from dataclasses import replace

import numpy as np
import pytest

import triped as T
from triped.control import control_action, max_static_incline, zeta_distance
from triped.dynamics import swing_accel
from triped.reduced import (OUTPUT_MAP, input_matrix_e, reduced_inertias,
                            to_reduced)

P = T.RobotParams()
TARGETS = T.GaitTargets()
NOMINAL = T.ControllerConfig()


def error_state(q_e1, q_e2):
    """Configuration whose output error is exactly (q_e1, q_e2)."""
    return np.array([q_e2 / 2.0, q_e2 / 2.0, TARGETS.q3_ref + q_e1])


def test_raw_error_vector_is_the_sine_of_the_outputs():
    q = error_state(0.1, 0.1)
    action = control_action(q, np.zeros(3), np.zeros(2), NOMINAL)
    np.testing.assert_allclose(action.eta, [math.sin(0.1), math.sin(0.1)],
                               atol=1e-14)


def test_weighted_error_vector_divides_by_the_error_inertia():
    # All links parallel at 0.05 rad gives the aligned inertia
    # diag(2.8125, 5.0); targets chosen so the output error is (0.1, 0.1).
    targets = T.GaitTargets(q1_switch=TARGETS.q1_switch, q3_ref=0.05 - 0.1)
    cfg = replace(NOMINAL, error_weighting="inertia", targets=targets)
    q = np.full(3, 0.05)
    action = control_action(q, np.zeros(3), np.zeros(2), cfg)
    np.testing.assert_allclose(
        action.eta, [math.sin(0.1) / 2.8125, math.sin(0.1) / 5.0],
        rtol=1e-13)


def test_integrator_rate_equals_error_at_zero_integrator_state():
    q = error_state(0.07, -0.04)
    dq = np.array([0.3, -0.3, 0.1])
    action = control_action(q, dq, np.zeros(2), NOMINAL)
    np.testing.assert_allclose(action.omega_I_rate, action.eta, atol=1e-14)


def test_allocation_inverts_the_torque_map():
    rng = np.random.default_rng(31)
    for _ in range(20):
        q = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                      rng.uniform(1.3, 1.9)])
        dq = rng.uniform(-2, 2, 3)
        omega_i = rng.uniform(-0.1, 0.1, 2)
        action = control_action(q, dq, omega_i, NOMINAL)
        rs = to_reduced(q, dq, TARGETS)
        b_e, _ = input_matrix_e(rs, NOMINAL.model)
        np.testing.assert_allclose(b_e @ action.u, action.tau_ue,
                                   rtol=1e-10, atol=1e-10)
        assert abs(action.det_input) > NOMINAL.det_floor


def test_rest_on_manifold_holds_posture():
    # Zero error, zero rates: the commanded torque must exactly cancel
    # gravity in the output channels, so the output accelerations vanish.
    q = np.array([TARGETS.q1_switch, -TARGETS.q1_switch, TARGETS.q3_ref])
    action = control_action(q, np.zeros(3), np.zeros(2), NOMINAL)
    np.testing.assert_allclose(action.eta, 0.0, atol=1e-15)
    qdd = swing_accel(q, np.zeros(3), action.u, P, NOMINAL.incline_assumed)
    np.testing.assert_allclose(OUTPUT_MAP @ qdd, 0.0, atol=1e-10)


def test_matched_closed_loop_initial_acceleration_is_proportional_gain():
    # From rest with a small output error, the regularized loop starts with
    # output acceleration -kp * sin(error): the stiffness the gains promise.
    q_e = np.array([0.02, -0.015])
    q = np.array([TARGETS.q1_switch + q_e[1] / 2.0,
                  -TARGETS.q1_switch + q_e[1] / 2.0,
                  TARGETS.q3_ref + q_e[0]])
    action = control_action(q, np.zeros(3), np.zeros(2), NOMINAL)
    qdd = swing_accel(q, np.zeros(3), action.u, P, NOMINAL.incline_assumed)
    np.testing.assert_allclose(OUTPUT_MAP @ qdd,
                               -NOMINAL.gains.kp * np.sin(q_e), rtol=1e-8)


def test_singular_allocation_is_refused():
    cfg = replace(NOMINAL, det_floor=1e6)
    with pytest.raises(T.ActuationSingularityError):
        control_action(np.array([0.2, -0.2, 1.8]), np.zeros(3), np.zeros(2),
                       cfg)


def test_zeta_distance_frozen_and_zero_on_manifold():
    assert zeta_distance(np.array([0.2, -0.1, 1.9]),
                         np.array([1.1, -0.7, 0.3]), P, TARGETS) == \
        pytest.approx(0.5000826248470955, rel=1e-12)
    q = np.array([0.1, -0.1, TARGETS.q3_ref])
    dq = np.array([0.9, -0.9, 0.0])
    assert zeta_distance(q, dq, P, TARGETS) == pytest.approx(0.0, abs=1e-15)


def test_zeta_distance_is_weighted_regardless_of_error_weighting():
    # The distance measure is a property of the model, not of the
    # controller's error convention, so both controller flavors report the
    # same number for the same state.
    q = np.array([0.3, -0.2, 1.7])
    dq = np.array([0.5, 0.1, -0.2])
    z = zeta_distance(q, dq, P, TARGETS)
    rs = to_reduced(q, dq, TARGETS)
    i_e, _ = reduced_inertias(rs, P)
    expected = math.hypot(np.linalg.norm(np.sin(rs.q_e) / np.diag(i_e)),
                          np.linalg.norm(rs.omega_e))
    assert z == pytest.approx(expected, rel=1e-13)


def test_max_static_incline_value():
    lam_max = max_static_incline(P)
    assert lam_max == pytest.approx(math.asin(0.45), rel=1e-12)
    assert math.degrees(lam_max) == pytest.approx(26.74, abs=0.01)
    # At the bound an upright torso (q3_ref = lam_max + 90 deg, which
    # maximizes sin(q3_ref - incline)) just holds the standing posture:
    # 1 / sin(lam_max) equals the demand (M_T + M_H + m) r / (M_T l).
    demand = (P.torso_mass + P.hip_mass + P.leg_mass) * P.leg_length / (
        P.torso_mass * P.torso_length)
    assert 1.0 / math.sin(lam_max) == pytest.approx(demand, rel=1e-12)
    # Positive parameters whose demand rounds to zero bound nothing.
    tiny = T.RobotParams(leg_mass=0.25, hip_mass=0.125, torso_mass=0.125,
                         leg_length=5e-324)
    assert max_static_incline(tiny) == math.pi / 2
