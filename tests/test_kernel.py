"""The fused closed-loop kernel against the composed reference path.

The reference right-hand side is built here from the public functions:
:func:`triped.control.control_action` for the controller (its model, its
assumed slope) followed by :func:`triped.dynamics.swing_accel` for the plant
(the true parameters, the true slope).  The kernel must agree with it to
1e-10 relative to ``max(1, |reference|)`` on every component, raise the same
exceptions with the same messages, and give the same gait.  The kernel gets
its state as the integrator passes it, a list of floats.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import triped as T
from triped.control import control_action
from triped.dynamics import swing_accel
from triped.impact import reset_map
from triped.kernel import closed_loop
from triped.reduced import input_matrix_e, to_reduced

RHS_TOL = 1e-10
EVENT_TIME_TOL = 1e-8

NOMINAL = T.SimConfig()
#: Plant heavier in the torso and on a shallower slope than the controller
#: assumes, under the inertia-weighted error convention.
MISMATCHED = replace(
    NOMINAL, incline_true=math.radians(22.0),
    plant=replace(T.RobotParams(), torso_mass=4.0, leg_length=1.1),
    controller=replace(NOMINAL.controller, error_weighting="inertia"))
CONFIGS = {
    "raw": NOMINAL,
    "inertia": replace(NOMINAL, controller=replace(
        NOMINAL.controller, error_weighting="inertia")),
    "mismatched-raw": replace(MISMATCHED, controller=NOMINAL.controller),
    "mismatched-inertia": MISMATCHED,
}


def composed_rhs(t, y, cfg):
    q, dq, omega_i = y[:3], y[3:6], y[6:8]
    act = control_action(q, dq, omega_i, cfg.controller)
    qdd = swing_accel(q, dq, act.u, cfg.plant, cfg.incline_true)
    return np.concatenate([dq, qdd, act.omega_I_rate])


def random_states(n, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.uniform(-1.0, 1.0, (n, 3)) + [0.0, 0.0, math.pi / 2],
        rng.uniform(-3.0, 3.0, (n, 3)),
        rng.uniform(-0.5, 0.5, (n, 2)),
    ])


def assert_close(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    assert np.max(err) <= RHS_TOL, (got, ref)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_kernel_rhs_matches_the_composed_path(name):
    cfg = CONFIGS[name]
    rhs = closed_loop(cfg)
    for y in random_states(500, seed=11):
        assert_close(rhs(0.0, y.tolist()), composed_rhs(0.0, y, cfg))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_kernel_control_outputs_match_the_reference(name):
    cfg = CONFIGS[name]
    rhs = closed_loop(cfg)
    for y in random_states(200, seed=12):
        outputs = rhs(0.0, y.tolist(), outputs=True)
        act = control_action(y[:3], y[3:6], y[6:8], cfg.controller)
        assert len(outputs) == 5
        assert_close(outputs, [*act.u, *act.eta, act.det_input])


angles = st.floats(-1.2, 1.2)
rates = st.floats(-6.0, 6.0)
integrals = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(q=st.tuples(angles, angles, st.floats(0.3, 2.8)),
       dq=st.tuples(rates, rates, rates), omega_i=st.tuples(integrals, integrals),
       name=st.sampled_from(sorted(CONFIGS)))
def test_kernel_rhs_matches_the_composed_path_everywhere(q, dq, omega_i, name):
    cfg = CONFIGS[name]
    y = np.array([*q, *dq, *omega_i])
    assert_close(closed_loop(cfg)(0.0, y.tolist()), composed_rhs(0.0, y, cfg))


def raised(fn, *args):
    with pytest.raises(T.WalkerError) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("index, value", [
    (0, math.nan), (2, math.inf), (3, math.nan), (5, -math.inf),
    (6, math.nan), (7, math.inf),
])
def test_non_finite_state_raises_as_the_composed_path(index, value):
    y = random_states(1, seed=13)[0]
    y[index] = value
    with np.errstate(invalid="ignore"):
        expected = raised(composed_rhs, 0.0, y, NOMINAL)
    assert expected[0] is T.NonFiniteStateError
    assert raised(closed_loop(NOMINAL), 0.0, y.tolist()) == expected


def test_singular_allocation_raises_as_the_composed_path():
    y = random_states(1, seed=14)[0]
    b_e, _ = input_matrix_e(to_reduced(y[:3], y[3:6], NOMINAL.controller.targets),
                            NOMINAL.controller.model)
    # A floor a hair above this state's |det B_e| puts the state on it.
    floor = abs(np.linalg.det(b_e)) * (1.0 + 1e-9)
    cfg = replace(NOMINAL, controller=replace(NOMINAL.controller,
                                              det_floor=floor))
    expected = raised(composed_rhs, 0.0, y, cfg)
    assert expected[0] is T.ActuationSingularityError
    assert raised(closed_loop(cfg), 0.0, y.tolist()) == expected
    assert raised(closed_loop(cfg), 0.0, y.tolist(), True) == expected


def test_gait_event_times_match_the_composed_path(nominal_three_steps):
    """Integrate the three reference steps on the composed RHS, with the
    simulator's solver settings, and compare the impacts."""
    cfg = nominal_three_steps.config
    q1_switch = cfg.controller.targets.q1_switch

    def switch(t, y, _cfg):
        return y[0] - q1_switch

    switch.terminal, switch.direction = True, 1.0
    x, omega_i = np.array(cfg.initial_state), np.zeros(2)
    for record in nominal_three_steps.records:
        res = reset_map(x[:3], x[3:], cfg.plant)
        y0 = np.concatenate([res.q_plus, res.dq_plus, omega_i])
        t0 = record.t_start
        sol = solve_ivp(composed_rhs, (t0, t0 + cfg.max_step_time), y0,
                        method="RK45", rtol=cfg.rel_tol, atol=cfg.abs_tol,
                        events=switch, args=(cfg,))
        assert abs(sol.t_events[0][0] - record.t_end) <= EVENT_TIME_TOL
        y_end = sol.y_events[0][0]
        np.testing.assert_allclose(y_end[:6], record.x_pre_impact,
                                   rtol=1e-7, atol=1e-9)
        x, omega_i = y_end[:6], y_end[6:]
