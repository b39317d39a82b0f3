"""The package's RK45 against scipy's, which stays the oracle.

``triped.ode.solve_ivp`` restates ``scipy.integrate.solve_ivp(method="RK45",
dense_output=True)`` over floats.  It must take the same steps (equal right-
hand side evaluations and accepted steps), find the same event times to
1e-8 s and give the same dense output to 1e-12.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp

import triped as T
from triped import simulate
from triped.impact import reset_map
from triped.kernel import ClosedLoop, closed_loop
from triped.ode import TOO_SMALL_STEP, solve_ivp

EVENT_TIME_TOL = 1e-8
DENSE_TOL = 1e-12


def scipy_rk45(fun, t_span, y0, rtol, atol, events=()):
    return scipy_solve_ivp(lambda t, y: fun(t, y.tolist()), t_span, y0,
                           method="RK45", rtol=rtol, atol=atol,
                           dense_output=True, events=list(events) or None)


def swing_events(cfg):
    """The simulator's two events, terminal as scipy needs them flagged."""
    q1_switch = cfg.controller.targets.q1_switch

    def switch(t, y):
        return y[0] - q1_switch

    def fall(t, y):
        return simulate.FALL_GUARD - max(abs(y[0]), abs(y[1]))

    switch.terminal = fall.terminal = True
    switch.direction, fall.direction = 1.0, -1.0
    return switch, fall


@pytest.fixture(scope="module")
def reference_gait():
    return T.run_gait(T.SimConfig())


def test_reference_gait_takes_scipys_steps(reference_gait):
    cfg = reference_gait.config
    kernel = closed_loop(cfg)
    total = 0
    for record, traj in zip(reference_gait.records, reference_gait.trajectories):
        y0 = np.concatenate([record.x_post_impact, traj.omega_I[0]])
        t_span = (record.t_start, record.t_start + cfg.max_step_time)
        ref = scipy_rk45(kernel.rhs, t_span, y0, cfg.rel_tol, cfg.abs_tol,
                         swing_events(cfg))
        assert record.nfev == ref.nfev
        assert record.n_accepted == len(ref.t) - 1
        assert abs(record.t_end - ref.t_events[0][0]) <= EVENT_TIME_TOL
        total += record.nfev
    assert total == 42538
    # The posture floor the acceptance suite explains.
    assert reference_gait.z_deltas[-1] == pytest.approx(2.757e-3, abs=5e-7)


def test_dense_output_matches_scipy_at_random_times(reference_gait):
    cfg = reference_gait.config
    record, traj = reference_gait.records[0], reference_gait.trajectories[0]
    y0 = np.concatenate([record.x_post_impact, traj.omega_I[0]])
    t_span = (record.t_start, record.t_start + cfg.max_step_time)
    kernel = closed_loop(cfg)
    ours = solve_ivp(kernel.rhs, t_span, y0, cfg.rel_tol, cfg.abs_tol,
                     swing_events(cfg))
    ref = scipy_rk45(kernel.rhs, t_span, y0, cfg.rel_tol, cfg.abs_tol,
                     swing_events(cfg))
    times = np.sort(np.random.default_rng(5).uniform(ours.t[0], ours.t[-1], 300))
    np.testing.assert_allclose(np.array(ours.sol.values(times.tolist())).T,
                               ref.sol(times), rtol=0, atol=DENSE_TOL)
    assert ours.event == 0
    np.testing.assert_allclose(ours.y[:, -1], ref.y_events[0][0], rtol=0,
                               atol=DENSE_TOL)


@st.composite
def linear_systems(draw):
    """``y' = A y``: decaying rates with coupling, one rate stiff or not."""
    n = draw(st.integers(2, 8))
    rates = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        rates[draw(st.integers(0, n - 1))] = draw(st.floats(300.0, 2000.0))
    coupling = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n,
                             max_size=n * n))
    a = np.reshape(coupling, (n, n)) - np.diag(rates)
    y0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return a, np.array(y0)


@settings(max_examples=60, deadline=None)
@given(system=linear_systems(), t_bound=st.floats(0.05, 2.0),
       rtol=st.sampled_from([1e-4, 1e-7, 1e-10]))
def test_linear_systems_take_scipys_steps(system, t_bound, rtol):
    a, y0 = system

    def fun(t, y):
        return a @ y

    ours = solve_ivp(fun, (0.0, t_bound), y0, rtol, 1e-9)
    ref = scipy_rk45(fun, (0.0, t_bound), y0, rtol, 1e-9)
    assert (ours.status, ours.event, ours.message) == (0, None, ref.message)
    assert ref.success
    assert ours.nfev == ref.nfev
    assert ours.n_accepted == len(ref.t) - 1
    assert ours.nfev == 2 + 6 * (ours.n_accepted + ours.n_rejected)
    assert ours.t[-1] == t_bound
    np.testing.assert_allclose(ours.y[:, -1], ref.y[:, -1], rtol=1e-10,
                               atol=1e-13)


def oscillator(t, y):
    return [y[1], -y[0]]


@pytest.mark.parametrize("direction, expected", [(1.0, 2 * math.pi),
                                                 (-1.0, math.pi)])
def test_direction_filtered_event_fires_on_one_side_only(direction, expected):
    # y0 = sin t from t = 0.5: it falls through zero at pi and rises at 2 pi.
    def crossing(t, y):
        return y[0]

    crossing.direction, crossing.terminal = direction, True
    y0 = [math.sin(0.5), math.cos(0.5)]
    ours = solve_ivp(oscillator, (0.5, 10.0), y0, 1e-10, 1e-12, (crossing,))
    ref = scipy_rk45(oscillator, (0.5, 10.0), y0, 1e-10, 1e-12, (crossing,))
    assert (ours.status, ours.event) == (1, 0)
    assert ours.message == ref.message
    t_event = ours.t[-1]
    assert abs(t_event - expected) < 1e-8
    assert abs(t_event - ref.t_events[0][0]) < 1e-12
    np.testing.assert_allclose(ours.y[:, -1], ref.y_events[0][0], rtol=0,
                               atol=1e-12)
    assert ours.nfev == ref.nfev


def test_nan_rhs_fails_as_scipy_does():
    # Both integrators close in on t = 0.1 until the step is 10 ulp; the
    # step counts differ with the rounding of the error estimates.
    def fun(t, y):
        return [math.nan if t > 0.1 else -v for v in y]

    ours = solve_ivp(fun, (0.0, 1.0), [1.0, 2.0], 1e-9, 1e-11)
    ref = scipy_rk45(fun, (0.0, 1.0), [1.0, 2.0], 1e-9, 1e-11)
    assert ours.status == ref.status == -1 and not ref.success
    assert ours.event is None
    assert ours.message == ref.message == TOO_SMALL_STEP
    assert ours.t[-1] == pytest.approx(ref.t[-1], abs=1e-12)
    assert np.all(np.isfinite(ours.y))


def test_nan_from_the_start_fails_instead_of_looping():
    ours = solve_ivp(lambda t, y: [math.nan, math.nan], (0.0, 1.0), [1.0, 2.0])
    assert ours.status == -1
    assert ours.message == TOO_SMALL_STEP


def test_nan_rhs_surfaces_as_non_finite_state_error(monkeypatch):
    cfg = replace(T.SimConfig(), n_steps=1)
    real = closed_loop(cfg)

    def poisoned(cfg):
        def rhs(t, y):
            return (math.nan,) * 8 if t > 0.05 else real.rhs(t, y)
        return ClosedLoop(control=real.control, rhs=rhs)

    x_pre = np.array(cfg.initial_state)
    res = reset_map(x_pre[:3], x_pre[3:], cfg.plant)
    y0 = np.concatenate([res.q_plus, res.dq_plus, np.zeros(2)])
    monkeypatch.setattr(simulate, "closed_loop", poisoned)
    with pytest.raises(T.NonFiniteStateError, match=TOO_SMALL_STEP):
        simulate.integrate_swing(y0, 0.0, cfg)
    summary = T.run_gait(cfg)
    assert summary.abort_reason.startswith(
        "NonFiniteStateError: swing integration failed")
