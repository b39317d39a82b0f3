"""The package's RK45 against scipy's, which stays the oracle.

``triped.ode.solve_ivp`` restates ``scipy.integrate.solve_ivp(method="RK45")``
over floats.  It must take the same steps (equal right-hand side evaluations
and accepted steps), find the same event times to 1e-8 s and give the same
states at ``t_eval`` to 1e-12.
"""

import linecache
import math
import traceback
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp

import triped as T
from triped import simulate
from triped.impact import reset_map
from triped.kernel import closed_loop
from triped import ode
from triped.ode import NFEV_BUDGET_SPENT, TOO_SMALL_STEP, solve_ivp

EVENT_TIME_TOL = 1e-8
DENSE_TOL = 1e-12


def scipy_rk45(fun, t_span, y0, rtol, atol, events=(), t_eval=None):
    return scipy_solve_ivp(lambda t, y: fun(t, y.tolist()), t_span, y0,
                           method="RK45", rtol=rtol, atol=atol,
                           events=list(events) or None, t_eval=t_eval)


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
    rhs = closed_loop(cfg)
    total = 0
    for record, traj in zip(reference_gait.records, reference_gait.trajectories):
        y0 = np.concatenate([record.x_post_impact, traj.omega_I[0]])
        t_span = (record.t_start, record.t_start + cfg.max_step_time)
        ref = scipy_rk45(rhs, t_span, y0, cfg.rel_tol, cfg.abs_tol,
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
    # About half the times fall after the swing's switching event.
    times = np.sort(np.random.default_rng(5).uniform(
        t_span[0], t_span[0] + 2 * record.step_time, 300))
    rhs = closed_loop(cfg)
    ours = solve_ivp(rhs, t_span, y0, cfg.rel_tol, cfg.abs_tol,
                     swing_events(cfg), t_eval=times)
    ref = scipy_rk45(rhs, t_span, y0, cfg.rel_tol, cfg.abs_tol,
                     swing_events(cfg), t_eval=times)
    np.testing.assert_array_equal(ref.t, times[:len(ours.y_eval)])
    assert 100 < len(ref.t) < 200
    np.testing.assert_allclose(ours.y_eval, ref.y.T, rtol=0, atol=DENSE_TOL)
    assert ours.event == 0
    np.testing.assert_allclose(ours.y_end, ref.y_events[0][0], rtol=0,
                               atol=DENSE_TOL)


def test_a_time_on_a_step_node_is_taken_from_the_earlier_step():
    rtol, atol = 1e-6, 1e-9
    # The last evaluation at a node's time is the first-same-as-last stage
    # fun(t + h, y_new) of the step that ends there: its y is the node's
    # state (at the first node, the start's).
    at = {}

    def recording(t, y):
        at[t] = list(y)
        return oscillator(t, y)

    nodes = solve_ivp(recording, (0.0, 3.0), [0.0, 1.0], rtol, atol).t.tolist()
    states = [at[t] for t in nodes]
    ours = solve_ivp(oscillator, (0.0, 3.0), [0.0, 1.0], rtol, atol,
                     t_eval=nodes)
    np.testing.assert_array_equal(ours.t, nodes)
    assert ours.y_eval[0].tolist() == states[0] == [0.0, 1.0]
    # Node k on the quartic of the step that ends there, rebuilt from the
    # step's start: the same attempt gives the same stages, bit for bit.
    dp5 = ode._dp5(2)
    for k in range(1, len(nodes)):
        t_old, y_old = nodes[k - 1], states[k - 1]
        h = nodes[k] - t_old
        k1 = oscillator(t_old, y_old)
        stages, _, _ = dp5.step(oscillator, t_old, h, y_old, k1, atol, rtol)
        q = dp5.coefficients(stages)
        assert ours.y_eval[k].tolist() == dp5.interpolate(
            t_old, h, y_old, k1, q, nodes[k])
    # The later step would start exactly on the node's state: it differs.
    assert not np.array_equal(ours.y_eval[1:], states[1:])


def test_times_past_the_event_are_not_evaluated():
    def crossing(t, y):
        return y[0]

    crossing.direction = -1.0
    # A millisecond apart, so the event step covers many.
    times = np.linspace(0.5, 10.0, 9501)
    y0 = [math.sin(0.5), math.cos(0.5)]
    ours = solve_ivp(oscillator, (0.5, 10.0), y0, 1e-10, 1e-12, (crossing,),
                     t_eval=times)
    assert ours.event == 0 and abs(ours.t[-1] - math.pi) < 1e-8
    evaluated = len(ours.y_eval)
    assert evaluated == 2642
    assert times[evaluated - 1] <= ours.t[-1] < times[evaluated]
    np.testing.assert_allclose(ours.y_eval[:, 0], np.sin(times[:evaluated]),
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("t_eval, message", [
    ([0.0, 0.5, 0.4], "not properly sorted"),
    ([0.0, 0.5, 0.5], "not properly sorted"),
    ([-0.1, 0.5], "not within `t_span`"),
    ([0.5, 1.5], "not within `t_span`"),
    ([[0.0, 0.5]], "must be 1-dimensional"),
])
def test_a_t_eval_out_of_order_or_outside_t_span_is_refused(t_eval, message):
    with pytest.raises(ValueError, match=message):
        scipy_rk45(oscillator, (0.0, 1.0), [0.0, 1.0], 1e-6, 1e-9,
                   t_eval=t_eval)
    with pytest.raises(ValueError, match=message):
        solve_ivp(oscillator, (0.0, 1.0), [0.0, 1.0], t_eval=t_eval)


@pytest.mark.parametrize("t_span, atol, message", [
    ((1.0, 1.0), 1e-6, "t_span must increase"),
    ((1.0, 0.0), 1e-6, "t_span must increase"),
    ((0.0, 1.0), 0.0, "atol must be positive"),
    ((0.0, 1.0), -1e-9, "atol must be positive"),
])
def test_a_span_that_does_not_rise_or_a_non_positive_atol_is_refused(
        t_span, atol, message):
    with pytest.raises(ValueError, match=message):
        solve_ivp(oscillator, t_span, [0.0, 1.0], atol=atol)


@pytest.mark.parametrize("t_span", [(0.0, math.inf), (-math.inf, 1.0),
                                    (math.nan, 1.0)])
def test_a_span_that_is_not_finite_is_refused_before_any_evaluation(t_span):
    # No step reaches an infinite end: the integration would never stop.
    def fun(t, y):
        raise AssertionError(f"fun called at t = {t}")

    with pytest.raises(ValueError, match="t_span must be finite"):
        solve_ivp(fun, t_span, [1.0])


def test_a_long_integration_keeps_no_state_per_step():
    # Per accepted step the result keeps its node time, eight bytes; the
    # states between the start and the end are not kept.
    solve_ivp(oscillator, (0.0, 1.0), [0.0, 1.0])  # compile the step first
    tracemalloc.start()
    try:
        ours = solve_ivp(oscillator, (0.0, 200.0), [0.0, 1.0], 1e-10, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ours.status == 0 and ours.n_accepted > 5000
    assert peak / ours.n_accepted < 32


def swing_start(cfg):
    """The 8-dim post-impact state of the first stride from ``cfg``."""
    x_pre = np.array(cfg.initial_state)
    res = reset_map(x_pre[:3], x_pre[3:], cfg.plant)
    return np.concatenate([res.q_plus, res.dq_plus, np.zeros(2)])


def test_the_sample_grid_is_one_arange_inside_t_span(monkeypatch):
    """A swing samples at ``np.arange(t0, t_bound, sample_dt)``, built once
    and cut to ``t_bound``.  numpy sizes the array by ``sample_dt`` but fills
    it with ``t0 + k ((t0 + dt) - t0)``: at this start of a swing of the
    default orbit search, the last time passes ``t_bound``, and ``t_eval``
    would be refused."""
    cfg = T.SimConfig()
    t0 = 11.743562545393855
    t_bound = t0 + cfg.max_step_time
    arange = np.arange(t0, t_bound, cfg.sample_dt)
    assert arange[-1] == 16.74356254539464 > t_bound == 16.743562545393857
    with pytest.raises(ValueError, match="not within `t_span`"):
        solve_ivp(oscillator, (t0, t_bound), [0.0, 1.0], t_eval=arange)

    grids, aranges = [], []
    real_solve, real_arange = simulate.solve_ivp, np.arange

    def recording(fun, t_span, y0, **kwargs):
        grids.append(kwargs["t_eval"])
        return real_solve(fun, t_span, y0, **kwargs)

    def counted(*args, **kwargs):
        aranges.append(args)
        return real_arange(*args, **kwargs)

    monkeypatch.setattr(simulate, "solve_ivp", recording)
    monkeypatch.setattr(np, "arange", counted)
    traj, _ = simulate.integrate_swing(swing_start(cfg), t0, cfg)
    assert len(aranges) == 1
    (grid,) = grids
    np.testing.assert_array_equal(grid, arange[:-1])
    # The samples are the grid's first times, then the event.
    n = len(traj.t) - 1
    assert 100 < n < len(grid)
    np.testing.assert_array_equal(traj.t[:n], grid[:n])
    assert grid[n - 1] < traj.t[-1] < grid[n]


@st.composite
def linear_systems(draw):
    """``y' = A y``: decaying rates with coupling, one rate stiff or not."""
    n = draw(st.integers(1, 12))
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
    np.testing.assert_allclose(ours.y_end, ref.y[:, -1], rtol=1e-10,
                               atol=1e-13)


def oscillator(t, y):
    return [y[1], -y[0]]


@pytest.mark.parametrize("direction, expected", [(1.0, 2 * math.pi),
                                                 (-1.0, math.pi),
                                                 (0.0, math.pi)])
def test_direction_filtered_event_fires_on_one_side_only(direction, expected):
    # y0 = sin t from t = 0.5: it falls through zero at pi and rises at 2 pi;
    # an undirected event (scipy's default) fires at the first, pi.
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
    np.testing.assert_allclose(ours.y_end, ref.y_events[0][0], rtol=0,
                               atol=1e-12)
    assert ours.nfev == ref.nfev


def clock(t, y):
    """y0 = t and y1 = exp(-t) from y = (0, 1)."""
    return [1.0, -y[1]]


def test_an_event_zero_at_the_start_fires_there_as_scipys_does():
    def started(t, y):
        return y[0]

    started.direction, started.terminal = 1.0, True
    ours = solve_ivp(clock, (0.0, 1.0), [0.0, 1.0], events=(started,))
    ref = scipy_rk45(clock, (0.0, 1.0), [0.0, 1.0], 1e-3, 1e-6, (started,))
    assert (ours.status, ours.event, ours.t[-1]) == (1, 0, 0.0)
    assert ref.status == 1 and ref.t_events[0].tolist() == [0.0]
    assert ours.nfev == ref.nfev == 8
    assert ours.y_end.tolist() == [0.0, 1.0]


def test_the_earlier_of_two_roots_in_one_step_ends_the_integration():
    def late(t, y):
        return y[0] - 0.5000001

    def early(t, y):
        return y[0] - 0.5

    late.terminal = early.terminal = True
    # Without events, one step covers both roots.
    nodes = solve_ivp(clock, (0.0, 1.0), [0.0, 1.0]).t
    assert np.searchsorted(nodes, 0.5) == np.searchsorted(nodes, 0.5000001)
    ours = solve_ivp(clock, (0.0, 1.0), [0.0, 1.0], events=(late, early))
    ref = scipy_rk45(clock, (0.0, 1.0), [0.0, 1.0], 1e-3, 1e-6, (late, early))
    assert (ours.status, ours.event) == (1, 1)
    assert ref.t_events[0].size == 0 and ref.t_events[1].size == 1
    assert ours.t[-1] == pytest.approx(0.5, abs=1e-12)
    assert ref.t_events[1][0] == pytest.approx(0.5, abs=1e-12)
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
    # Each state is the last plus a step, so a NaN once taken stays.
    assert np.all(np.isfinite(ours.y_end))


def test_nan_from_the_start_fails_instead_of_looping():
    ours = solve_ivp(lambda t, y: [math.nan, math.nan], (0.0, 1.0), [1.0, 2.0])
    assert ours.status == -1
    assert ours.message == TOO_SMALL_STEP


def test_nan_rhs_surfaces_as_non_finite_state_error(monkeypatch):
    cfg = replace(T.SimConfig(), n_steps=1)
    real = closed_loop(cfg)

    def poisoned(cfg):
        def rhs(t, y, outputs=False):
            return (math.nan,) * 8 if t > 0.05 else real(t, y, outputs)
        return rhs

    monkeypatch.setattr(simulate, "closed_loop", poisoned)
    with pytest.raises(T.NonFiniteStateError, match=TOO_SMALL_STEP):
        simulate.integrate_swing(swing_start(cfg), 0.0, cfg)
    summary = T.run_gait(cfg)
    assert summary.abort_reason.startswith(
        "NonFiniteStateError: swing integration failed")


# The Dormand–Prince step and dense output as loops over components: the
# formulas the generated straight-line code must reproduce bit for bit.
def textbook_step(fun, t, h, y, k1, atol, rtol):
    C2, C3, C4, C5, _ = ode.C
    ((A21,), (A31, A32), (A41, A42, A43), (A51, A52, A53, A54),
     (A61, A62, A63, A64, A65)) = ode.A
    B1, _, B3, B4, B5, B6 = ode.B
    E1, _, E3, E4, E5, E6, E7 = ode.E
    k2 = fun(t + C2 * h, [v + (A21 * a) * h for v, a in zip(y, k1)])
    k3 = fun(t + C3 * h, [v + (A31 * a + A32 * b) * h
                          for v, a, b in zip(y, k1, k2)])
    k4 = fun(t + C4 * h, [v + (A41 * a + A42 * b + A43 * c) * h
                          for v, a, b, c in zip(y, k1, k2, k3)])
    k5 = fun(t + C5 * h, [v + (A51 * a + A52 * b + A53 * c + A54 * d) * h
                          for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = fun(t + h, [v + (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e) * h
                     for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [v + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * f6)
             for v, a, c, d, e, f6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = fun(t + h, y_new)
    err = 0.0
    for v, y1, a, c, d, e, f6, g7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        r = ((E1 * a + E3 * c + E4 * d + E5 * e + E6 * f6 + E7 * g7) * h
             / (atol + max(abs(v), abs(y1)) * rtol))
        err += r * r
    return (k1, k2, k3, k4, k5, k6, k7), y_new, err


def textbook_coefficients(stages):
    P1, _, P3, P4, P5, P6, P7 = ode.P
    return [(P1[0] * a + P3[0] * c + P4[0] * d + P5[0] * e + P6[0] * f + P7[0] * g,
             P1[1] * a + P3[1] * c + P4[1] * d + P5[1] * e + P6[1] * f + P7[1] * g,
             P1[2] * a + P3[2] * c + P4[2] * d + P5[2] * e + P6[2] * f + P7[2] * g)
            for a, _, c, d, e, f, g in zip(*stages)]


def textbook_interpolate(t, t_old, h, y_old, k1, q):
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    return [y + h * (a * x + q2 * x2 + q3 * x3 + q4 * x4)
            for y, a, (q2, q3, q4) in zip(y_old, k1, q)]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 13])
def test_generated_code_equals_the_textbook_loops(n):
    rng = np.random.default_rng(n)
    weights = rng.uniform(-3.0, 3.0, (n, n)).tolist()

    def fun(t, y):  # nonlinear and coupled, so every stage differs
        return [math.sin(t + w[i]) - sum(a * b for a, b in zip(w, y)) * y[i]
                for i, w in enumerate(weights)]

    dp5 = ode._dp5(n)
    for _ in range(20):
        t, h = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-6.0, 0.0)
        y = rng.uniform(-2.0, 2.0, n).tolist()
        atol, rtol = 10.0 ** rng.uniform(-12.0, -6.0), 10.0 ** rng.uniform(-10.0, -3.0)
        k1 = fun(t, y)
        stages, y_new, err = dp5.step(fun, t, h, y, k1, atol, rtol)
        assert (stages, y_new, err) == textbook_step(fun, t, h, y, k1, atol, rtol)
        q = dp5.coefficients(stages)
        expected = textbook_coefficients(stages)
        assert [tuple(q[3 * i:3 * i + 3]) for i in range(n)] == expected
        for x in rng.uniform(0.0, 1.0, 5):
            s = t + x * h
            assert (dp5.interpolate(t, h, y, k1, q, s)
                    == textbook_interpolate(s, t, h, y, k1, expected))


def test_generated_code_shows_its_lines_in_a_traceback():
    def fun(t, y):
        if t > 0.5:
            raise RuntimeError("stage failed")
        return [-v for v in y]

    with pytest.raises(RuntimeError) as info:
        solve_ivp(fun, (0.0, 1.0), [1.0, 2.0, 3.0], 1e-3, 1e-6)
    frames = [f for f in traceback.extract_tb(info.tb)
              if f.filename == "<triped.ode dp5 n=3>"]
    assert frames and frames[0].name == "step"
    assert "fun(t +" in frames[0].line
    assert linecache.getline(frames[0].filename, 1).startswith("def step(")


@pytest.mark.parametrize("rates, returned", [([-1.0, 0.0, 5.0], 3),
                                             ([-1.0], 1)])
def test_a_right_hand_side_of_the_wrong_length_is_refused(rates, returned):
    def fun(t, y):
        return [r * y[0] for r in rates]

    with pytest.raises(ValueError, match=f"{returned} values for a state of 2"):
        solve_ivp(fun, (0.0, 1.0), [1.0, 2.0])


def test_a_later_stage_of_the_wrong_length_is_refused():
    def fun(t, y):
        return [-y[0], -y[1]] if t == 0.0 else [-y[0]]

    with pytest.raises(ValueError, match="not enough values to unpack"):
        solve_ivp(fun, (0.0, 1.0), [1.0, 2.0])


@pytest.mark.parametrize("max_nfev", [2, 7, 8, 500, 501])
def test_evaluation_budget_stops_the_integration(max_nfev):
    calls = []

    def fun(t, y):
        calls.append(t)
        return [y[1], -1e4 * y[0]]   # stiff enough to need many steps

    ours = solve_ivp(fun, (0.0, 10.0), [1.0, 0.0], 1e-9, 1e-12,
                     max_nfev=max_nfev)
    assert ours.status == -1
    assert ours.message == NFEV_BUDGET_SPENT
    assert ours.event is None
    assert ours.nfev == len(calls) <= max_nfev
    assert ours.nfev > max_nfev - 6
    assert ours.nfev == 2 + 6 * (ours.n_accepted + ours.n_rejected)
    assert ours.t[-1] < 10.0 and len(ours.t) == ours.n_accepted + 1


def test_a_budget_that_suffices_changes_nothing():
    unbounded = solve_ivp(oscillator, (0.0, 5.0), [0.0, 1.0], 1e-9, 1e-12)
    bounded = solve_ivp(oscillator, (0.0, 5.0), [0.0, 1.0], 1e-9, 1e-12,
                        max_nfev=unbounded.nfev)
    assert bounded.status == unbounded.status == 0
    np.testing.assert_array_equal(bounded.t, unbounded.t)
    np.testing.assert_array_equal(bounded.y_end, unbounded.y_end)
    assert bounded.nfev == unbounded.nfev


@pytest.mark.parametrize("max_nfev", [1, 0, -5, math.nan])
def test_a_budget_below_the_start_is_refused(max_nfev):
    with pytest.raises(ValueError, match="max_nfev"):
        solve_ivp(oscillator, (0.0, 1.0), [0.0, 1.0], max_nfev=max_nfev)


def test_an_empty_state_is_refused():
    with pytest.raises(ValueError, match="at least one value"):
        solve_ivp(lambda t, y: [], (0.0, 1.0), [])


def test_spent_swing_budget_ends_the_gait_as_a_record(monkeypatch):
    monkeypatch.setattr(simulate, "MAX_NFEV_PER_SWING", 500)
    real = simulate.closed_loop
    calls = []

    def counted(cfg):
        kernel = real(cfg)

        def rhs(t, y, outputs=False):
            calls.append(t)
            return kernel(t, y, outputs)
        return rhs

    monkeypatch.setattr(simulate, "closed_loop", counted)
    summary = T.run_gait(T.SimConfig())
    assert len(summary.records) == 1 and summary.records[0].aborted
    assert summary.abort_reason.startswith(
        "SolverBudgetError: swing integration spent its 500 right-hand side")
    assert len(calls) <= 500
