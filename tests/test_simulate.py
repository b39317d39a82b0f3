"""Hybrid gait simulation: events, determinism, records, failure modes."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triped as T
from triped import simulate
from triped.impact import reset_map
from triped.params import ERROR_WEIGHTINGS, INTEGRATOR_RESETS
from triped.simulate import step

from triped_helpers import transient_config


def test_steps_end_exactly_on_the_switching_surface(nominal_three_steps):
    cfg = nominal_three_steps.config
    for record in nominal_three_steps.records:
        x_pre = record.x_pre_impact
        assert x_pre[0] == pytest.approx(cfg.controller.targets.q1_switch,
                                         abs=1e-10)
        assert x_pre[3] > 0.0  # crossing in the forward direction


def test_impacts_compose_between_consecutive_records(nominal_three_steps):
    records = nominal_three_steps.records
    for prev, nxt in zip(records, records[1:]):
        res = reset_map(prev.x_pre_impact[:3], prev.x_pre_impact[3:],
                        nominal_three_steps.config.plant)
        np.testing.assert_allclose(nxt.x_post_impact[:3], res.q_plus,
                                   atol=1e-12)
        np.testing.assert_allclose(nxt.x_post_impact[3:], res.dq_plus,
                                   atol=1e-12)


def test_step_reads_its_record_off_the_trajectory_end():
    cfg = T.SimConfig()
    record, traj = step(np.array(T.nominal_initial_state()), np.zeros(2),
                        0.25, cfg, step_index=4)
    assert traj.step_index == record.step_index == 4
    assert traj.t[0] == record.t_start == 0.25
    assert record.t_end == traj.t[-1]
    assert np.array_equal(record.x_pre_impact,
                          np.concatenate([traj.q[-1], traj.dq[-1]]))
    assert record.z_delta_at_impact == traj.zdelta[-1]
    assert type(record.z_delta_at_impact) is float
    assert record.within_delta is (record.z_delta_at_impact <= cfg.delta)


SHAPES = r"x_pre of shape \(6,\) and omega_I of shape \(2,\)"


START = "t_start must be a finite int or double"


@pytest.mark.parametrize("x_pre, omega_I, t_start, error, match", [
    (T.nominal_initial_state()[:5], (0.0, 0.0), 0.0, ValueError, SHAPES),
    (T.nominal_initial_state() + (0.0,), (0.0, 0.0), 0.0, ValueError, SHAPES),
    (T.nominal_initial_state(), (0.0,), 0.0, ValueError, SHAPES),
    (T.nominal_initial_state(), (0.0, 0.0, 0.0), 0.0, ValueError, SHAPES),
    (T.nominal_initial_state()[:5] + (math.nan,), (0.0, 0.0), 0.0,
     T.NonFiniteStateError, "non-finite"),
    (T.nominal_initial_state(), (math.inf, 0.0), 0.0,
     T.NonFiniteStateError, "non-finite"),
    (T.nominal_initial_state(), (0.0, 0.0), math.nan, ValueError, START),
    (T.nominal_initial_state(), (0.0, 0.0), math.inf, ValueError, START),
    (T.nominal_initial_state(), (0.0, 0.0), -math.inf, ValueError, START),
    (T.nominal_initial_state(), (0.0, 0.0), np.float32(0.0), ValueError, START),
], ids=["five-values", "seven-values", "one-integrator", "three-integrator",
        "nan-state", "inf-integrator", "nan-start", "inf-start",
        "minus-inf-start", "float32-start"])
def test_step_checks_its_arguments(x_pre, omega_I, t_start, error, match):
    with pytest.raises(error, match=match):
        step(np.array(x_pre), np.array(omega_I), t_start, T.SimConfig())


def test_gait_carries_each_trajectory_end_into_the_next_step():
    cfg = replace(T.SimConfig(), n_steps=2)
    summary = T.run_gait(cfg)
    first = summary.records[0]
    second, _ = step(first.x_pre_impact,
                     summary.trajectories[0].omega_I[-1], first.t_end, cfg,
                     step_index=1)
    assert summary.records[1].t_end == second.t_end
    assert np.array_equal(summary.records[1].x_pre_impact,
                          second.x_pre_impact)


def test_records_carry_consistent_diagnostics(nominal_three_steps):
    cfg = nominal_three_steps.config
    for record in nominal_three_steps.records:
        assert record.step_time > 0.3
        assert record.z_delta_at_impact == T.zeta_distance(
            record.x_pre_impact[:3], record.x_pre_impact[3:],
            cfg.controller.model, cfg.controller.targets)
        assert record.within_delta == (record.z_delta_at_impact <= cfg.delta)
        assert record.min_abs_det_input > cfg.controller.det_floor
        assert record.liftoff_normal_velocity > 0.0
        assert record.impact_energy_loss > 0.0
        assert not record.scuffed
        assert not record.aborted
        # Two evaluations start RK45, then six per attempted step (FSAL).
        assert record.n_accepted > 0
        assert record.nfev == 2 + 6 * (record.n_accepted + record.n_rejected)
        # The reference gait only grazes the surface at the very end of the
        # swing; any real dip would be a scuff.
        assert -2e-3 < record.min_foot_clearance <= 0.0


def test_each_sample_distance_is_zeta_distance(nominal_eight_steps):
    ctrl = nominal_eight_steps.config.controller
    for traj in nominal_eight_steps.trajectories:
        assert np.array_equal(traj.zdelta, T.zeta_distance(
            traj.q, traj.dq, ctrl.model, ctrl.targets))


def test_sampling_a_swing_holds_little_more_than_it_keeps():
    # A one-step gait on a fine grid (about 5,400 samples): its traced peak
    # against the bytes its summary keeps.  Sampling holds each state once
    # as doubles, not a swing of Python lists (about 4x what it keeps).
    cfg = replace(T.SimConfig(), n_steps=1, sample_dt=1e-4, max_step_time=1.0)
    T.run_gait(cfg)  # untraced: what a first run builds once per process
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = T.run_gait(cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.completed_steps == 1
    assert peak - before < 3 * (kept - before)


def test_trajectories_are_regular_samplings(nominal_three_steps):
    cfg = nominal_three_steps.config
    for traj, record in zip(nominal_three_steps.trajectories,
                            nominal_three_steps.records):
        assert traj.t[0] == pytest.approx(record.t_start, abs=1e-12)
        assert traj.t[-1] == pytest.approx(record.t_end, abs=1e-12)
        assert np.all(np.diff(traj.t) > 0)
        assert np.max(np.diff(traj.t)) <= cfg.sample_dt + 1e-9
        for name in ("q", "dq"):
            assert getattr(traj, name).shape == (len(traj.t), 3)
        for name in ("u", "eta", "omega_I"):
            assert getattr(traj, name).shape == (len(traj.t), 2)
        assert np.all(np.isfinite(traj.u))
        assert np.all(traj.zdelta >= 0)
        assert np.all(np.abs(traj.det_input) > cfg.controller.det_floor)


def test_simulation_is_deterministic():
    cfg = replace(T.SimConfig(), n_steps=3)
    a, b = T.run_gait(cfg), T.run_gait(cfg)
    assert np.array_equal(
        np.concatenate([t.t for t in a.trajectories]),
        np.concatenate([t.t for t in b.trajectories]))
    assert np.array_equal(
        np.vstack([t.q for t in a.trajectories]),
        np.vstack([t.q for t in b.trajectories]))
    assert np.array_equal(
        np.vstack([t.u for t in a.trajectories]),
        np.vstack([t.u for t in b.trajectories]))
    for ra, rb in zip(a.records, b.records):
        assert ra.t_end == rb.t_end
        assert ((ra.nfev, ra.n_accepted, ra.n_rejected)
                == (rb.nfev, rb.n_accepted, rb.n_rejected))


def test_event_time_is_insensitive_to_integrator_tolerance():
    tight = replace(T.SimConfig(), n_steps=2, rel_tol=5e-10)
    loose = replace(T.SimConfig(), n_steps=2)
    t_tight = T.run_gait(tight).records[1].t_end
    t_loose = T.run_gait(loose).records[1].t_end
    assert abs(t_tight - t_loose) < 1e-8


def test_gait_summary_properties(nominal_eight_steps):
    s = nominal_eight_steps
    assert not s.aborted
    assert s.completed_steps == 8
    assert len(s.step_times) == 8
    assert len(s.z_deltas) == 8
    # Step times settle monotonically toward the periodic gait.
    assert np.all(np.diff(s.step_times) < 0)
    assert s.step_times[-1] == pytest.approx(0.5337, abs=2e-3)


def test_timeout_aborts_cleanly_without_raising():
    cfg = replace(T.SimConfig(), n_steps=2, max_step_time=0.05)
    summary = T.run_gait(cfg)
    assert summary.aborted
    assert "StepTimeoutError" in summary.abort_reason
    assert summary.completed_steps == 0
    assert summary.records[-1].aborted
    assert summary.records[-1].within_delta is None
    assert summary.records[-1].nfev is None
    assert summary.records[-1].n_accepted is None
    assert summary.records[-1].n_rejected is None


def test_unreachable_switching_angle_ends_in_a_fall():
    cfg = replace(
        T.SimConfig(), n_steps=2,
        controller=replace(T.SimConfig().controller,
                           targets=T.GaitTargets(
                               q1_switch=math.radians(80.0),
                               q3_ref=math.radians(105.0))))
    summary = T.run_gait(cfg)
    assert summary.aborted
    assert "FellOverError" in summary.abort_reason


def test_a_start_that_has_already_fallen_is_a_fall_not_a_timeout():
    # The reset leaves this start's stance leg at -97 deg: past the fall
    # guard before the swing begins, so the fall event never crosses.
    cfg = replace(T.SimConfig(), n_steps=2,
                  initial_state=(0.26, -1.7, 1.8, 1.0, -1.0, 0.0))
    summary = T.run_gait(cfg)
    assert summary.completed_steps == 0
    assert summary.abort_reason == (
        "FellOverError: leg angle reached +/-90 deg at t = 0.0000 s")
    for q1, q2 in ((-simulate.FALL_GUARD, 0.1), (0.1, 1.7)):
        x0 = np.array([q1, q2, 1.8, 1.0, 1.0, 0.0, 0.0, 0.0])
        with pytest.raises(T.FellOverError, match=r"at t = 1\.2500 s$"):
            simulate.integrate_swing(x0, 1.25, cfg)


def test_an_event_off_the_surface_aborts_the_step(monkeypatch):
    real = simulate.solve_ivp

    def off_surface(*args, **kwargs):
        sol = real(*args, **kwargs)
        y_end = sol.y_end.copy()
        y_end[0] += 1e-9
        return replace(sol, y_end=y_end)

    monkeypatch.setattr(simulate, "solve_ivp", off_surface)
    cfg = replace(T.SimConfig(), n_steps=2)
    reason = r"event localization failed: surface residual 1\.0\d\de-09 rad"
    with pytest.raises(T.WalkerError, match=reason) as info:
        step(np.array(cfg.initial_state), np.zeros(2), 0.0, cfg)
    assert type(info.value) is T.WalkerError
    summary = T.run_gait(cfg)
    assert len(summary.records) == 1 and summary.records[0].aborted
    assert summary.completed_steps == 0
    assert re.fullmatch("WalkerError: " + reason, summary.abort_reason)


def test_crossing_at_start_yields_a_zero_length_step():
    # With the switching angle far behind the robot, the post-impact state
    # is already past the surface and moving forward: the step degenerates.
    cfg = replace(
        T.SimConfig(), n_steps=1,
        controller=replace(T.SimConfig().controller,
                           targets=T.GaitTargets(
                               q1_switch=math.radians(-60.0),
                               q3_ref=math.radians(105.0))))
    record, traj = step(np.array(T.nominal_initial_state()), np.zeros(2),
                        0.0, cfg)
    assert record.step_time == 0.0
    assert len(traj.t) == 1
    assert (record.nfev, record.n_accepted, record.n_rejected) == (0, 0, 0)
    res = reset_map(np.array(T.nominal_initial_state()[:3]),
                    np.array(T.nominal_initial_state()[3:]), cfg.plant)
    np.testing.assert_allclose(record.x_post_impact[:3], res.q_plus,
                               atol=1e-14)


def test_transient_gait_scuffs_and_recovers():
    summary = T.run_gait(transient_config(n_steps=2))
    assert not summary.aborted
    assert all(r.scuffed for r in summary.records)
    assert all(r.min_foot_clearance < -5e-3 for r in summary.records)


def test_strict_scuff_mode_aborts_on_penetration():
    summary = T.run_gait(transient_config(n_steps=2, strict_scuff=True))
    assert summary.aborted
    assert "GaitAbortError" in summary.abort_reason
    assert "scuff" in summary.abort_reason


def test_integrator_reset_policies_differ():
    carry = replace(T.SimConfig(), n_steps=3)
    zero = replace(carry, controller=replace(carry.controller,
                                             integrator_reset="zero"))
    t_carry = T.run_gait(carry).records[-1].t_end
    t_zero = T.run_gait(zero).records[-1].t_end
    assert t_carry != t_zero


def test_run_gait_accepts_explicit_initial_state():
    cfg = replace(T.SimConfig(), n_steps=1)
    default = T.run_gait(cfg)
    x0 = np.array(T.nominal_initial_state())
    explicit = T.run_gait(replace(cfg, initial_state=tuple(map(float, x0))))
    assert default.records[0].t_end == explicit.records[0].t_end


def test_a_perturbed_start_reruns_from_its_own_config():
    # The config is the run's only start: re-running the summary's config
    # reproduces the gait bit for bit, and the manifest names the start.
    cfg = replace(T.SimConfig(), n_steps=2)
    x0 = np.array(T.nominal_initial_state()) + np.array(
        [0.02, -0.02, 0.03, 0.1, -0.1, 0.0])
    summary = T.run_gait(replace(cfg, initial_state=tuple(map(float, x0))))
    again = T.run_gait(summary.config)
    assert summary.completed_steps == again.completed_steps == 2
    for a, b in zip(summary.records, again.records):
        assert a.t_end == b.t_end
        assert np.array_equal(a.x_pre_impact, b.x_pre_impact)
    for a, b in zip(summary.trajectories, again.trajectories):
        assert np.array_equal(a.q, b.q) and np.array_equal(a.u, b.u)
    assert summary.records[-1].t_end != T.run_gait(cfg).records[-1].t_end
    assert (T.make_manifest(summary.config).run_id
            != T.make_manifest(cfg).run_id)


def test_invalid_config_is_rejected_before_any_integration():
    cfg = replace(T.SimConfig(), n_steps=0)
    with pytest.raises(T.ConfigValidationError):
        T.run_gait(cfg)


@pytest.mark.parametrize("x0", [
    T.nominal_initial_state()[:5],
    T.nominal_initial_state() + (0.0,),
    T.nominal_initial_state()[:5] + (math.nan,),
    [T.nominal_initial_state()[:3], T.nominal_initial_state()[3:]],
], ids=["five-values", "seven-values", "nan", "two-rows"])
def test_invalid_start_state_is_rejected_before_any_integration(
        x0, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("integrated an invalid start")

    monkeypatch.setattr(T.simulate, "step", no_step)
    with pytest.raises(T.ConfigValidationError) as err:
        T.run_gait(replace(T.SimConfig(), n_steps=1, initial_state=x0))
    assert err.value.keys == ["initial_state"]


def decades(lo: float, hi: float):
    """Floats spread evenly over the decades from 10**lo to 10**hi."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


slopes = st.floats(-85.0, 85.0).map(math.radians)
gains = decades(-2.0, 8.0)


@st.composite
def robots(draw):
    return T.RobotParams(
        leg_mass=draw(decades(-2.0, 2.0)), hip_mass=draw(decades(-2.0, 2.0)),
        torso_mass=draw(decades(-2.0, 2.0)), leg_length=draw(decades(-2.0, 1.0)),
        torso_length=draw(decades(-2.0, 1.0)))


@st.composite
def sim_configs(draw):
    """Valid two-step configs: masses and lengths over decades, slopes up
    to 85 deg either way, gains up to 1e8, the controller's model the plant
    or a robot of its own, any gait targets and start."""
    plant = draw(robots())
    angle = st.floats(-math.pi, math.pi)
    controller = T.ControllerConfig(
        gains=T.ControllerGains(kp=draw(gains), kd=draw(gains),
                                ki=draw(st.just(0.0) | gains)),
        model=draw(st.just(plant) | robots()),
        incline_assumed=draw(slopes),
        targets=draw(st.just(T.GaitTargets()) | st.builds(
            T.GaitTargets, q1_switch=st.floats(-1.5, 1.5), q3_ref=angle)),
        error_weighting=draw(st.sampled_from(ERROR_WEIGHTINGS)),
        integrator_reset=draw(st.sampled_from(INTEGRATOR_RESETS)))
    start = draw(st.just(T.nominal_initial_state()) | st.tuples(
        angle, angle, angle, *[st.floats(-20.0, 20.0)] * 3))
    cfg = T.SimConfig(plant=plant, incline_true=draw(slopes),
                      controller=controller, initial_state=start, n_steps=2,
                      strict_scuff=draw(st.booleans()))
    cfg.validate()
    return cfg


@settings(max_examples=40, deadline=None)
@given(cfg=sim_configs())
def test_every_valid_gait_returns_its_records(cfg):
    """Whatever a valid config asks, ``run_gait`` ends: a failure is the last
    record's abort, never an exception or an endless swing."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "MAX_NFEV_PER_SWING", 20_000)
        summary = T.run_gait(cfg)
    assert 1 <= len(summary.records) <= cfg.n_steps
    assert not any(r.aborted for r in summary.records[:-1])
    if summary.records[-1].aborted:
        assert summary.abort_reason
    else:
        assert len(summary.records) == cfg.n_steps
