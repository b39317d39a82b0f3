"""Periodic-orbit search, contraction estimate, and sweep harness."""

import math
from dataclasses import replace

import numpy as np
import pytest

import triped as T
from triped import simulate
from triped.analysis import (contraction_ratio, find_periodic_orbit,
                             run_sweep, summarize_gait)


def test_contraction_ratio_median_of_successive_ratios():
    assert contraction_ratio([1.0, 0.5, 0.25]) == pytest.approx(0.5)
    assert contraction_ratio([8.0, 4.0, 1.0]) == pytest.approx(0.375)
    assert math.isnan(contraction_ratio([]))
    assert math.isnan(contraction_ratio([1.0]))
    # Denominators at the floor carry no information.
    assert math.isnan(contraction_ratio([0.0, 0.0, 0.0]))


def test_orbit_search_accepts_after_one_stride_with_loose_tolerance():
    orbit = find_periodic_orbit(T.SimConfig(), tol=10.0, max_iters=3)
    assert orbit.iterations == 1
    assert orbit.x_star.shape == (6,)
    assert orbit.step_time > 0.3
    assert math.isnan(orbit.rho_hat)  # one distance: nothing to certify


def test_orbit_search_raises_when_budget_is_exhausted():
    with pytest.raises(T.NoConvergenceError):
        find_periodic_orbit(T.SimConfig(), tol=1e-30, max_iters=2)


@pytest.mark.parametrize("max_iters", [0, -1])
def test_orbit_search_needs_at_least_one_stride(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        find_periodic_orbit(T.SimConfig(), max_iters=max_iters)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_orbit_search_needs_a_positive_finite_tolerance(tol, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("iterated with an invalid tolerance")

    monkeypatch.setattr(simulate, "step", no_step)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        find_periodic_orbit(T.SimConfig(), tol=tol)


@pytest.mark.parametrize("x_guess", [
    T.nominal_initial_state()[:5],
    T.nominal_initial_state() + (0.0,),
    T.nominal_initial_state()[:5] + (math.nan,),
], ids=["five-values", "seven-values", "nan"])
def test_orbit_search_rejects_an_invalid_start(x_guess):
    with pytest.raises(T.ConfigValidationError) as err:
        find_periodic_orbit(replace(T.SimConfig(), initial_state=x_guess))
    assert err.value.keys == ["initial_state"]


def test_orbit_search_recovers_from_a_perturbed_start():
    x_guess = np.array(T.nominal_initial_state()) + np.array(
        [0.03, -0.02, 0.04, 0.10, -0.10, 0.05])
    cfg = replace(T.SimConfig(), initial_state=tuple(map(float, x_guess)))
    orbit = find_periodic_orbit(cfg, tol=1e-3)
    assert orbit.rho_hat < 1.0
    assert orbit.iterations >= 5
    assert orbit.distances[-1] < orbit.distances[0] / 10.0
    # Loose tolerance: the search is stopped by the 1e-3 state tolerance
    # well before the orbit statistics settle to their final digits.
    assert orbit.step_time == pytest.approx(0.5303, abs=1e-2)
    np.testing.assert_allclose(
        orbit.x_star[:3],
        [math.radians(15.0), -0.2597, 1.8328], atol=1e-2)
    # The stance-leg coordinate sits exactly on the switching surface.
    assert orbit.x_star[0] == pytest.approx(math.radians(15.0), abs=1e-10)


def test_orbit_search_propagates_gait_failures():
    cfg = replace(T.SimConfig(), max_step_time=0.05)
    with pytest.raises(T.GaitAbortError,
                       match="stride-map iterate 0: StepTimeoutError: "):
        find_periodic_orbit(cfg)


def test_orbit_is_the_gaits_state_after_as_many_strides():
    cfg = T.SimConfig()
    orbit = find_periodic_orbit(cfg)
    gait = T.run_gait(replace(cfg, n_steps=orbit.iterations))
    assert gait.completed_steps == orbit.iterations
    assert np.array_equal(orbit.x_star, gait.records[-1].x_pre_impact)
    assert np.array_equal(orbit.omega_I_star,
                          gait.trajectories[-1].omega_I[-1])
    assert orbit.step_time == gait.records[-1].step_time


def test_gait_and_orbit_search_step_once_per_stride(monkeypatch):
    # The benchmark meters operations by wrapping simulate.step.
    calls = []
    real_step = simulate.step

    def counted(*args, **kwargs):
        calls.append(kwargs["step_index"])
        return real_step(*args, **kwargs)

    monkeypatch.setattr(simulate, "step", counted)
    T.run_gait(replace(T.SimConfig(), n_steps=3))
    assert calls == [0, 1, 2]
    calls.clear()
    with pytest.raises(T.NoConvergenceError):
        find_periodic_orbit(T.SimConfig(), tol=1e-30, max_iters=2)
    assert calls == [0, 1]
    calls.clear()
    T.run_gait(replace(T.SimConfig(), n_steps=3, max_step_time=0.05))
    assert calls == [0]


def test_summarize_gait_flags_convergence(nominal_eight_steps):
    row = summarize_gait(nominal_eight_steps, index=4, axis="torso_mass",
                         value=3.3)
    assert row.index == 4 and row.axis == "torso_mass" and row.value == 3.3
    assert row.converged
    assert not row.aborted
    assert row.completed_steps == 8
    assert row.rho_hat < 1.0
    assert row.step_time == pytest.approx(0.5337, abs=2e-3)
    assert row.worst_z_delta > 0.0


def test_summarize_gait_flags_aborts():
    summary = T.run_gait(replace(T.SimConfig(), n_steps=2,
                                 max_step_time=0.05))
    row = summarize_gait(summary)
    assert row.aborted and not row.converged
    assert "StepTimeoutError" in row.abort_reason


def test_sweep_rows_are_deterministic_and_order_independent():
    # Three steps per sample so every row statistic (including the
    # contraction ratio) is a finite, exactly comparable number.
    spec = T.SweepSpec(axis="all_masses", rel_range=(-0.2, 0.2), n_samples=3,
                       base=replace(T.SimConfig(), n_steps=3))
    serial = run_sweep(spec, max_workers=1)
    assert [s.index for s in serial] == [0, 1, 2]
    assert all(not s.aborted for s in serial)
    # The worker count does not change the rows.
    assert run_sweep(spec, max_workers=2) == serial
    assert run_sweep(spec, max_workers=3) == serial
    # For the joint-mass axis the swept value is the common scale factor.
    np.testing.assert_allclose([s.value for s in serial], [0.8, 1.0, 1.2])


def test_sweep_treats_sample_aborts_as_data():
    spec = T.SweepSpec(axis="incline_true", rel_range=(0.0, 0.0), n_samples=2,
                       base=replace(T.SimConfig(), n_steps=1,
                                    max_step_time=0.05))
    rows = run_sweep(spec)
    assert len(rows) == 2
    assert all(r.aborted for r in rows)
    assert rows[0].abort_reason == rows[1].abort_reason


def test_sweep_axis_values_scale_the_base_parameter():
    spec = T.SweepSpec(axis="leg_length", rel_range=(-0.5, 0.5), n_samples=3,
                       base=T.SimConfig())
    np.testing.assert_allclose(spec.sample_values(), [0.5, 1.0, 1.5])
    bumped = spec.sample_config(2)
    assert bumped.plant.leg_length == pytest.approx(1.5)
    # The controller's model is never perturbed by a plant sweep.
    assert bumped.controller.model.leg_length == pytest.approx(1.0)
