"""Acceptance suite: the behavioral guarantees this package is built to.

Each test pins one end-to-end guarantee with explicit tolerances:

1.  The reference gait on the 25-degree slope settles into a periodic walk
    (steady step time 0.56 +/- 0.05 s) fast enough for desk-scale studies.
    Its posture distance at impact settles on the error floor that the
    linearized closed loop predicts: each impact kicks the output rates by
    about (0.87, 2.39) rad/s, and the kick decays through the slow pole
    -kp/kd ~ -1.2 1/s over a 0.53 s step.  At the published gains that
    floor is 2.742e-3 (the simulator settles at 2.757e-3), above the
    delta = 1.5e-3 neighborhood; with kp = 3800 it falls to about 1.47e-3
    and every step after the first stays within delta.
2.  The static-stability bound evaluates to the handbook value 26.7 deg.
3.  Walking survives +/-50% plant-mass errors with a contracting stride map.
4.  Walking survives controller-incline mismatch across 20..26 deg.
5.  The same machinery walks downhill (declining slope, vertical torso),
    including under +/-50% mass errors.
6.  The model certifies against an independent symbolic derivation at a
    thousand random states, to pinned per-structure tolerances.
7.  Integral action strictly improves steady-state posture accuracy under a
    5-degree incline mismatch.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import triped as T
from triped.analysis import (STEP_TIME_CONVERGENCE_RANGE, contraction_ratio,
                             stride_distances)
from triped.reduced import OUTPUT_MAP, reduced_inertias, to_reduced

from triped_helpers import downhill_config, scaled_masses, transient_config

#: Steady step-time window of the reference gait.
STEP_TIME, STEP_TIME_TOL = 0.56, 0.05
#: Wall-clock budget for the 20-step reference run (desk scale).
WALL_BUDGET_S = 10.0
#: Relative agreement required between the simulated posture-distance floor
#: and the linear prediction (measured gap at the published gains: 0.55%).
FLOOR_REL_TOL = 0.02


@pytest.fixture(scope="module")
def reference_run():
    cfg = T.SimConfig()  # 20 steps on the 25-degree slope, nominal gains
    t0 = time.perf_counter()
    summary = T.run_gait(cfg)
    wall = time.perf_counter() - t0
    return summary, wall


def settled(step_times) -> bool:
    return (len(step_times) >= 5
            and float(np.ptp(step_times[-5:])) < STEP_TIME_CONVERGENCE_RANGE)


def predicted_posture_floor(summary: T.GaitSummary) -> float:
    """Posture distance at impact predicted by the linearized closed loop.

    With a matched model, each output channel obeys
    ``e'' + kd e' + kp e + ki int(e) = 0`` during the swing (the connection
    terms are negligible against the gains).  The impact leaves the output
    angles unchanged but kicks their rates by a fixed amount.  Each step is
    therefore the linear map ``x -> Phi @ (x + kick)`` on the channel state
    ``(int(e), e, e')`` with ``Phi = expm(A T)``, whose fixed point is the
    periodic pre-impact error.  The kick is read off ``reset_map`` at the
    settled pre-impact state and ``T`` is the settled step time; the result
    is combined like :func:`triped.zeta_distance` (metric gradient
    ``e / I_e`` and rate ``e'``).
    """
    cfg = summary.config
    ctrl = cfg.controller
    g = ctrl.gains
    x_pre = summary.records[-1].x_pre_impact
    q, dq = x_pre[:3], x_pre[3:]
    res = T.reset_map(q, dq, cfg.plant)
    kicks = OUTPUT_MAP @ (res.dq_plus - dq)
    i_e = np.diag(reduced_inertias(to_reduced(q, dq, ctrl.targets),
                                   ctrl.model)[0])
    a = np.array([[0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [-g.ki, -g.kp, -g.kd]])
    phi = expm(a * summary.step_times[-1])
    total = 0.0
    for kick, inertia in zip(kicks, i_e):
        _, e, de = np.linalg.solve(np.eye(3) - phi, phi @ [0.0, 0.0, kick])
        total += (e / inertia) ** 2 + de ** 2
    return math.sqrt(total)


def test_reference_gait_reaches_a_periodic_walk_quickly(reference_run):
    summary, wall = reference_run
    cfg = summary.config

    # The start state lies on the zero-error manifold with the reference
    # stance rate, i.e. exactly inside the delta-neighborhood.
    x0 = np.asarray(cfg.initial_state)
    assert x0[3] == pytest.approx(1.168)
    assert T.zeta_distance(x0[:3], x0[3:], cfg.controller.model,
                           cfg.controller.targets) <= cfg.delta

    assert not summary.aborted
    assert summary.completed_steps == 20
    assert wall < WALL_BUDGET_S
    assert settled(summary.step_times)
    steady = float(np.mean(summary.step_times[-5:]))
    assert abs(steady - STEP_TIME) < STEP_TIME_TOL


def test_reference_gait_holds_the_posture_distance_bound(reference_run):
    # At the published gains the delta-recurrence is set by the impact
    # kick and the slow pole, not by delta: the floor must match the
    # linear prediction.
    summary, _ = reference_run
    z = summary.z_deltas
    worst = float(np.max(z[1:]))
    predicted = predicted_posture_floor(summary)
    assert worst == pytest.approx(predicted, rel=FLOOR_REL_TOL), (
        f"posture distance settles at {worst:.4e}, the linearized closed "
        f"loop predicts {predicted:.4e}")
    flags = [r.within_delta for r in summary.records]
    assert flags == [bool(v <= summary.config.delta) for v in z]


def test_posture_distance_stays_within_delta_at_the_documented_gain():
    # Raising kp to 3800 speeds the slow pole enough that every impact
    # after the first lands within delta of the zero-dynamics manifold.
    base = T.SimConfig()
    gains = replace(base.controller.gains, kp=3800.0)
    cfg = replace(base, controller=replace(base.controller, gains=gains))
    summary = T.run_gait(cfg)
    assert not summary.aborted
    assert summary.completed_steps == cfg.n_steps
    worst = float(np.max(summary.z_deltas[1:]))
    assert worst <= cfg.delta, (
        f"posture distance reaches {worst:.4e}, above delta = {cfg.delta:.1e}")
    assert all(r.within_delta for r in summary.records[1:])


def test_static_stability_bound_matches_handbook_value():
    lam_max = T.max_static_incline(T.RobotParams())
    assert abs(math.degrees(lam_max) - 26.7) < 0.1


@pytest.mark.parametrize("scales", [
    pytest.param((1.5, 1.5, 1.5), id="all+50%"),
    pytest.param((0.5, 0.5, 0.5), id="all-50%"),
    pytest.param((1.5, 0.5, 1.25), id="mixed"),
])
def test_gait_survives_large_mass_errors(scales):
    cfg = transient_config(plant=scaled_masses(*scales))
    summary = T.run_gait(cfg)
    assert not summary.aborted
    assert summary.completed_steps == 30
    rho = contraction_ratio(stride_distances(summary))
    assert rho < 1.0


@pytest.mark.parametrize("true_incline_deg", [20.0, 22.0, 24.0, 26.0])
def test_gait_survives_incline_mismatch(true_incline_deg):
    # Controller stays fixed at its assumed 25 degrees.
    cfg = transient_config(incline_true=math.radians(true_incline_deg))
    assert cfg.controller.incline_assumed == pytest.approx(math.radians(25.0))
    summary = T.run_gait(cfg)
    assert not summary.aborted
    assert summary.completed_steps == 30
    assert settled(summary.step_times)


@pytest.mark.parametrize("scales", [
    pytest.param(None, id="nominal"),
    pytest.param((1.5, 1.5, 1.5), id="all+50%"),
    pytest.param((0.5, 0.5, 0.5), id="all-50%"),
])
def test_downhill_walk(scales):
    cfg = downhill_config()
    if scales is not None:
        cfg = replace(cfg, plant=scaled_masses(*scales))
    summary = T.run_gait(cfg)
    assert not summary.aborted
    assert summary.completed_steps == 30
    assert settled(summary.step_times)


def test_model_certification_battery():
    report = T.run_certification(n_states=1000, seed=0)
    assert report.ok, report.as_text()
    pinned = {
        "swing terms": 1e-8,
        "energy drift": 1e-8,
        "reduced-vs-full": 1e-6,
        "impact": 1e-8,
        "closed-loop": 1e-6,
        "norm transport": 1e-6,
        "skew": 1e-8,
    }
    for fragment, tolerance in pinned.items():
        matches = [c for c in report.checks if fragment in c.name]
        assert matches, f"no battery check named like {fragment!r}"
        for check in matches:
            assert check.max_residual <= tolerance, (
                f"{check.name}: {check.max_residual:.3e} > {tolerance:.1e}")


def test_integral_action_improves_steady_accuracy_under_mismatch():
    # 5-degree mismatch: the plant walks a 25-degree slope while the
    # controller believes 20 degrees.  Compare the settled posture distance
    # after 40 steps with and without the integral term.
    def steady_distance(ki: float) -> float:
        base = T.SimConfig()
        controller = replace(base.controller,
                             gains=T.ControllerGains(ki=ki),
                             incline_assumed=math.radians(20.0))
        cfg = replace(base, incline_true=math.radians(25.0),
                      controller=controller, n_steps=40)
        summary = T.run_gait(cfg)
        assert not summary.aborted
        assert summary.completed_steps == 40
        return float(summary.z_deltas[-1])

    with_integral = steady_distance(120.0)
    without_integral = steady_distance(0.0)
    assert without_integral > with_integral, (
        f"integral action should tighten the steady posture distance: "
        f"ki=120 gives {with_integral:.6e}, ki=0 gives {without_integral:.6e}")
