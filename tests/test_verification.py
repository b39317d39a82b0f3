"""Self-check battery: the package must certify its own dynamics."""

from dataclasses import replace

import numpy as np
import pytest

import triped as T
from triped import reduced, verification
from triped.reduced import input_matrix_e, to_reduced
from triped.verification import (CheckResult, run_certification, stack_params,
                                 transcription_report)


@pytest.fixture(scope="module")
def report():
    return run_certification(n_states=40, seed=2)


def test_battery_passes_wholesale(report):
    assert report.ok
    assert all(check.passed for check in report.checks)


def test_battery_covers_every_certified_structure(report):
    names = " ".join(check.name for check in report.checks)
    for topic in ("swing", "energy", "reduced", "impact", "closed-loop",
                  "integrator", "skew"):
        assert topic in names, f"no check covers {topic!r}"


def test_residuals_are_well_below_tolerances(report):
    for check in report.checks:
        assert check.max_residual < check.tolerance * 0.1, check.name


def test_report_text_is_informative(report):
    text = report.as_text()
    assert "overall: PASS" in text
    assert text.count("[PASS]") == len(report.checks)


def test_check_result_pass_logic():
    good = CheckResult(name="x", max_residual=1e-9, tolerance=1e-6)
    bad = CheckResult(name="x", max_residual=1e-3, tolerance=1e-6)
    assert good.passed and not bad.passed
    failing = type(run_certification(n_states=2, seed=0))(checks=(good, bad))
    assert not failing.ok
    assert "[FAIL]" in failing.as_text()


@pytest.mark.parametrize("n_states", [0, -1])
def test_battery_refuses_to_certify_without_states(n_states):
    for battery in (run_certification, transcription_report):
        with pytest.raises(ValueError, match="n_states must be >= 1"):
            battery(n_states=n_states)


def test_transcription_report_flags_the_documented_force_defects():
    report = T.transcription_report(n_states=40, seed=5)
    assert set(report.faithful_terms) == {"input matrix (output)",
                                          "input matrix (zero)"}
    assert len(report.corrupted_terms) == 4
    for term in report.corrupted_terms:
        assert report.residuals[term] > 1e-2
    for term in report.faithful_terms:
        assert report.residuals[term] < 1e-6
    text = report.as_text()
    assert "TRANSCRIPTION ERROR" in text
    assert "matches" in text


# --------------------------------------------------------------------------
# A NaN at one state of a batch, and the states a check skips
# --------------------------------------------------------------------------

def nan_at(fn, index=3):
    """``fn`` with its result NaN at batch entry ``index``."""
    def patched(*args, **kwargs):
        result = np.array(fn(*args, **kwargs), dtype=float)
        result[index] = np.nan
        return result
    return patched


@pytest.mark.parametrize("check, module, name", [
    ("certify_swing_terms", verification, "coriolis_matrix"),
    ("certify_reduced_consistency", reduced, "swing_accel"),
    ("certify_impact", verification, "angular_momentum_about"),
    ("certify_closed_loop", verification, "swing_accel"),
    ("certify_skew", verification, "quadratic_bracket"),
])
def test_a_nan_at_one_state_fails_the_check(monkeypatch, check, module, name):
    monkeypatch.setattr(module, name, nan_at(getattr(module, name)))
    result = getattr(verification, check)(n_states=20)
    assert np.isnan(result.max_residual)
    assert not result.passed


def test_a_nan_at_one_state_flags_the_transcription_term(monkeypatch):
    pushforward = verification.pushforward_input_matrix

    def nan_in_b_e(rs, p):
        b_e, b_z = pushforward(rs, p)
        return nan_at(lambda: b_e)(), b_z

    monkeypatch.setattr(verification, "pushforward_input_matrix", nan_in_b_e)
    report = transcription_report(n_states=20)
    assert np.isnan(report.residuals["input matrix (output)"])
    assert "input matrix (output)" in report.corrupted_terms
    assert report.faithful_terms == ["input matrix (zero)"]
    assert "input matrix (output)  max |residual|        nan  TRANSCRIPTION ERROR" \
        in report.as_text()


def test_impact_check_skips_exactly_the_degenerate_state(monkeypatch):
    """A robot a million times too heavy makes the contact operator's
    determinant fall below the floor at state 3 of 20."""
    robot = verification._robot

    def heavy_at_three(rng, index):
        p = robot(rng, index)
        return p.scaled_masses(1e7) if index == 3 else p

    monkeypatch.setattr(verification, "_robot", heavy_at_three)
    result = verification.certify_impact(n_states=20)
    assert result.note == "19 states, 1 degenerate skipped"
    assert result.passed


def test_closed_loop_check_skips_exactly_the_singular_state(monkeypatch):
    """A ``det_floor`` a hair above the lowest ``|det B_e|`` among the
    check's states, drawn here in the check's order, skips that state."""
    rng = np.random.default_rng(3)
    drawn = [(rng.uniform(-1.0, 1.0, size=3) + [0.0, 0.0, np.pi / 2],
              rng.uniform(-3.0, 3.0, size=3), rng.uniform(-0.5, 0.5, size=2))
             for _ in range(20)]
    q, dq = np.array([s[0] for s in drawn]), np.array([s[1] for s in drawn])
    nominal = T.ControllerConfig()
    b_e, _ = input_matrix_e(to_reduced(q, dq, nominal.targets), nominal.model)
    det = np.abs(b_e[:, 0, 0] * b_e[:, 1, 1] - b_e[:, 0, 1] * b_e[:, 1, 0])
    lowest, second = np.sort(det)[:2]
    floor = lowest * (1.0 + 1e-9)
    assert floor < second
    monkeypatch.setattr(verification, "ControllerConfig",
                        lambda: replace(nominal, det_floor=floor))
    result = verification.certify_closed_loop(n_states=20)
    assert result.note == "19 states, 1 singular skipped"
    assert result.passed


def test_batch_errors_mark_the_bad_states_and_one_state_keeps_its_message():
    q = np.tile([0.2, -0.3, 1.6], (6, 1))
    heavy = T.RobotParams().scaled_masses(1e7)
    robots = stack_params([T.RobotParams()] * 3 + [heavy] + [T.RobotParams()] * 2)
    with pytest.raises(T.DegenerateContactError) as one:
        T.reset_map(q[3], np.ones(3), heavy)
    assert str(one.value) == "contact operator is singular at the impact configuration"
    assert one.value.bad.shape == () and one.value.bad
    with pytest.raises(T.DegenerateContactError) as many:
        T.reset_map(q, np.ones((6, 3)), robots)
    assert str(many.value) == (f"{one.value} (at 1 of 6 states, first at index 3)")
    assert many.value.bad.tolist() == [False, False, False, True, False, False]


def test_control_action_batch_error_names_its_first_singular_state():
    rng = np.random.default_rng(14)
    q = rng.uniform(-1.0, 1.0, (5, 3)) + [0.0, 0.0, np.pi / 2]
    dq = rng.uniform(-3.0, 3.0, (5, 3))
    cfg = T.ControllerConfig()
    dets = np.abs(T.control_action(q, dq, np.zeros(2), cfg).det_input)
    cfg = replace(cfg, det_floor=float(np.sort(dets)[1]))
    with pytest.raises(T.ActuationSingularityError) as many:
        T.control_action(q, dq, np.zeros(2), cfg)
    first = int(np.argmax(dets <= cfg.det_floor))
    with pytest.raises(T.ActuationSingularityError) as one:
        T.control_action(q[first], dq[first], np.zeros(2), cfg)
    assert str(one.value).startswith("torque allocation singular: |det B_e| = ")
    assert str(many.value) == f"{one.value} (at 2 of 5 states, first at index {first})"
    assert many.value.bad.tolist() == (dets <= cfg.det_floor).tolist()
