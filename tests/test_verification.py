"""Self-check battery: the package must certify its own dynamics."""

import contextlib
import errno
import os
import signal
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

import triped as T
from triped import reduced, verification
from triped.reduced import input_matrix_e, to_reduced
from triped.verification import (CertificationReport, CheckResult,
                                 run_certification, transcription_report)

from triped_helpers import stack_params


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
    failing = CertificationReport(checks=[good, bad])
    assert not failing.ok
    assert "[FAIL]" in failing.as_text()


@pytest.mark.parametrize("n_states", [0, -1])
def test_battery_refuses_to_certify_without_states(n_states):
    for battery in (run_certification, transcription_report,
                    verification.certify_swing_terms,
                    verification.certify_reduced_consistency,
                    verification.certify_impact,
                    verification.certify_closed_loop,
                    verification.certify_skew):
        with pytest.raises(ValueError, match="n_states must be >= 1"):
            battery(n_states=n_states)


def test_robots_are_nominal_at_even_states_and_scaled_at_odd():
    n = 41
    robots = verification._robots(np.random.default_rng(0), n)
    nominal = T.RobotParams()
    for f in fields(T.RobotParams):
        values, value = getattr(robots, f.name), getattr(nominal, f.name)
        assert values.shape == (n,), f.name
        assert (values[0::2] == value).all(), f.name
        if f.name == "gravity":
            assert (values == value).all()
        else:
            odd = values[1::2]
            assert ((0.5 * value <= odd) & (odd < 1.5 * value)).all(), f.name
            assert len(set(odd.tolist())) == len(odd), f.name


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
# The oracle derived in a forked child
# --------------------------------------------------------------------------

@pytest.fixture
def unbuilt(monkeypatch):
    """The oracle not yet built in this process; the built one comes back
    after the test."""
    monkeypatch.setattr(verification, "_built", None)


def derivations_here(monkeypatch, in_child=None):
    """A list that gains an entry each time this process derives the
    oracle's sources; a forked child runs ``in_child`` instead, if given."""
    parent, derive, calls = os.getpid(), verification._oracle_sources, []

    def counted():
        if os.getpid() != parent:
            return (in_child or derive)()
        calls.append(1)
        return derive()

    monkeypatch.setattr(verification, "_oracle_sources", counted)
    return calls


def forks(monkeypatch):
    """A list that gains an entry at each ``os.fork`` in this process."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@contextlib.contextmanager
def another_thread():
    """A second live thread, which keeps the battery from forking."""
    release = threading.Event()
    holder = threading.Thread(target=release.wait)
    holder.start()
    try:
        yield
    finally:
        release.set()
        holder.join()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_report(got, want):
    assert [c.max_residual for c in got.checks] == \
        [c.max_residual for c in want.checks]
    assert got.as_text() == want.as_text()


def test_forked_and_in_process_oracles_give_the_same_report(monkeypatch, unbuilt):
    derived, forked = derivations_here(monkeypatch), forks(monkeypatch)
    from_child = run_certification(n_states=40, seed=2)
    assert (forked, derived) == ([1], [])
    assert_no_child()
    monkeypatch.setattr(verification, "_built", None)
    with another_thread():
        in_process = run_certification(n_states=40, seed=2)
    assert (forked, derived) == ([1], [1])
    assert_same_report(from_child, in_process)


def _raise():
    raise RuntimeError("derivation failed in the child")


CHILD_FAILURES = {
    "raises": _raise,
    "exits without sending": lambda: os._exit(0),
}


@pytest.mark.parametrize("failure", CHILD_FAILURES.values(), ids=CHILD_FAILURES)
def test_a_failed_child_leaves_the_report_unchanged(monkeypatch, unbuilt,
                                                     report, failure):
    derived = derivations_here(monkeypatch, in_child=failure)
    forked = forks(monkeypatch)
    assert_same_report(run_certification(n_states=40, seed=2), report)
    assert (forked, derived) == ([1], [1])
    assert_no_child()


def test_a_failed_fork_derives_the_oracle_here(monkeypatch, unbuilt, report):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    derived = derivations_here(monkeypatch)
    assert_same_report(run_certification(n_states=40, seed=2), report)
    assert derived == [1]


def test_no_child_outlives_a_check_that_raises(monkeypatch, unbuilt):
    forked = forks(monkeypatch)

    def broken(*args, **kwargs):
        raise RuntimeError("check failed")

    monkeypatch.setattr(verification, "certify_impact", broken)
    with pytest.raises(RuntimeError, match="check failed"):
        run_certification(n_states=2)
    assert forked == [1]
    assert_no_child()


def test_a_caller_that_ignores_sigchld_gets_the_same_report(monkeypatch,
                                                           unbuilt, report):
    # The kernel then reaps the child itself, before the battery does.
    derived, forked = derivations_here(monkeypatch), forks(monkeypatch)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        got = run_certification(n_states=40, seed=2)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert_same_report(got, report)
    assert (forked, derived) == ([1], [])
    assert_no_child()


def test_a_derivation_error_raises_in_the_caller(monkeypatch, unbuilt):
    def broken():
        raise RuntimeError("no oracle")

    monkeypatch.setattr(verification, "_oracle_sources", broken)
    with pytest.raises(RuntimeError, match="no oracle"):
        run_certification(n_states=2)
    assert_no_child()


def test_a_built_oracle_is_not_derived_again(monkeypatch):
    run_certification(n_states=2)
    derived, forked = derivations_here(monkeypatch), forks(monkeypatch)
    run_certification(n_states=2)
    assert (forked, derived) == ([], [])


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


def heavy_at(monkeypatch, states):
    """Robots a million times too heavy at ``states`` of each batch: the
    contact operator's determinant falls below the floor there."""
    robots = verification._robots

    def heavy_robots(rng, n):
        scale = np.ones(n)
        scale[states] = 1e7
        return robots(rng, n).scaled_masses(scale)

    monkeypatch.setattr(verification, "_robots", heavy_robots)


def test_impact_check_skips_exactly_the_degenerate_state(monkeypatch):
    heavy_at(monkeypatch, 3)
    result = verification.certify_impact(n_states=20)
    assert result.note == "19 states, 1 degenerate skipped"
    assert result.passed


def test_a_check_that_skips_every_state_fails(monkeypatch):
    heavy_at(monkeypatch, slice(None))
    result = verification.certify_impact(n_states=20)
    assert result.note == "0 states, 20 degenerate skipped"
    assert np.isnan(result.max_residual)
    assert not result.passed


def test_closed_loop_check_skips_exactly_the_singular_state(monkeypatch):
    """A ``det_floor`` a hair above the lowest ``|det B_e|`` among the
    check's states, drawn here as the check draws them, skips that state."""
    rng = np.random.default_rng(3)
    q = rng.uniform(-1.0, 1.0, size=(20, 3)) + [0.0, 0.0, np.pi / 2]
    dq = rng.uniform(-3.0, 3.0, size=(20, 3))
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
