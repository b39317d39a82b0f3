"""Self-check battery: the package must certify its own dynamics."""

import functools
import itertools
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import triped as T
from triped import dynamics, impact, kernel, ode, verification
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
                  "integrator", "skew", "kernel"):
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


def test_a_report_of_no_checks_is_not_a_pass():
    # No check ran, so nothing was certified.
    empty = CertificationReport()
    assert not empty.ok
    assert empty.as_text().endswith("overall: FAIL")


@pytest.mark.parametrize("n_states", [0, -1, 2.5, True])
def test_battery_refuses_to_certify_without_states(n_states):
    for battery in (run_certification, transcription_report,
                    verification.certify_swing_terms,
                    verification.certify_reduced_consistency,
                    verification.certify_impact,
                    verification.certify_closed_loop,
                    verification.certify_skew, verification.certify_kernel):
        with pytest.raises(ValueError, match="n_states must be an integer >= 1"):
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
# The committed oracle
# --------------------------------------------------------------------------

def test_the_committed_oracle_is_the_derivation(monkeypatch):
    # Values, not text: lambdify names the arguments after sympy's Dummy
    # counter, so two derivations in one process already differ in text.
    rng = np.random.default_rng(17)
    n = 2000
    q, dq = verification._random_states(rng, n)
    p = verification._robots(rng, n)
    incline = rng.uniform(-0.6, 0.6, size=n)
    committed = verification.oracle_terms(q, dq, p, incline)
    derived = verification._compile_oracle(verification._oracle_sources())
    monkeypatch.setattr(verification, "_oracle", lambda: derived)
    fresh = verification.oracle_terms(q, dq, p, incline)
    assert len(committed) == len(fresh) == 5
    for got, want in zip(committed, fresh):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_a_built_oracle_is_not_derived_again(monkeypatch):
    # Neither the first build nor a later battery derives the oracle.
    def derive():
        raise AssertionError("the battery derived the oracle")

    monkeypatch.setattr(verification, "_oracle_sources", derive)
    verification._oracle.cache_clear()
    for _ in range(2):
        assert run_certification(n_states=2).ok


# --------------------------------------------------------------------------
# A NaN at one state of a batch, and the states a check skips
# --------------------------------------------------------------------------

def nan_at(fn, index=3, call=None):
    """``fn`` with its result NaN at batch entry ``index``, at every call or
    only at call number ``call`` (counted from 1)."""
    calls = itertools.count(1)

    def patched(*args, **kwargs):
        result = np.array(fn(*args, **kwargs), dtype=float)
        if next(calls) == call or call is None:
            result[index] = np.nan
        return result
    return patched


#: Each sampled check, and a function its residuals evaluate once per batch
#: (check (h): once per error weighting of a batch).
RESIDUAL_CALLS = [
    ("certify_swing_terms", verification, "coriolis_matrix"),
    ("certify_reduced_consistency", verification, "swing_accel"),
    ("certify_impact", verification, "swing_foot_position"),
    ("certify_closed_loop", verification, "swing_accel"),
    ("certify_skew", verification, "quadratic_bracket"),
    ("certify_kernel", verification, "swing_accel"),
]


@pytest.mark.parametrize("check, module, name", RESIDUAL_CALLS)
def test_a_nan_at_one_state_fails_the_check(monkeypatch, check, module, name):
    monkeypatch.setattr(module, name, nan_at(getattr(module, name)))
    result = getattr(verification, check)(n_states=20)
    assert np.isnan(result.max_residual)
    assert not result.passed


@pytest.mark.parametrize("check, module, name", RESIDUAL_CALLS)
def test_a_check_evaluates_every_state_of_every_batch(monkeypatch, check,
                                                      module, name):
    monkeypatch.setattr(verification, "BATCH_STATES", 7)
    fn, sizes = getattr(module, name), []

    def sized(*args, **kwargs):
        result = fn(*args, **kwargs)
        sizes.append(len(result))
        return result

    monkeypatch.setattr(module, name, sized)
    result = getattr(verification, check)(n_states=20)
    assert result.passed
    assert result.note == "20 states"
    assert sum(sizes) == 20
    if check != "certify_kernel":
        assert sizes == [7, 7, 6]
    # The last call is on the third batch, and its last entry is the last
    # state (in check (h), that state's controller is the batch's last,
    # which has the inertia-weighted error, evaluated after the raw).
    monkeypatch.setattr(module, name, nan_at(fn, index=-1, call=len(sizes)))
    result = getattr(verification, check)(n_states=20)
    assert np.isnan(result.max_residual)
    assert not result.passed


@pytest.mark.parametrize("name, term", [
    pytest.param("input_matrix_e", 0, id="B_e"),
    pytest.param("input_matrix_e", 1, id="b_z"),
    pytest.param("reduced_forces", 2, id="tau_g_e"),
])
def test_reduced_consistency_catches_a_slip_in_one_term(monkeypatch, name,
                                                        term):
    """Check (c) reads the reduced terms through this module, so a slip of
    one part in a million in any of them fails it (the clean residual is
    about 1e-12)."""
    assert verification.certify_reduced_consistency(200).passed
    real = getattr(verification, name)

    def slipped(*args):
        terms = list(real(*args))
        terms[term] = terms[term] * (1.0 + 1e-6)
        return tuple(terms)

    monkeypatch.setattr(verification, name, slipped)
    result = verification.certify_reduced_consistency(200)
    assert result.max_residual > result.tolerance
    assert not result.passed


def test_a_nan_at_one_state_flags_the_transcription_term(monkeypatch):
    pushforward = verification.pushforward

    def nan_in_b_e(*args):
        b_e, b_z = pushforward(*args)
        return nan_at(lambda: b_e)(), b_z

    monkeypatch.setattr(verification, "pushforward", nan_in_b_e)
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


@pytest.mark.parametrize("output", ["liftoff_velocity", "dq_plus"])
def test_impact_check_catches_a_slip_in_what_reset_map_reports(monkeypatch,
                                                              output):
    """Check (d) reads the outputs a gait step uses, so a slip of one part
    in a million in either fails it (the clean residual is about 5e-15)."""
    assert verification.certify_impact(200).passed
    reset = verification.reset_map

    def slipped(q, dq, p):
        res = reset(q, dq, p)
        return replace(res, **{output: getattr(res, output) * (1.0 + 1e-6)})

    monkeypatch.setattr(verification, "reset_map", slipped)
    result = verification.certify_impact(200)
    assert result.max_residual > result.tolerance
    assert not result.passed


def floor_above_every_det(monkeypatch):
    """A ``det_floor`` no torque allocation clears: every state singular,
    on the reference and on the kernel alike."""
    monkeypatch.setattr(verification, "ControllerConfig",
                        functools.partial(T.ControllerConfig, det_floor=1e30))


@pytest.mark.parametrize("check, degenerate, why", [
    ("certify_impact", lambda mp: heavy_at(mp, slice(None)), "degenerate"),
    ("certify_closed_loop", floor_above_every_det, "singular"),
    ("certify_kernel", floor_above_every_det, "singular"),
], ids=["impact", "closed_loop", "kernel"])
def test_a_check_that_skips_every_state_fails(monkeypatch, check, degenerate,
                                              why):
    degenerate(monkeypatch)
    result = getattr(verification, check)(n_states=20)
    assert result.note == f"0 states, 20 {why} skipped"
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


BATTERY = ("certify_swing_terms", "certify_energy_conservation",
           "certify_reduced_consistency", "certify_impact",
           "certify_closed_loop", "certify_integrator_transport",
           "certify_skew", "certify_kernel")


def test_the_battery_calls_each_check_as_a_module_attribute(monkeypatch):
    # A benchmark's tracer wraps these attributes by name; a battery that
    # held the functions themselves would run unwrapped.
    called = []

    def recorded(name, check):
        def call(*args, **kwargs):
            called.append(name)
            return check(*args, **kwargs)
        return call

    for name in BATTERY:
        monkeypatch.setattr(verification, name,
                            recorded(name, getattr(verification, name)))
    report = run_certification(n_states=5)
    assert called == list(BATTERY)
    assert len(report.checks) == len(BATTERY)
    assert report.ok


# --------------------------------------------------------------------------
# The balance checks integrate the fused kernel
# --------------------------------------------------------------------------

BALANCE_CHECKS = ("certify_energy_conservation", "certify_integrator_transport")


def test_balance_checks_report_and_bound_their_evaluations(report):
    # The soft gains of BALANCE_CONFIG keep the closed loop non-stiff; the
    # default gains would take about 13 times the evaluations.
    for fragment in ("energy drift", "norm transport"):
        check, = [c for c in report.checks if fragment in c.name]
        nfev = int(re.fullmatch(r"1\.0 s horizon, (\d+) evaluations",
                                check.note).group(1))
        assert 0 < nfev <= 5000, check.note


def test_a_truncated_integration_fails_both_balance_checks(monkeypatch):
    monkeypatch.setattr(verification, "solve_ivp",
                        functools.partial(ode.solve_ivp, max_nfev=200))
    for check in BALANCE_CHECKS:
        result = getattr(verification, check)()
        assert np.isnan(result.max_residual), check
        assert not result.passed, check


def heavier_torso(cfg):
    return kernel.closed_loop(replace(cfg, plant=replace(
        cfg.plant, torso_mass=cfg.plant.torso_mass * (1 + 1e-6))))


def plant_on_the_assumed_slope(cfg):
    """A firewall breach: the plant half reads the controller's slope."""
    return kernel.closed_loop(
        replace(cfg, incline_true=cfg.controller.incline_assumed))


def faster_integrator(cfg):
    """The kernel with its first integrator rate scaled by 1 + 1e-6."""
    rhs = kernel.closed_loop(cfg)

    def scaled(t, y, outputs=False):
        rates = rhs(t, y, outputs)
        if outputs:
            return rates
        return (*rates[:6], rates[6] * (1 + 1e-6), rates[7])
    return scaled


@pytest.mark.parametrize("build, failing", [
    (heavier_torso, "certify_energy_conservation"),
    (plant_on_the_assumed_slope, "certify_energy_conservation"),
    (faster_integrator, "certify_integrator_transport"),
])
def test_a_wrong_kernel_fails_its_balance_check(monkeypatch, build, failing):
    monkeypatch.setattr(verification, "closed_loop", build)
    for check in BALANCE_CHECKS:
        result = getattr(verification, check)()
        assert np.isfinite(result.max_residual), check
        assert result.passed == (check != failing), (check, result)


# --------------------------------------------------------------------------
# The kernel check
# --------------------------------------------------------------------------

def test_kernel_check_skips_the_states_both_paths_find_singular(monkeypatch):
    monkeypatch.setattr(verification, "ControllerConfig",
                        functools.partial(T.ControllerConfig, det_floor=200.0))
    result = verification.certify_kernel(n_states=20)
    assert result.note == "15 states, 5 singular skipped"
    assert result.passed


def built_weightings(monkeypatch):
    """The error weighting of every kernel the kernel check builds, in
    order, once the check has run."""
    built = []

    def counting(cfg):
        built.append(cfg.controller.error_weighting)
        return kernel.closed_loop(cfg)

    monkeypatch.setattr(verification, "closed_loop", counting)
    return built


def test_kernel_check_on_one_state_draws_only_the_raw_weighting(monkeypatch):
    built = built_weightings(monkeypatch)
    result = verification.certify_kernel(n_states=1)
    assert result.note == "1 states"
    assert result.passed
    assert built == ["raw"]


def test_kernel_check_builds_one_kernel_per_drawn_controller(monkeypatch):
    built = built_weightings(monkeypatch)
    assert verification.certify_kernel(n_states=20).passed
    assert len(built) == -(-20 // verification.KERNEL_STATES)
    assert set(built) == {"raw", "inertia"}


def test_kernel_check_fails_when_only_one_path_is_singular(monkeypatch):
    builds = itertools.count()

    def singular_at_the_fourth_build(cfg):
        rhs = kernel.closed_loop(cfg)
        if next(builds) != 3:
            return rhs

        def singular(t, y, outputs=False):
            raise T.ActuationSingularityError("torque allocation singular")
        return singular

    monkeypatch.setattr(verification, "closed_loop",
                        singular_at_the_fourth_build)
    result = verification.certify_kernel(n_states=20)
    # The fourth build serves KERNEL_STATES states, all singular on it.
    assert result.note == (f"20 states, {verification.KERNEL_STATES} "
                           "singular on one path only")
    assert np.isnan(result.max_residual)
    assert not result.passed


def first_answer_kept(cfg):
    """A kernel that carries state between calls: it returns its first
    answer for each value of ``outputs`` ever after."""
    rhs, kept = kernel.closed_loop(cfg), {}

    def stale(t, y, outputs=False):
        if outputs not in kept:
            kept[outputs] = rhs(t, y, outputs)
        return kept[outputs]
    return stale


def test_kernel_check_fails_on_a_kernel_that_carries_state(monkeypatch):
    # Each built kernel serves several states in a row, so an answer left
    # over from an earlier state shows.
    monkeypatch.setattr(verification, "closed_loop", first_answer_kept)
    result = verification.certify_kernel(n_states=20)
    assert np.isfinite(result.max_residual)
    assert result.max_residual > 1e-10
    assert not result.passed


def raw_model_is_the_plant(cfg):
    """A kernel whose controller half reads the plant instead of the
    controller's model, under the raw error weighting only."""
    if cfg.controller.error_weighting == "raw":
        cfg = replace(cfg, controller=replace(cfg.controller, model=cfg.plant))
    return kernel.closed_loop(cfg)


def test_kernel_check_draws_each_weighting_on_nominal_and_scaled_robots(
        monkeypatch):
    built = []

    def recording(cfg):
        built.append((cfg.controller.error_weighting,
                      cfg.plant == T.RobotParams(),
                      cfg.controller.model == T.RobotParams()))
        return kernel.closed_loop(cfg)

    monkeypatch.setattr(verification, "closed_loop", recording)
    assert verification.certify_kernel(n_states=20).passed
    assert {(w, nominal, nominal) for w in ("raw", "inertia")
            for nominal in (True, False)} <= set(built)


def test_kernel_check_fails_when_the_raw_weighting_reads_the_plant(monkeypatch):
    monkeypatch.setattr(verification, "closed_loop", raw_model_is_the_plant)
    result = verification.certify_kernel(n_states=20)
    assert np.isfinite(result.max_residual)
    assert result.max_residual > 1e-3
    assert not result.passed


def test_kernel_check_fails_on_a_wrong_kernel(monkeypatch):
    monkeypatch.setattr(verification, "closed_loop", faster_integrator)
    result = verification.certify_kernel(n_states=20)
    assert 1e-7 < result.max_residual < 1e-5
    assert not result.passed


def slipped(fn, index):
    """``fn`` with entry ``index`` of the tuple it returns scaled by 1 + 1e-6."""
    def wrong(p):
        out = list(fn(p))
        out[index] = out[index] * (1.0 + 1e-6)
        return tuple(out)
    return wrong


@pytest.mark.parametrize("name, index, failing", [
    ("inertia_coefficients", 0, ("certify_swing_terms", "certify_impact")),
    ("gravity_amplitudes", 2, ("certify_swing_terms",)),
])
def test_a_slip_in_a_shared_coefficient_fails_the_oracle_checks(
        monkeypatch, name, index, failing):
    # The kernel and the reference functions read the coefficients from one
    # place, so an edit there reaches every module that imports them: check
    # (h) then compares two readers of the same number and passes, and the
    # symbolic oracle of check (a) (for the inertia, also the pinned
    # reduction of check (d)) must catch the slip.
    wrong = slipped(getattr(dynamics, name), index)
    for module in (dynamics, kernel, impact):
        if name in vars(module):
            monkeypatch.setattr(module, name, wrong)
    for check in failing:
        result = getattr(verification, check)(n_states=200)
        assert not result.passed, check
    assert verification.certify_kernel(n_states=200).passed
