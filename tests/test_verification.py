"""Self-check battery: the package must certify its own dynamics."""

import pytest

import triped as T
from triped.verification import (CheckResult, run_certification,
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
