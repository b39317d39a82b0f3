"""Package surface: what ``import triped`` loads and re-exports."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import triped as T


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(T.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_import_does_not_load_sympy():
    # Only the certification battery needs sympy; a fresh interpreter shows
    # whether the package or the CLI module pulls it in anyway.
    run_fresh("import sys, triped, triped.cli; "
              "assert 'sympy' not in sys.modules, 'sympy imported'")


def test_runtime_does_not_load_scipy():
    # The integrator is triped.ode; scipy is only the tests' oracle.
    run_fresh("import sys, triped, triped.cli, triped.verification; "
              "assert 'scipy' not in sys.modules, 'scipy imported'")


def test_verification_names_are_reexported_on_demand():
    from triped import verification

    for name in ("CertificationReport", "CheckResult", "TranscriptionReport",
                 "run_certification", "transcription_report"):
        assert name in T.__all__
        assert getattr(T, name) is getattr(verification, name)


def test_benchmark_hooks_exist():
    # perfbench/tracing.py wraps these module attributes by name and reads
    # t and nfev off the integrator's result, and the sweep workload calls
    # run_sweep(..., max_workers=1): removing or renaming one breaks the
    # benchmark, not the package.
    from triped import simulate, verification

    for name in ("solve_ivp", "step", "integrate_swing", "reset_map",
                 "control_action", "swing_accel", "swing_foot_height"):
        assert callable(getattr(simulate, name)), name
    assert verification.solve_ivp is simulate.solve_ivp
    sol = simulate.solve_ivp(lambda t, y: [-y[0]], (0.0, 1.0), [1.0])
    assert (sol.t[0], sol.t[-1]) == (0.0, 1.0)
    assert sol.nfev == 2 + 6 * (len(sol.t) - 1 + sol.n_rejected)
    assert "max_workers" in inspect.signature(T.run_sweep).parameters
