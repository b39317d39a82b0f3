"""Package surface: what ``import triped`` loads and re-exports."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triped as T


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(T.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_fresh(*args: str) -> str:
    """Run ``python *args`` in a fresh interpreter that imports this
    package; returns what it printed."""
    return subprocess.run([sys.executable, *args], check=True, env=fresh_env(),
                          stdout=subprocess.PIPE, text=True).stdout


def test_import_does_not_load_sympy():
    # Only the oracle's derivation needs sympy; a fresh interpreter shows
    # whether the package or the CLI module pulls it in anyway.
    run_fresh("-c", "import sys, triped, triped.cli; "
              "assert 'sympy' not in sys.modules, 'sympy imported'")


def test_runtime_does_not_load_scipy():
    # The integrator is triped.ode; scipy is only the tests' oracle.
    run_fresh("-c", "import sys, triped, triped.cli, triped.verification; "
              "assert 'scipy' not in sys.modules, 'scipy imported'")


def test_import_generates_no_integrator_code():
    # The straight-line integrator step is generated on first use of each
    # state dimension, so importing the package does not pay for it.
    run_fresh("-c", "import triped, triped.cli, triped.ode as ode; "
              "assert ode._dp5.cache_info().currsize == 0, 'generated at import'")


def test_verify_loads_no_sympy_and_forks_nothing():
    # The battery compiles the committed oracle: `triped verify` neither
    # derives it with sympy nor forks a process to do so.
    run_fresh("-c", "import os, sys; forks = []; fork = os.fork; "
              "os.fork = lambda: forks.append(1) or fork(); "
              "import triped.cli; "
              "assert triped.cli.main(['verify', '--checks', '10']) == 0; "
              "assert not forks, 'forked'; "
              "assert 'sympy' not in sys.modules, 'sympy imported'")


def test_verification_names_are_reexported():
    from triped import verification

    for name in ("CertificationReport", "CheckResult", "TranscriptionReport",
                 "run_certification", "transcription_report"):
        assert name in T.__all__
        assert getattr(T, name) is getattr(verification, name)


def test_benchmark_hooks_exist(tmp_path):
    # perfbench/tracing.py wraps these module attributes by name and reads
    # t and nfev off the integrator's result, and the sweep workload calls
    # run_sweep(..., max_workers=1): removing or renaming one breaks the
    # benchmark, not the package.
    from triped import simulate, verification

    for name in ("solve_ivp", "step", "integrate_swing", "reset_map",
                 "control_action", "swing_accel", "swing_foot_height"):
        assert callable(getattr(simulate, name)), name
    for name in ("_oracle", "certify_swing_terms", "certify_energy_conservation",
                 "certify_reduced_consistency", "certify_impact",
                 "certify_closed_loop", "certify_integrator_transport",
                 "certify_skew", "transcription_report"):
        assert callable(getattr(verification, name)), name
    assert verification.solve_ivp is simulate.solve_ivp
    sol = simulate.solve_ivp(lambda t, y: [-y[0]], (0.0, 1.0), [1.0])
    assert (sol.t[0], sol.t[-1]) == (0.0, 1.0)
    assert sol.nfev == 2 + 6 * (len(sol.t) - 1 + sol.n_rejected)
    assert "max_workers" in inspect.signature(T.run_sweep).parameters
    # perfbench's workloads and verdict call emitter(result, manifest, outdir)
    # positionally and sum the sizes of the returned paths.
    cfg = T.SimConfig(n_steps=1)
    spec = T.SweepSpec(axis="incline_true", rel_range=(0.0, 0.0),
                       n_samples=1, base=cfg)
    runs = [T.emit_outputs(T.run_gait(cfg), T.make_manifest(cfg),
                           tmp_path / "gait"),
            T.emit_sweep_outputs(T.run_sweep(spec, max_workers=1),
                                 T.make_manifest(spec), tmp_path / "sweep")]
    for files in runs:
        assert "manifest.json" in files
        for path in files.values():
            assert isinstance(path, Path) and path.is_file(), path


@pytest.mark.parametrize("tool, args", [
    ("replay_split.py", ["--rounds", "0"]),
    ("time_kernel_check.py", ["--states", "0"]),
    ("time_kernel_check.py", ["--rounds", "0"]),
    ("emit_memory.py", ["--steps", "0"]),
    ("emit_memory.py", ["--sample-dt", "0"]),
    ("emit_memory.py", ["--sample-dt", "-0.001"]),
    ("emit_memory.py", ["--sample-dt", "nan"]),
    ("replay_split.py", ["--rounds", "-1"]),
    ("time_kernel_check.py", ["--states", "-1"]),
    ("time_kernel_check.py", ["--rounds", "-1"]),
    ("emit_memory.py", ["--steps", "-1"]),
    ("emit_memory.py", ["--sample-dt", "inf"]),
])
def test_the_tools_refuse_a_count_below_one(tool, args):
    # Refused by the argument parser before any work: exit 2, a usage line.
    # A count is refused below one, a time step unless positive and finite,
    # in the words of the config rules (triped.params).
    done = subprocess.run([sys.executable, str(TOOLS / tool), *args],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    rule = ("a positive finite int or double" if args[0] == "--sample-dt"
            else "an integer >= 1")
    assert f"argument {args[0]}: must be {rule}, got " in done.stderr
    assert "Traceback" not in done.stderr


def test_the_tools_run_and_print_one_json_line(tmp_path):
    # The tools drive the package's internals (replay_split records and
    # replays solve_ivp's t_eval): an API change can break them silently.
    # derive_oracle writes to a temporary file, never into the package.
    replay = run_fresh(str(TOOLS / "replay_split.py"), "--rounds", "1")
    out = tmp_path / "oracle_source.py"
    derive = run_fresh(str(TOOLS / "derive_oracle.py"), "--out", str(out))
    timed = run_fresh(str(TOOLS / "time_kernel_check.py"), "--states", "10",
                      "--rounds", "1")
    emitted = run_fresh(str(TOOLS / "emit_memory.py"), "--steps", "2",
                        "--sample-dt", "0.0025")
    for printed in (replay, derive, timed, emitted):
        assert len(printed.splitlines()) == 1, printed
    assert json.loads(replay)["nfev"] == 42538
    assert json.loads(derive)["bytes"] == out.stat().st_size
    timed = json.loads(timed)
    assert timed["passed"] and timed["note"] == "10 states"
    emitted = json.loads(emitted)
    assert (emitted["steps"], emitted["samples"]) == (2, 437)
    assert (2 * emitted["gait_kept_b_per_sample"]
            > emitted["gait_peak_b_per_sample"]
            > emitted["gait_kept_b_per_sample"] > 0)
    assert emitted["bytes_written"] > 0 and emitted["emit_peak_mb"] > 0
