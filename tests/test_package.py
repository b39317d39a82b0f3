"""Package surface: what ``import triped`` loads and re-exports."""

import os
import subprocess
import sys
from pathlib import Path

import triped as T


def test_import_does_not_load_sympy():
    # Only the certification battery needs sympy; a fresh interpreter shows
    # whether the package or the CLI module pulls it in anyway.
    src = str(Path(T.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, triped, triped.cli; "
            "assert 'sympy' not in sys.modules, 'sympy imported'")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_verification_names_are_reexported_on_demand():
    from triped import verification

    for name in ("CertificationReport", "CheckResult", "TranscriptionReport",
                 "run_certification", "transcription_report"):
        assert name in T.__all__
        assert getattr(T, name) is getattr(verification, name)
