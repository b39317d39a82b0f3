"""Command-line interface: verbs, exit codes, output wiring."""

import json
from pathlib import Path

import pytest

import triped as T
from triped.cli import main


def test_version_prints_package_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == T.__version__


def test_simulate_writes_run_directory(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--steps", "2", "--out", str(out),
                 "--seed", "3"]) == 0
    for name in ("trajectory.csv", "steps.json", "step_times.csv",
                 "phase.csv", "manifest.json"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "2/2 steps" in stdout
    assert json.loads((out / "manifest.json").read_text())["seed"] == 3


def test_simulate_accepts_config_file(tmp_path):
    cfg_file = tmp_path / "walk.cfg"
    cfg_file.write_text("[sim]\nn_steps = 1\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_file),
                 "--out", str(out)]) == 0
    steps = json.loads((out / "steps.json").read_text())
    assert steps["completed_steps"] == 1
    (record,) = steps["records"]
    assert record["within_delta"] == (
        record["z_delta_at_impact"] <= T.SimConfig().delta)
    assert record["nfev"] == 6 * (record["n_accepted"] + record["n_rejected"]) + 2


def test_simulate_strict_scuff_flag_aborts_the_transient_gait(tmp_path,
                                                              capsys):
    cfg_file = tmp_path / "walk.cfg"
    cfg_file.write_text(
        "[targets]\nq3_ref_deg = 110\n"
        "[sim]\nn_steps = 2\n"
        "[initial]\nq1_deg = 11.25\nq2_deg = -15\nq3_deg = 112\n"
        "dq1 = 1.3\ndq2 = -1.4\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out),
                 "--strict-scuff"]) == 1
    assert "scuff" in capsys.readouterr().err
    # Without the flag the same gait completes (the scuff is only flagged).
    assert main(["simulate", "--config", str(cfg_file),
                 "--out", str(tmp_path / "run2")]) == 0


def test_config_errors_exit_with_code_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[plant]\nleg_mass = -1\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_unreadable_config_exits_with_code_two(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes("[sim]\n# pas à pas\nn_steps = 1\n".encode("latin-1"))
    for path in (tmp_path, not_utf8):
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read {path}: ")
        assert "Traceback" not in err


def test_config_warning_names_the_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "steep.toml"
    cfg_file.write_text("[sim]\nlambda_true_deg = 28\nn_steps = 1\n")
    code = main(["simulate", "--config", str(cfg_file),
                 "--out", str(tmp_path / "run")])
    assert code == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"triped: warning: {cfg_file}: lambda_true_deg = 28.00 deg "
                           "exceeds the static-stability bound")


def test_gait_abort_exits_with_code_one(tmp_path, capsys):
    cfg_file = tmp_path / "stall.cfg"
    cfg_file.write_text("[sim]\nn_steps = 1\nmax_step_time = 0.05\n")
    assert main(["simulate", "--config", str(cfg_file),
                 "--out", str(tmp_path / "run")]) == 1
    assert "StepTimeoutError" in capsys.readouterr().err


def test_orbit_verb(tmp_path, capsys):
    out = tmp_path / "orbit"
    assert main(["orbit", "--tol", "0.05", "--out", str(out)]) == 0
    data = json.loads((out / "orbit.json").read_text())
    assert len(data["x_star"]) == 6
    assert data["step_time"] > 0.3
    assert "periodic gait" in capsys.readouterr().out


def test_orbit_json_names_its_tolerance(tmp_path):
    # The tolerance is a flag, not a config field: the run id cannot tell
    # two searches apart, so orbit.json states it.
    out = tmp_path / "orbit"
    assert main(["orbit", "--tol", "0.02", "--out", str(out)]) == 0
    assert json.loads((out / "orbit.json").read_text())["tol"] == 0.02


def test_sweep_verb(tmp_path, capsys):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(
        "[sim]\nn_steps = 2\n"
        "[sweep]\naxis = torso_mass\nrel_min = -0.1\nrel_max = 0.1\n"
        "n_samples = 2\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    assert "swept torso_mass" in capsys.readouterr().out


def test_sweep_verb_wraps_plain_configs_in_the_default_spec(tmp_path):
    cfg_file = tmp_path / "plain.cfg"
    cfg_file.write_text("[sim]\nn_steps = 1\nmax_step_time = 0.05\n")
    out = tmp_path / "sw"
    # Sample aborts are rows in the table, not a CLI failure.
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
    data = json.loads((out / "sweep.json").read_text())
    assert len(data["samples"]) == 5
    assert all(s["aborted"] for s in data["samples"])


def test_verify_verb_passes(capsys):
    assert main(["verify", "--checks", "5"]) == 0
    stdout = capsys.readouterr().out
    assert "overall: PASS" in stdout
    assert "TRANSCRIPTION ERROR" in stdout  # documented closed-form defects


@pytest.mark.parametrize("checks", ["0", "-1"])
def test_verify_refuses_a_check_count_below_one(checks, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--checks", checks])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "--checks: must be >= 1" in out.err
    assert "PASS" not in out.out


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_orbit_refuses_a_tolerance_that_is_not_positive(tol, tmp_path,
                                                        capsys):
    out = tmp_path / "orbit"
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--tol", tol, "--out", str(out)])
    assert exc.value.code == 2
    assert "--tol: must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_accepts_sweep_config_using_its_base(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("[sim]\nn_steps = 1\n[sweep]\nn_samples = 2\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_file),
                 "--out", str(out)]) == 0
