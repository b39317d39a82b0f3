"""Each correctness check of the benchmark passes on real output and fails
on a corrupted copy of it.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import triped as T

import checks
import workloads

BENCH = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gait(tmp_path_factory):
    """The reference gait's emitted ``steps.json`` and the check arguments."""
    cfg = workloads.resolve("gait", 0)
    outdir = tmp_path_factory.mktemp("gait")
    workloads.emit("gait", cfg, workloads.run("gait", cfg).result, outdir, 0)
    ctrl = cfg.controller
    args = (cfg.n_steps, ctrl.targets.q1_switch, asdict(cfg.plant),
            asdict(ctrl.model), asdict(ctrl.gains))
    return checks.load_json(outdir / "steps.json"), args


def failures(steps, args):
    return " | ".join(checks.check_gait(steps, *args))


def test_gait_checks_pass_on_the_reference_gait(gait):
    steps, args = gait
    assert checks.check_gait(steps, *args) == []


def test_posture_floor_matches_the_linear_prediction(gait):
    steps, args = gait
    records = steps["records"]
    floor = checks.posture_floor(records[-2]["x_pre_impact"],
                                 records[-1]["x_post_impact"],
                                 records[-1]["step_time"], args[3], args[4])
    assert floor == pytest.approx(2.742e-3, rel=2e-3)


def test_pre_impact_state_off_the_surface_fails(gait):
    steps, args = copy.deepcopy(gait[0]), gait[1]
    steps["records"][7]["x_pre_impact"][0] += 1e-8
    assert "switching surface" in failures(steps, args)


def test_pre_impact_state_moving_backwards_fails(gait):
    steps, args = copy.deepcopy(gait[0]), gait[1]
    steps["records"][3]["x_pre_impact"][3] *= -1.0
    assert "switching surface" in failures(steps, args)


def test_unsettled_step_times_fail(gait):
    steps, args = copy.deepcopy(gait[0]), gait[1]
    steps["records"][-2]["step_time"] += 1e-2
    assert "not settled" in failures(steps, args)


def test_posture_distance_off_the_floor_fails(gait):
    steps, args = copy.deepcopy(gait[0]), gait[1]
    for r in steps["records"][1:]:
        r["z_delta_at_impact"] *= 1.05
    assert "predicted floor" in failures(steps, args)


def test_momentum_jump_at_impact_fails(gait):
    steps, args = copy.deepcopy(gait[0]), gait[1]
    steps["records"][5]["x_post_impact"][3] += 1e-6
    assert "angular momentum" in failures(steps, args)


def test_energy_gain_at_impact_fails(gait):
    steps, args = copy.deepcopy(gait[0]), gait[1]
    post = steps["records"][5]["x_post_impact"]
    post[3:] = [1.5 * v for v in post[3:]]
    assert "kinetic energy rose" in failures(steps, args)


def test_impact_invariants_agree_with_the_program_impact():
    # The check's own kinematics see the program's plastic impact conserve
    # momentum about the landing foot and lose energy at arbitrary states.
    rng = np.random.default_rng(4)
    p = T.RobotParams()
    for _ in range(20):
        q = rng.uniform(-0.6, 0.6, size=3) + [0.0, 0.0, 1.8]
        dq = rng.uniform(-2.0, 2.0, size=3)
        res = T.reset_map(q, dq, p)
        l_pre, l_post, t_pre, t_post = checks.impact_invariants(
            np.r_[q, dq], np.r_[res.q_plus, res.dq_plus], asdict(p))
        assert l_post == pytest.approx(l_pre, rel=1e-10, abs=1e-12)
        assert t_post <= t_pre
        assert t_pre - t_post == pytest.approx(res.kinetic_energy_loss, abs=1e-10)


def sweep_table():
    spec = workloads.sweep_spec()
    grid = checks.incline_grid(spec.base.incline_true, spec.rel_range, spec.n_samples)
    rows = [{"index": i, "axis": "incline_true", "value": v, "completed_steps": 3,
             "aborted": False, "abort_reason": None, "converged": False,
             "step_time": 0.3 + 0.1 * i, "rho_hat": 0.7, "worst_z_delta": 5e-3}
            for i, v in enumerate(grid)]
    return {"samples": rows}, grid


def test_sweep_grid_is_20_to_26_degrees():
    _, grid = sweep_table()
    assert [math.degrees(v) for v in grid] == pytest.approx([20.0, 22.0, 24.0, 26.0])


def test_sweep_checks():
    table, grid = sweep_table()
    assert checks.check_sweep(table, grid, 3, dict(table["samples"][2])) == []
    moved = copy.deepcopy(table)
    moved["samples"][1]["value"] *= 1.0 + 1e-9
    assert checks.check_sweep(moved, grid, 3)
    aborted = copy.deepcopy(table)
    aborted["samples"][3].update(aborted=True, completed_steps=1, abort_reason="FellOverError")
    assert checks.check_sweep(aborted, grid, 3)
    rerun = dict(table["samples"][2], rho_hat=0.7 + 1e-12)
    assert "re-run alone differs in ['rho_hat']" in checks.check_sweep(table, grid, 3, rerun)[0]


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("verify")
    workloads.emit("verify", None, (T.run_certification(n_states=40, seed=2),
                                    T.transcription_report(n_states=40)), outdir, 2)
    return checks.load_json(outdir / "certification.json")


def test_verify_check_passes_on_the_battery(verify_report):
    assert checks.check_verify(verify_report) == []


def test_verify_check_fails_on_a_residual_above_its_pin(verify_report):
    report = copy.deepcopy(verify_report)
    impact = next(c for c in report["checks"] if "impact" in c["name"])
    impact["max_residual"] = 5e-8  # under the program's 1e-6, over the pinned 1e-8
    assert "impact" in " ".join(checks.check_verify(report))


def test_verify_check_fails_when_a_corrupted_form_reads_faithful(verify_report):
    report = copy.deepcopy(verify_report)
    report["transcription"]["gravity force (zero)"] = 1e-9
    assert checks.check_verify(report)


def test_repeats_must_be_byte_identical(tmp_path):
    for k, text in enumerate(("a", "a", "b")):
        (tmp_path / f"r{k}").mkdir()
        (tmp_path / f"r{k}" / "data.csv").write_text(text)
        (tmp_path / f"r{k}" / "manifest.json").write_text(str(k))
    same = [checks.digests(tmp_path / f"r{k}") for k in (0, 1)]
    assert checks.check_repeats(same) == []
    differ = same + [checks.digests(tmp_path / "r2")]
    assert checks.check_repeats(differ) == ["round 2 data files differ from round 0"]


def test_reference_chunk_does_fixed_work():
    import reference
    reference.warm()
    meter = reference.Meter()
    meter.run(2)  # raises unless each chunk takes exactly NFEV evaluations
    assert meter.n == 2 and meter.wall > 0.0 and meter.cpu > 0.0


def test_times_are_scaled_by_their_own_round():
    import reference
    import run
    ref = {"n": 4, "wall": 8 * reference.REF_S, "cpu": 2 * reference.REF_S}
    round_ = {"wall_s": 10.0, "cpu_s": 9.0, "ref": ref}
    assert run.slowdown(ref) == pytest.approx(2.0)
    assert run.scaled(round_) == pytest.approx(5.0)
    assert run.scaled(round_, "cpu_s") == pytest.approx(18.0)


def test_command_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "gait",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src" in proc.stderr


def test_metric_tables_match_the_benchmark_file():
    import run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
