"""Config text format, run manifests, and bit-stable output files."""

import json
import math
import operator
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import triped as T
from triped.analysis import summarize_gait
from triped.config_io import TRAJECTORY_HEADER, emit_sweep_outputs
from triped.params import ERROR_WEIGHTINGS, INTEGRATOR_RESETS, MAX_SAMPLES_PER_SWING


def modified_config():
    base = T.SimConfig()
    controller = replace(base.controller,
                         incline_assumed=math.radians(-15.0),
                         targets=T.GaitTargets(q3_ref=0.0),
                         error_weighting="inertia",
                         integrator_reset="zero")
    return replace(base, incline_true=math.radians(-15.0),
                   controller=controller, n_steps=5, strict_scuff=True,
                   initial_state=(math.radians(12.85), math.radians(-11.25),
                                  math.radians(2.0), 4.0, -3.9, 0.0))


def test_empty_text_is_the_default_configuration():
    assert T.parse_config_text("") == T.SimConfig()
    assert T.parse_config_text("[sweep]\n") == T.SweepSpec()


def test_default_run_ids_are_pinned():
    # The run id is the digest of the canonical text: reordering keys or
    # reformatting values changes it, and with it every run's provenance.
    assert T.make_manifest(T.SimConfig()).run_id == "50135f4f80233884"
    assert T.make_manifest(T.SweepSpec()).run_id == "240b8a144cfd4bac"


def test_round_trip_default_and_modified():
    for cfg in (T.SimConfig(), modified_config()):
        text = T.write_config(cfg)
        assert T.parse_config_text(text) == cfg
        # Emission is a fixed point: re-emitting parses to the same text.
        assert T.write_config(T.parse_config_text(text)) == text


def test_round_trip_sweep_spec():
    spec = T.SweepSpec(axis="torso_mass", rel_range=(-0.3, 0.3), n_samples=4,
                       base=modified_config())
    parsed = T.parse_config_text(T.write_config(spec))
    assert isinstance(parsed, T.SweepSpec)
    assert parsed == spec


def _every_field(cls, **strategies):
    """Build ``cls`` with a strategy for each of its fields, and only those."""
    assert set(strategies) == {f.name for f in fields(cls)}
    return st.builds(cls, **strategies)


def _degrees(limit):
    """Angles drawn in degrees and converted, as a config file states them."""
    return st.floats(-limit, limit).map(math.radians)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_INCLINES = _degrees(89.0)
_ROBOTS = _every_field(T.RobotParams,
                       **{f.name: _POSITIVE for f in fields(T.RobotParams)})
_SIM_CONFIGS = _every_field(
    T.SimConfig,
    plant=_ROBOTS,
    incline_true=_INCLINES,
    controller=_every_field(
        T.ControllerConfig,
        gains=_every_field(T.ControllerGains, kp=_POSITIVE, kd=_POSITIVE,
                           ki=st.floats(min_value=0.0, allow_infinity=False)),
        model=_ROBOTS,
        incline_assumed=_INCLINES,
        targets=_every_field(T.GaitTargets, q1_switch=_degrees(720.0),
                             q3_ref=_degrees(720.0)),
        error_weighting=st.sampled_from(ERROR_WEIGHTINGS),
        integrator_reset=st.sampled_from(INTEGRATOR_RESETS),
        det_floor=_POSITIVE),
    n_steps=st.integers(1, 10**6),
    **dict.fromkeys(("rel_tol", "abs_tol", "max_step_time", "delta",
                     "scuff_tol", "sample_dt"), _POSITIVE),
    initial_state=st.tuples(*[_degrees(720.0)] * 3, *[_FINITE] * 3),
    strict_scuff=st.booleans(),
).filter(lambda c: c.max_step_time / c.sample_dt <= MAX_SAMPLES_PER_SWING)
_SWEEP_SPECS = _every_field(
    T.SweepSpec,
    axis=st.sampled_from(T.SWEEP_AXES),
    rel_range=st.lists(st.floats(min_value=-1.0, exclude_min=True,
                                 allow_infinity=False),
                       min_size=2, max_size=2).map(sorted).map(tuple),
    n_samples=st.integers(1, 10**4),
    base=_SIM_CONFIGS)


@pytest.mark.filterwarnings("ignore::triped.StaticStabilityWarning")
@settings(max_examples=300, deadline=None)
@given(st.one_of(_SIM_CONFIGS, _SWEEP_SPECS))
def test_every_field_round_trips_through_text(config):
    # A field the key table left out would parse back as its default.
    text = T.write_config(config)
    assert T.parse_config_text(text) == config
    assert T.write_config(T.parse_config_text(text)) == text


def test_angles_survive_degree_round_trip_exactly():
    text = "[sim]\nlambda_true_deg = 25.000000000000004\n"
    cfg = T.parse_config_text(text)
    again = T.parse_config_text(T.write_config(cfg))
    assert again.incline_true == cfg.incline_true


def test_comments_whitespace_and_case_are_tolerated():
    cfg = T.parse_config_text(
        "# header comment\n"
        "[PLANT]\n"
        "  torso_mass =   3.5   # trailing comment\n"
        "\n"
        "[sim]\n"
        "N_STEPS = 7\n")
    assert cfg.plant.torso_mass == 3.5
    assert cfg.n_steps == 7


@pytest.mark.parametrize("text, line_no", [
    ("[plant]\nleg_mass = two\n", 2),
    ("[plant]\nbogus_key = 1\n", 2),
    ("[bogus]\n", 1),
    ("leg_mass = 1\n", 1),
    ("[plant]\nleg_mass = 1\nleg_mass = 2\n", 3),
    ("[plant]\nleg_mass\n", 2),
])
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(T.ConfigParseError) as err:
        T.parse_config_text(text)
    assert err.value.line_no == line_no


def test_invalid_values_are_rejected_with_keys():
    with pytest.raises(T.ConfigValidationError):
        T.parse_config_text("[plant]\nleg_mass = -1\n")
    with pytest.raises(T.ConfigValidationError):
        T.parse_config_text("[sim]\nlambda_true_deg = 90\n")
    with pytest.raises(T.ConfigValidationError):
        T.parse_config_text("[controller]\nerror_weighting = fancy\n")
    with pytest.raises(T.ConfigValidationError):
        T.parse_config_text("[sweep]\naxis = warp_factor\n")


@pytest.mark.parametrize("config, key", [
    (replace(T.SimConfig(), initial_state=np.zeros((6, 2))), "initial_state"),
    (replace(T.SimConfig(), initial_state=("0.26",) + T.nominal_initial_state()[1:]),
     "initial_state"),
    (replace(T.SimConfig(), initial_state=0.26), "initial_state"),
    (replace(T.SimConfig(), n_steps=2.5), "n_steps"),
    (replace(T.SimConfig(), n_steps=True), "n_steps"),
    (replace(T.SimConfig(), strict_scuff="no"), "strict_scuff"),
    (replace(T.SimConfig(), rel_tol="1e-9"), "rel_tol"),
    (replace(T.SimConfig(), plant=T.RobotParams(leg_mass="1")), "leg_mass"),
    (T.SweepSpec(n_samples=2.5), "n_samples"),
    (T.SweepSpec(rel_range=(-0.1,)), "rel_range"),
], ids=["array-rows", "string-entry", "scalar-start", "fractional-steps",
        "bool-steps", "string-flag", "string-tolerance", "string-mass",
        "fractional-samples", "one-bound"])
def test_validate_refuses_wrongly_typed_values_by_key(config, key):
    # Python callers can put any object in a field; the config file's
    # parser types every value, so only this gate stands in their way.
    with pytest.raises(T.ConfigValidationError) as err:
        config.validate()
    assert err.value.keys == [key]


def test_numpy_integers_count_steps_and_samples():
    replace(T.SimConfig(), n_steps=np.int64(3)).validate()
    T.SweepSpec(n_samples=np.int64(2)).validate()


_ANY_NUMBER = st.floats() | st.integers()
_ODD_STARTS = st.one_of(
    _ANY_NUMBER, st.text(),
    st.lists(_ANY_NUMBER | st.text(max_size=2)
             | st.lists(_ANY_NUMBER, max_size=3), max_size=8),
    st.tuples(*[st.floats()] * 6),
    arrays(np.float64, st.tuples(st.just(6), st.integers(0, 3))),
    arrays(np.float64, 6))


@settings(max_examples=300, deadline=None)
@given(start=_ODD_STARTS, n_steps=_ANY_NUMBER)
def test_validate_passes_or_refuses_by_key(start, n_steps):
    """Whatever a caller puts in the start and the step count, validation
    either refuses it by key or leaves what the simulator can run."""
    cfg = replace(T.SimConfig(), initial_state=start, n_steps=n_steps)
    try:
        cfg.validate()
    except T.ConfigValidationError as err:
        assert err.keys and set(err.keys) <= {"initial_state", "n_steps"}
        return
    x0 = np.array(cfg.initial_state, dtype=float)
    assert x0.shape == (6,) and np.all(np.isfinite(x0))
    assert operator.index(cfg.n_steps) >= 1


def test_a_sample_grid_past_its_bound_is_refused():
    # 100,000 * 2**-16 s is exact, so the ratio sits on the bound.
    dt = 2.0 ** -16
    at_bound = replace(T.SimConfig(), max_step_time=MAX_SAMPLES_PER_SWING * dt,
                       sample_dt=dt)
    at_bound.validate()
    for finer in (math.nextafter(dt, 0.0), 1e-9):
        with pytest.raises(T.ConfigValidationError) as err:
            replace(at_bound, sample_dt=finer).validate()
        assert err.value.keys == ["max_step_time", "sample_dt"]


def test_statically_unstable_slopes_warn_but_parse():
    with pytest.warns(T.StaticStabilityWarning):
        cfg = T.parse_config_text("[sim]\nlambda_true_deg = 40\n")
    assert cfg.incline_true == pytest.approx(math.radians(40.0))
    with pytest.warns(T.StaticStabilityWarning):
        T.parse_config_text("[controller]\nlambda_assumed_deg = -45\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T.parse_config_text("[sim]\nlambda_true_deg = 25\n")


def test_static_stability_warning_names_the_caller(tmp_path):
    text = "[sim]\nlambda_true_deg = 40\n[sweep]\n"
    path = tmp_path / "steep.cfg"
    path.write_text(text, encoding="utf-8")
    for parse, source in ((T.parse_config_text, text), (T.parse_config, path)):
        with pytest.warns(T.StaticStabilityWarning) as rec:
            parse(source)
        assert rec[0].filename == __file__


def test_controller_model_defaults_to_nominal_not_plant():
    cfg = T.parse_config_text("[plant]\ntorso_mass = 4.5\n")
    assert cfg.plant.torso_mass == 4.5
    assert cfg.controller.model.torso_mass == 3.0
    # A lighter model torso drops the model's own stability bound below the
    # assumed 25-degree slope, which is worth a warning but not an error.
    with pytest.warns(T.StaticStabilityWarning):
        cfg = T.parse_config_text("[controller]\nmodel_torso_mass = 2.5\n")
    assert cfg.controller.model.torso_mass == 2.5


def test_parse_config_reads_files(tmp_path):
    path = tmp_path / "walk.cfg"
    path.write_text(T.write_config(modified_config()), encoding="utf-8")
    assert T.parse_config(path) == modified_config()


@pytest.fixture(scope="module")
def two_step_outputs(tmp_path_factory):
    cfg = replace(T.SimConfig(), n_steps=2)
    summary = T.run_gait(cfg)
    manifest = T.make_manifest(cfg, seed=11)
    outdir = tmp_path_factory.mktemp("run")
    files = T.emit_outputs(summary, manifest, outdir)
    return cfg, summary, manifest, files


def test_emitted_files_exist_with_exact_trajectory_header(two_step_outputs):
    _, _, _, files = two_step_outputs
    assert sorted(files) == ["manifest.json", "phase.csv", "step_times.csv",
                             "steps.json", "trajectory.csv"]
    first_line = files["trajectory.csv"].read_text().splitlines()[0]
    assert first_line == TRAJECTORY_HEADER
    assert TRAJECTORY_HEADER == ("t,q1,q2,q3,dq1,dq2,dq3,u1,u2,"
                                 "eta1,eta2,wI1,wI2,zdelta,step")


def test_trajectory_values_round_trip_through_text(two_step_outputs):
    _, summary, _, files = two_step_outputs
    rows = files["trajectory.csv"].read_text().splitlines()[1:]
    t_expected = np.concatenate([t.t for t in summary.trajectories])
    q1_expected = np.concatenate([t.q[:, 0] for t in summary.trajectories])
    assert len(rows) == len(t_expected)
    cells = np.array([row.split(",") for row in rows])
    np.testing.assert_array_equal(cells[:, 0].astype(float), t_expected)
    np.testing.assert_array_equal(cells[:, 1].astype(float), q1_expected)
    steps = cells[:, 14].astype(int)
    assert set(steps) == {0, 1}


def test_reruns_are_byte_identical(two_step_outputs, tmp_path):
    cfg, _, _, files = two_step_outputs
    again = T.emit_outputs(T.run_gait(cfg), T.make_manifest(cfg, seed=11),
                           tmp_path)
    for name in ("trajectory.csv", "steps.json", "step_times.csv",
                 "phase.csv"):
        assert files[name].read_bytes() == again[name].read_bytes()
    # The manifest differs only by its creation timestamp.
    old = json.loads(files["manifest.json"].read_text())
    new = json.loads(again["manifest.json"].read_text())
    old.pop("created"), new.pop("created")
    assert old == new


def test_manifest_identifies_the_run(two_step_outputs):
    cfg, _, manifest, files = two_step_outputs
    data = json.loads(files["manifest.json"].read_text())
    assert data["run_id"] == manifest.run_id
    assert data["version"] == T.__version__
    assert data["seed"] == 11
    assert sorted(data["outputs"]) == ["phase.csv", "step_times.csv",
                                       "steps.json", "trajectory.csv"]
    # The embedded config echo parses back to the exact configuration.
    assert T.parse_config_text("\n".join(data["config"])) == cfg
    steps = json.loads(files["steps.json"].read_text())
    assert steps["run_id"] == manifest.run_id
    assert steps["completed_steps"] == 2
    assert len(steps["records"]) == 2
    assert steps["records"][0]["step_time"] > 0


def test_phase_and_step_time_files_are_projections(two_step_outputs):
    _, summary, _, files = two_step_outputs
    phase_rows = files["phase.csv"].read_text().splitlines()
    assert phase_rows[0] == "t,q1,dq1,dq3,step"
    assert len(phase_rows) - 1 == sum(len(t.t) for t in summary.trajectories)
    time_rows = files["step_times.csv"].read_text().splitlines()
    assert time_rows[0] == "step,t_start,t_end,step_time,zdelta"
    assert len(time_rows) - 1 == 2


def test_sweep_outputs(tmp_path):
    cfg = replace(T.SimConfig(), n_steps=1, max_step_time=0.05)
    spec = T.SweepSpec(axis="torso_mass", rel_range=(0.0, 0.0), n_samples=1,
                       base=cfg)
    rows = [summarize_gait(T.run_gait(spec.sample_config(0)), index=0,
                           axis=spec.axis, value=spec.sample_values()[0])]
    files = emit_sweep_outputs(rows, T.make_manifest(spec), tmp_path)
    table = files["sweep.csv"].read_text().splitlines()
    assert table[0] == ("index,axis,value,completed_steps,aborted,converged,"
                        "step_time,rho_hat,worst_z_delta")
    assert "true" in table[1]          # the aborted flag
    assert "nan" in table[1]           # no statistics from an aborted run
    data = json.loads(files["sweep.json"].read_text())
    assert data["samples"][0]["rho_hat"] is None
    assert "StepTimeoutError" in data["samples"][0]["abort_reason"]


def test_orbit_outputs(tmp_path):
    orbit = T.PeriodicOrbit(
        x_star=np.arange(6.0), omega_I_star=np.zeros(2), step_time=0.5,
        rho_hat=0.8, iterations=3, distances=np.array([1.0, 0.1, 0.01]),
        tol=0.05)
    files = T.emit_orbit_outputs(orbit, T.make_manifest(T.SimConfig()),
                                 tmp_path)
    data = json.loads(files["orbit.json"].read_text())
    assert data["x_star"] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert data["iterations"] == 3
    assert data["tol"] == 0.05
    manifest = json.loads(files["manifest.json"].read_text())
    assert manifest["outputs"].keys() == {"orbit.json"}
