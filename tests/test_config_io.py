"""Config text format, run manifests, and bit-stable output files."""

import hashlib
import json
import math
import operator
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import triped as T
from triped.analysis import summarize_gait
from triped.config_io import (_ANGLE, _FLOAT, _SCHEMA, TRAJECTORY_HEADER,
                              emit_sweep_outputs)
from triped.params import (ERROR_WEIGHTINGS, INTEGRATOR_RESETS,
                           MAX_SAMPLES_PER_SWING, get_path, set_path)


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
    spec = T.SweepSpec(axis="plant.torso_mass", rel_range=(-0.3, 0.3),
                       n_samples=4, base=modified_config())
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

#: The path of every float field a config file sets, which is its sweep
#: axis; ``_AXES`` adds the one derived axis.
_AXIS_PATHS = [path for section, keys in _SCHEMA.items() if section != "sweep"
               for kind, path in keys.values() if kind in (_FLOAT, _ANGLE)]
_AXES = ["all_masses", *_AXIS_PATHS]


def _validates(spec) -> bool:
    try:
        spec.validate()
    except T.ConfigValidationError:
        return False
    return True


_SWEEP_SPECS = _every_field(
    T.SweepSpec,
    axis=st.sampled_from(_AXES),
    rel_range=st.lists(st.floats(-1.0, 1.0, exclude_min=True),
                       min_size=2, max_size=2).map(sorted).map(tuple),
    n_samples=st.integers(1, 10**4),
    base=_SIM_CONFIGS).filter(_validates)


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
    ("[sim]\nstrict_scuff = maybe\n", 2),
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
    (replace(T.SimConfig(), initial_state=np.array(T.nominal_initial_state())),
     "initial_state"),
    (replace(T.SimConfig(), initial_state=list(T.nominal_initial_state())),
     "initial_state"),
    (T.SweepSpec(rel_range=[-0.1, 0.1]), "rel_range"),
    (T.SweepSpec(rel_range=np.array([-0.1, 0.1])), "rel_range"),
    (replace(T.SimConfig(), plant=None), "plant"),
    (replace(T.SimConfig(), controller=None), "controller"),
    (replace(T.SimConfig(), controller=replace(T.ControllerConfig(), gains=None)),
     "gains"),
    (replace(T.SimConfig(), controller=replace(T.ControllerConfig(),
                                               model=T.GaitTargets())), "model"),
    (replace(T.SimConfig(), controller=replace(T.ControllerConfig(),
                                               targets=None)), "targets"),
    (T.SweepSpec(base=T.ControllerConfig()), "base"),
    (replace(T.SimConfig(), incline_true=None), "incline_true"),
    (replace(T.SimConfig(), incline_true="0.4"), "incline_true"),
    (replace(T.ControllerConfig(), incline_assumed=None), "incline_assumed"),
    (replace(T.ControllerConfig(), error_weighting=np.array(["inertia"])),
     "error_weighting"),
    (replace(T.ControllerConfig(), error_weighting=np.array(ERROR_WEIGHTINGS)),
     "error_weighting"),
    (replace(T.ControllerConfig(), integrator_reset=np.array(["zero"])),
     "integrator_reset"),
    (replace(T.ControllerConfig(), integrator_reset=np.array(INTEGRATOR_RESETS)),
     "integrator_reset"),
], ids=["array-rows", "string-entry", "scalar-start", "fractional-steps",
        "bool-steps", "string-flag", "string-tolerance", "string-mass",
        "fractional-samples", "one-bound", "array-start", "list-start",
        "list-range", "array-range", "no-plant", "no-controller", "no-gains",
        "targets-as-model", "no-targets", "controller-as-base", "no-slope",
        "string-slope", "no-assumed-slope", "weighting-array",
        "weightings-array", "reset-array", "resets-array"])
def test_validate_refuses_wrongly_typed_values_by_key(config, key):
    # Python callers can put any object in a field; the config file's
    # parser types every value, so only this gate stands in their way.
    with pytest.raises(T.ConfigValidationError) as err:
        config.validate()
    assert err.value.keys == [key]


_OUT_OF_RANGE = [
    (T.RobotParams(gravity=-9.81), "gravity"),
    (T.GaitTargets(q1_switch=math.nan), "q1_switch"),
    (T.GaitTargets(q3_ref=math.inf), "q3_ref"),
    (T.ControllerGains(kp=0.0), "kp"),
    (T.ControllerGains(kd=math.nan), "kd"),
    (T.ControllerGains(ki=-1e-9), "ki"),
    (replace(T.ControllerConfig(), incline_assumed=math.pi / 2), "incline_assumed"),
    (replace(T.ControllerConfig(), error_weighting="Inertia"), "error_weighting"),
    (replace(T.ControllerConfig(), integrator_reset="reset"), "integrator_reset"),
    (replace(T.ControllerConfig(), det_floor=0.0), "det_floor"),
    (replace(T.SimConfig(), incline_true=-math.pi / 2), "incline_true"),
    (replace(T.SimConfig(), n_steps=0), "n_steps"),
    (replace(T.SimConfig(), delta=math.inf), "delta"),
    (T.SweepSpec(axis="n_steps"), "axis"),
    # A property reads as a float but is no field that a sample can set.
    pytest.param(T.SweepSpec(axis="plant.total_mass"), "axis", id="axis-property"),
    (T.SweepSpec(rel_range=(0.1, -0.1)), "rel_range"),
    (T.SweepSpec(n_samples=0), "n_samples"),
]


@pytest.mark.parametrize("config, key", _OUT_OF_RANGE,
                         ids=[getattr(case, "id", None) or case[1]
                              for case in _OUT_OF_RANGE])
def test_validate_refuses_out_of_range_values_by_key(config, key):
    with pytest.raises(T.ConfigValidationError) as err:
        config.validate()
    assert err.value.keys == [key]


_CONFIG_TYPES = (T.RobotParams, T.GaitTargets, T.ControllerGains,
                 T.ControllerConfig, T.SimConfig, T.SweepSpec)


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in _CONFIG_TYPES for f in fields(cls)],
    ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_every_config_field_is_gated(cls, name):
    # A field added without a rule in its class's validate() fails here.
    with pytest.raises(T.ConfigValidationError) as err:
        replace(cls(), **{name: None}).validate()
    assert err.value.keys == [name]


def test_one_error_names_every_bad_field():
    with pytest.raises(T.ConfigValidationError) as err:
        replace(T.SimConfig(), rel_tol=0.0, strict_scuff="no").validate()
    assert err.value.keys == ["rel_tol", "strict_scuff"]
    assert str(err.value) == ("rel_tol must be positive and finite; "
                              "strict_scuff must be a bool")


def test_numpy_integers_count_steps_and_samples():
    replace(T.SimConfig(), n_steps=np.int64(3)).validate()
    T.SweepSpec(n_samples=np.int64(2)).validate()


_ANY_NUMBER = st.floats() | st.integers()


def _odd_vectors(n):
    """Numbers, strings, ``None``, lists, arrays and tuples of floats, ``n``
    long among others, where a tuple of ``n`` finite numbers goes."""
    return st.one_of(
        st.none(), _ANY_NUMBER, st.text(),
        st.lists(_ANY_NUMBER | st.text(max_size=2)
                 | st.lists(_ANY_NUMBER, max_size=3), max_size=8),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        st.tuples(*[st.floats()] * n),
        arrays(np.float64, st.tuples(st.just(n), st.integers(0, 3))),
        arrays(np.float64, n))


def _or_odd(valid):
    """``valid``, or another object in its place: ``None``, a list, an array
    or a config object of another type."""
    return st.one_of(
        st.just(valid), st.none(), st.lists(st.floats(), max_size=6),
        arrays(np.float64, st.integers(0, 6)),
        st.sampled_from([T.RobotParams(), T.ControllerGains(), T.GaitTargets(),
                         T.ControllerConfig(), T.SimConfig()]))


#: Numbers, ``None``, text and small float arrays, where a number goes.
_ODD_NUMBERS = st.one_of(_ANY_NUMBER, st.none(), st.text(max_size=3),
                         arrays(np.float64, st.integers(0, 2)))


def _odd_choice(choices):
    """One of ``choices``, or ``None``, text or a string array of them."""
    return st.one_of(st.sampled_from(choices), st.none(), st.text(max_size=8),
                     arrays(np.str_, st.integers(1, 2),
                            elements=st.sampled_from(choices)))


_ODD_KEYS = {"plant", "controller", "gains", "model", "targets", "kp",
                    "kd", "ki", "q1_switch", "q3_ref", "error_weighting",
                    "integrator_reset", "det_floor"}


def _with_odd_fields(valid, **odd):
    """``valid`` with some of the named fields drawn from their strategies."""
    return st.fixed_dictionaries({}, optional=odd).map(
        lambda drawn: replace(valid, **drawn))


_CONTROLLERS = _or_odd(T.ControllerConfig()) | _with_odd_fields(
    T.ControllerConfig(),
    gains=_or_odd(T.ControllerGains()) | _with_odd_fields(
        T.ControllerGains(), kp=_ODD_NUMBERS, kd=_ODD_NUMBERS, ki=_ODD_NUMBERS),
    model=_or_odd(T.RobotParams()),
    targets=_or_odd(T.GaitTargets()) | _with_odd_fields(
        T.GaitTargets(), q1_switch=_ODD_NUMBERS, q3_ref=_ODD_NUMBERS),
    error_weighting=_odd_choice(ERROR_WEIGHTINGS),
    integrator_reset=_odd_choice(INTEGRATOR_RESETS), det_floor=_ODD_NUMBERS)


def assert_usable(config):
    """A config that passed ``validate()`` compares and hashes."""
    assert hash(config) == hash(replace(config))
    assert (config == type(config)()) in (True, False)


@settings(max_examples=300, deadline=None)
@given(cfg=_with_odd_fields(
    T.SimConfig(), initial_state=_odd_vectors(6), n_steps=_ANY_NUMBER,
    plant=_or_odd(T.RobotParams()), controller=_CONTROLLERS))
def test_validate_passes_or_refuses_by_key(cfg):
    """Whatever a caller puts in the start, the step count, the nested
    configs and the controller's fields, validation either refuses it by
    key or leaves what the simulator can run.  A random subset of the four
    fields is perturbed, so both branches are reached."""
    try:
        cfg.validate()
    except T.ConfigValidationError as err:
        event("refused")
        assert err.keys and set(err.keys) <= {"initial_state", "n_steps",
                                              *_ODD_KEYS}
        return
    event("passed")
    x0 = np.array(cfg.initial_state, dtype=float)
    assert x0.shape == (6,) and np.all(np.isfinite(x0))
    assert operator.index(cfg.n_steps) >= 1
    assert_usable(cfg)


@settings(max_examples=300, deadline=None)
@given(controller=_CONTROLLERS)
def test_controller_validate_passes_or_refuses_by_key(controller):
    """As above for the controller alone, whose odd values then also reach
    the passing side."""
    cfg = replace(T.SimConfig(), controller=controller)
    try:
        cfg.validate()
    except T.ConfigValidationError as err:
        assert err.keys and set(err.keys) <= _ODD_KEYS
        return
    assert_usable(cfg)


#: Paths that name no float field: a dataclass, an int, a bool, a tuple
#: index past the end, a float's index or attribute, a property, an index
#: written with a leading zero or in other digits.
_NO_FLOAT_FIELD = ["plant", "n_steps", "strict_scuff", "initial_state.6",
                   "plant.torso_mass.0", "incline_true.imag",
                   "plant.total_mass", "controller.gains.kp.real",
                   "initial_state.01", "initial_state.٣"]
_VALID_SWEEP = {
    "axis": st.sampled_from(_AXES),
    "rel_range": st.lists(st.floats(-0.5, 0.5), min_size=2,
                          max_size=2).map(sorted).map(tuple),
    "base": st.just(T.SimConfig())}
_ODD_SWEEP = {
    # Half of the odd axes are paths that name no float field (``|`` would
    # flatten the other half's six branches beside them).
    "axis": st.sampled_from([
        st.sampled_from(_NO_FLOAT_FIELD),
        st.one_of(st.sampled_from(_AXES), st.none(), st.integers(), st.text(),
                  st.lists(st.sampled_from(_AXES), max_size=2),
                  arrays(np.str_, 2, elements=st.sampled_from(_AXES)))]
    ).flatmap(lambda axes: axes),
    "rel_range": _odd_vectors(2),
    "base": _or_odd(T.SimConfig())}
#: A sweep's axis, range and base, at most one of them drawn odd, so that
#: each rule is reached with nothing else wrong beside it.
_SWEEP_FIELDS = st.sampled_from([None, *_VALID_SWEEP]).flatmap(
    lambda odd: st.fixed_dictionaries({
        name: (_ODD_SWEEP if name == odd else _VALID_SWEEP)[name]
        for name in _VALID_SWEEP}))


@settings(max_examples=200, deadline=None)
@given(sweep=_SWEEP_FIELDS)
# Paths that read as a float but name no field, beside a valid range and base
# so that only the axis rule stands between them and a sample.
@example(sweep={"axis": "incline_true.imag", "rel_range": (-0.1, 0.1),
                "base": T.SimConfig()})
@example(sweep={"axis": "plant.total_mass", "rel_range": (-0.1, 0.1),
                "base": T.SimConfig()})
@example(sweep={"axis": "controller.gains.kp.real", "rel_range": (-0.1, 0.1),
                "base": T.SimConfig()})
def test_sweep_validate_passes_or_refuses_by_key(sweep):
    spec = T.SweepSpec(**sweep)
    try:
        spec.validate()
    except T.ConfigValidationError as err:
        assert err.keys and set(err.keys) <= {"axis", "rel_range", "base"}
        return
    lo, hi = spec.rel_range
    assert math.isfinite(lo) and lo <= hi < math.inf
    for index in range(spec.n_samples):
        spec.sample_config(index).validate()
    assert_usable(spec)


@pytest.mark.parametrize("axis", _NO_FLOAT_FIELD)
def test_an_axis_that_names_no_float_field_is_refused(axis):
    # Beside a valid range and base, only the axis rule can refuse it.
    spec = T.SweepSpec(axis=axis, rel_range=(-0.1, 0.1), base=T.SimConfig())
    with pytest.raises(T.ConfigValidationError) as err:
        spec.validate()
    assert err.value.keys == ["axis"]


@pytest.mark.parametrize("axis, rel_range, key", [
    ("incline_true", (0.0, 3.0), "incline_true"),
    ("plant.torso_mass", (-1.0, 0.0), "torso_mass"),
    ("all_masses", (-1.0, -0.5), "leg_mass"),
    ("controller.gains.ki", (-2.0, 0.0), "ki"),
    ("sample_dt", (-0.999, 0.0), "sample_dt"),
    ("max_step_time", (0.0, 200.0), "max_step_time"),
], ids=["incline-past-90-deg", "no-torso-mass", "masses-to-zero",
        "negative-ki", "fine-grid", "long-swing"])
def test_sweeps_whose_samples_cannot_run_are_refused(axis, rel_range, key):
    # Each range has one end that runs and one that cannot, so validation
    # checks both ends, before any sample is integrated.
    spec = T.SweepSpec(axis=axis, rel_range=rel_range, n_samples=3)
    with pytest.raises(T.ConfigValidationError) as err:
        spec.validate()
    assert err.value.keys == ["rel_range"]
    assert key in str(err.value)


@settings(max_examples=100, deadline=None)
@given(axis=st.sampled_from(_AXES), data=st.data())
def test_every_float_config_field_is_a_sweep_axis(axis, data):
    lo, hi = sorted(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=2,
                                       max_size=2)))
    spec = T.SweepSpec(axis=axis, rel_range=(lo, hi),
                       n_samples=data.draw(st.integers(1, 20)))
    spec.validate()
    sample = spec.sample_config(data.draw(st.integers(0, spec.n_samples - 1)))
    # Putting back the base value at the swept path gives the base again.
    paths = ([f"plant.{k}" for k in ("leg_mass", "hip_mass", "torso_mass")]
             if axis == "all_masses" else [axis])
    for path in paths:
        sample = set_path(sample, path, get_path(spec.base, path))
    assert sample == spec.base


@pytest.mark.parametrize("path", [
    "plant.total_mass", "incline_true.imag", "initial_state.01",
    "initial_state.6", "initial_state.-1"])
def test_a_path_that_names_no_field_is_refused(path):
    # A property, a float's own attribute, and a tuple index that is not
    # written as str(i) or lies outside the tuple.
    with pytest.raises(ValueError, match=path):
        get_path(T.SimConfig(), path)
    with pytest.raises(ValueError, match=path):
        set_path(T.SimConfig(), path, 1.0)


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


def test_a_byte_order_mark_is_read_as_utf8(tmp_path):
    text = "[sim]\nn_steps = 3\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert T.parse_config(marked) == T.parse_config(plain)


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
    # Each phase row is its trajectory row's t, q1, dq1, dq3 and step,
    # string for string.
    trajectory_rows = files["trajectory.csv"].read_text().splitlines()
    for phase, full in zip(phase_rows[1:], trajectory_rows[1:], strict=True):
        cells = full.split(",")
        assert phase.split(",") == [cells[i] for i in (0, 1, 4, 6, 14)]
    time_rows = files["step_times.csv"].read_text().splitlines()
    assert time_rows[0] == "step,t_start,t_end,step_time,zdelta"
    assert len(time_rows) - 1 == 2
    for name in ("trajectory.csv", "phase.csv", "step_times.csv"):
        data = files[name].read_bytes()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n"), name
        assert b"\r" not in data, name


def test_a_failed_emit_leaves_no_manifest(two_step_outputs, tmp_path):
    # The second swing's q is a row short, so formatting its rows fails
    # after the first swing is on disk: the stale manifest must be gone.
    _, summary, manifest, _ = two_step_outputs
    T.emit_outputs(summary, manifest, tmp_path)
    first, second = summary.trajectories
    broken = replace(summary, trajectories=[first,
                                            replace(second, q=second.q[:-1])])
    with pytest.raises(ValueError):
        T.emit_outputs(broken, manifest, tmp_path)
    assert not (tmp_path / "manifest.json").exists()


def emit_peak_bytes(summary, outdir) -> int:
    """tracemalloc peak of emit_outputs above what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        T.emit_outputs(summary, T.make_manifest(summary.config), outdir)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_emit_memory_does_not_grow_with_the_gait(two_step_outputs,
                                                  tmp_path):
    # The sampled files are written one swing at a time, so four times the
    # steps costs about the same memory (a whole-file writer costs ~4x).
    _, summary, _, _ = two_step_outputs
    short = emit_peak_bytes(summary, tmp_path / "short")
    long = emit_peak_bytes(T.run_gait(replace(summary.config, n_steps=8)),
                           tmp_path / "long")
    assert long < 1.5 * short, (short, long)


def test_emit_memory_does_not_grow_with_the_samples_in_a_swing(tmp_path):
    # The rows of a swing are formatted a fixed number at a time, so four
    # times the samples in one step costs about the same memory.
    base = replace(T.SimConfig(), n_steps=1, max_step_time=1.0)
    coarse, fine = (
        emit_peak_bytes(T.run_gait(replace(base, sample_dt=dt)), tmp_path / name)
        for dt, name in ((1e-4, "coarse"), (2.5e-5, "fine")))
    assert fine < 2 * coarse, (coarse, fine)


def aborted_sweep():
    """A one-sample sweep whose gait times out: (spec, rows)."""
    cfg = replace(T.SimConfig(), n_steps=1, max_step_time=0.05)
    spec = T.SweepSpec(axis="plant.torso_mass", rel_range=(0.0, 0.0),
                       n_samples=1, base=cfg)
    return spec, [summarize_gait(T.run_gait(spec.sample_config(0)), index=0,
                                 axis=spec.axis,
                                 value=spec.sample_values()[0])]


def made_up_orbit():
    return T.PeriodicOrbit(
        x_star=np.arange(6.0), omega_I_star=np.zeros(2), step_time=0.5,
        rho_hat=0.8, iterations=3, distances=np.array([1.0, 0.1, 0.01]),
        tol=0.05)


def test_sweep_outputs(tmp_path):
    spec, rows = aborted_sweep()
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
    files = T.emit_orbit_outputs(made_up_orbit(),
                                 T.make_manifest(T.SimConfig()), tmp_path)
    data = json.loads(files["orbit.json"].read_text())
    assert data["x_star"] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert data["iterations"] == 3
    assert data["tol"] == 0.05
    manifest = json.loads(files["manifest.json"].read_text())
    assert manifest["outputs"].keys() == {"orbit.json"}


def test_every_manifest_digests_the_bytes_on_disk(two_step_outputs, tmp_path):
    # Each emitter returns exactly the files of its run directory, and the
    # manifest's digest of each data file is that of the file as written.
    spec, rows = aborted_sweep()
    runs = [two_step_outputs[3],
            emit_sweep_outputs(rows, T.make_manifest(spec),
                               tmp_path / "sweep"),
            T.emit_orbit_outputs(made_up_orbit(),
                                 T.make_manifest(T.SimConfig()),
                                 tmp_path / "orbit")]
    for files in runs:
        outdir = files["manifest.json"].parent
        assert {p.name for p in outdir.iterdir()} == set(files)
        assert all(path == outdir / name for name, path in files.items())
        outputs = json.loads(files["manifest.json"].read_text())["outputs"]
        assert outputs == {
            name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in files if name != "manifest.json"}
