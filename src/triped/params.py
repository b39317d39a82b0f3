"""Parameter and configuration types shared across the package.

All angles stored here are radians and all other quantities SI.  Degree
conversion happens only at the configuration-file boundary
(:mod:`triped.config_io`).  Every container is a frozen dataclass: a
simulation owns exactly one configuration and never mutates it, which is what
makes sweep samples independent and runs reproducible.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigValidationError

#: Conventional standard gravity (m/s^2); a declared default, not a derived one.
DEFAULT_GRAVITY = 9.81


def _finite(value) -> bool:
    """Whether ``value`` is a real number (numpy's included, bools and
    strings not) that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _finite_tuple(value, n: int) -> bool:
    """Whether ``value`` is a tuple of ``n`` numbers that :func:`_finite`
    accepts.  A list or an array would leave its frozen config unhashable,
    and its ``==`` ambiguous."""
    return (isinstance(value, tuple) and len(value) == n
            and all(_finite(v) for v in value))


def _count(value) -> bool:
    """Whether ``value`` is an integer >= 1 (numpy's included, not a bool)."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 1)


def _refuse(owner, **rules) -> None:
    """Raise one :class:`ConfigValidationError` that names, in order, every
    field of ``owner`` whose rule fails.  A rule is a pair ``(test, text)``:
    ``test`` takes the field's value, ``text`` says what it must be."""
    bad = [name for name, (test, _) in rules.items()
           if not test(getattr(owner, name))]
    if bad:
        raise ConfigValidationError("; ".join(
            f"{name} must be {rules[name][1]}" for name in bad), keys=bad)


_POSITIVE = (lambda v: _finite(v) and v > 0, "positive and finite")
_NONNEGATIVE = (lambda v: _finite(v) and v >= 0, "non-negative and finite")
_FINITE = (_finite, "finite")
_COUNT = (_count, "an integer >= 1")
_INCLINE = (lambda v: _finite(v) and abs(v) < math.pi / 2,
            "finite with |angle| < 90 deg")


@functools.cache
def _instance(cls: type) -> tuple:
    """The rule that a field holds a ``cls``, such as a nested config."""
    return (lambda v: isinstance(v, cls), f"a {cls.__name__}")


@functools.cache
def _choice(choices: tuple[str, ...]) -> tuple:
    """The rule that a field is a ``str`` in ``choices``, not an array."""
    return (lambda v: isinstance(v, str) and v in choices,
            "one of " + ", ".join(choices))


def get_path(obj, path: str):
    """The field of ``obj`` at the dotted ``path``, as ``initial_state.3``: each
    part names a dataclass field or, as ``str(i)``, indexes a tuple; any other
    part (a property, a float's ``imag``, ``01``, ``-1``) is a ``ValueError``."""
    for part in path.split("."):
        if isinstance(obj, tuple) and part in map(str, range(len(obj))):
            obj = obj[int(part)]
        elif part in getattr(obj, "__dataclass_fields__", ()):
            obj = getattr(obj, part)
        else:
            raise ValueError(f"{path!r} names no field")
    return obj


def set_path(obj, path: str, value):
    """A copy of ``obj`` whose field at ``path`` holds ``value``; the whole
    path is checked, as :func:`get_path` checks it, before any copy."""
    get_path(obj, path)
    head, _, rest = path.partition(".")
    if rest:
        value = set_path(get_path(obj, head), rest, value)
    if isinstance(obj, tuple):
        return (*obj[:int(head)], value, *obj[int(head) + 1:])
    return replace(obj, **{head: value})


@dataclass(frozen=True)
class RobotParams:
    """Lumped-mass geometry of the planar three-link walker.

    Two straight legs of length ``leg_length`` meet at the hip, where
    ``hip_mass`` is concentrated; a torso link of length ``torso_length``
    extends from the hip with ``torso_mass`` at its tip; each leg carries
    ``leg_mass`` at its midpoint.  The stance foot acts as a frictionless
    pin that cannot slip.
    """

    leg_mass: float = 1.0
    hip_mass: float = 1.0
    torso_mass: float = 3.0
    leg_length: float = 1.0
    torso_length: float = 0.75
    gravity: float = DEFAULT_GRAVITY

    def validate(self) -> None:
        """Raise :class:`ConfigValidationError` unless all fields are positive."""
        _refuse(self, **{f.name: _POSITIVE for f in fields(self)})

    def scaled_masses(self, factor: float) -> "RobotParams":
        """Return a copy with all three masses multiplied by ``factor``."""
        return replace(self, leg_mass=self.leg_mass * factor,
                       hip_mass=self.hip_mass * factor,
                       torso_mass=self.torso_mass * factor)

    @property
    def total_mass(self) -> float:
        """Total mass of the robot (two legs + hip + torso tip)."""
        return 2.0 * self.leg_mass + self.hip_mass + self.torso_mass


@dataclass(frozen=True)
class GaitTargets:
    """Reference angles defining the gait.

    ``q1_switch`` is the stance-leg angle at which a step ends (the switching
    surface); ``q3_ref`` is the desired torso angle held by the controller.
    """

    q1_switch: float = math.radians(15.0)
    q3_ref: float = math.radians(105.0)

    def validate(self) -> None:
        _refuse(self, q1_switch=_FINITE, q3_ref=_FINITE)


@dataclass(frozen=True)
class ControllerGains:
    """PID gains for the error-space controller."""

    kp: float = 1500.0
    kd: float = 1250.0
    ki: float = 120.0

    def validate(self) -> None:
        _refuse(self, kp=_POSITIVE, kd=_POSITIVE, ki=_NONNEGATIVE)


#: PID error-vector conventions (see :mod:`triped.control` for the physics).
ERROR_WEIGHTINGS = ("raw", "inertia")
#: What happens to the integrator state when a step ends.
INTEGRATOR_RESETS = ("carry", "zero")


@dataclass(frozen=True)
class ControllerConfig:
    """Everything the controller is allowed to know.

    The controller sees only its own model of the robot (``model``) and its
    assumed slope (``incline_assumed``); the true plant lives in
    :class:`SimConfig` and is never passed to controller code.  That firewall
    is what the incline- and mass-mismatch studies exercise.
    """

    gains: ControllerGains = field(default_factory=ControllerGains)
    model: RobotParams = field(default_factory=RobotParams)
    incline_assumed: float = math.radians(25.0)
    targets: GaitTargets = field(default_factory=GaitTargets)
    #: "raw" drives the PID with the plain sine error vector; "inertia"
    #: weights it by the inverse error-space inertia.  See triped.control.
    error_weighting: str = "raw"
    #: "carry" keeps the integrator state across impacts; "zero" clears it.
    integrator_reset: str = "carry"
    #: Torque allocation aborts when |det B_e| falls at or below this floor.
    det_floor: float = 1e-6

    def validate(self) -> None:
        _refuse(self, gains=_instance(ControllerGains),
                model=_instance(RobotParams), targets=_instance(GaitTargets))
        self.gains.validate()
        self.model.validate()
        self.targets.validate()
        _refuse(self, incline_assumed=_INCLINE,
                error_weighting=_choice(ERROR_WEIGHTINGS),
                integrator_reset=_choice(INTEGRATOR_RESETS), det_floor=_POSITIVE)


def nominal_initial_state() -> tuple[float, ...]:
    """Pre-impact state of the reference gait: on the switching surface, on
    the zero-dynamics manifold, with stance-leg rate 1.168 rad/s.

    Returns a plain 6-tuple ``(q1, q2, q3, dq1, dq2, dq3)``, the form
    :attr:`SimConfig.initial_state` takes.
    """
    targets = GaitTargets()
    q1 = targets.q1_switch
    return (q1, -q1, targets.q3_ref, 1.168, -1.168, 0.0)


#: Bound on ``max_step_time / sample_dt`` (the default's is 1,000): running
#: a swing peaks near 0.85 kB per sample (``tracemalloc``, 54,000 samples),
#: so a finer grid could exhaust memory.
MAX_SAMPLES_PER_SWING = 100_000


@dataclass(frozen=True)
class SimConfig:
    """One complete closed-loop simulation setup."""

    plant: RobotParams = field(default_factory=RobotParams)
    incline_true: float = math.radians(25.0)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    n_steps: int = 20
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step_time: float = 5.0
    #: Radius of the neighborhood of the zero-dynamics manifold used for
    #: the per-step recurrence diagnostic.
    delta: float = 1.5e-3
    #: Swing-foot penetration depth (m) tolerated before strict mode aborts.
    scuff_tol: float = 5e-3
    #: Uniform trajectory sampling interval (s) for serialized output.
    sample_dt: float = 0.005
    #: Pre-impact state the gait starts from, ``(q1, q2, q3, dq1, dq2, dq3)``.
    initial_state: tuple[float, ...] = field(default_factory=nominal_initial_state)
    #: Abort a step whose swing foot penetrates deeper than ``scuff_tol``.
    strict_scuff: bool = False

    def validate(self) -> None:
        _refuse(self, plant=_instance(RobotParams),
                controller=_instance(ControllerConfig))
        self.plant.validate()
        self.controller.validate()
        _refuse(self, incline_true=_INCLINE, n_steps=_COUNT,
                **dict.fromkeys(("rel_tol", "abs_tol", "max_step_time", "delta",
                                 "scuff_tol", "sample_dt"), _POSITIVE),
                initial_state=(lambda v: _finite_tuple(v, 6),
                               "a tuple of six finite numbers"),
                strict_scuff=_instance(bool))
        if not self.max_step_time / self.sample_dt <= MAX_SAMPLES_PER_SWING:
            raise ConfigValidationError(
                f"max_step_time / sample_dt may be at most {MAX_SAMPLES_PER_SWING}"
                " samples per swing", keys=["max_step_time", "sample_dt"])


@dataclass(frozen=True)
class SweepSpec:
    """A one-dimensional robustness sweep around a base configuration.

    ``axis`` is the :func:`get_path` path of a float field of ``base``, as the
    config key table spells it (``incline_true``, ``plant.torso_mass``,
    ``initial_state.2``), or ``all_masses``, which scales the plant's three
    masses and reports the factor.  The value for sample ``i`` of
    ``n_samples`` is ``base * (1 + lo + i*(hi - lo)/(n_samples - 1))`` —
    multiplicative perturbations, so "+50% mass" is ``rel_range=(0.5, 0.5)``
    with one sample and an incline sweep of 20..26 deg about 25 deg is
    ``rel_range=(-0.2, 0.04)`` with 7 samples.  Only that field moves (a plant
    sweep leaves the controller's model nominal), and a field whose base value
    is zero, such as ``initial_state.5``, keeps it.
    """

    axis: str = "all_masses"
    rel_range: tuple[float, float] = (-0.5, 0.5)
    n_samples: int = 5
    base: SimConfig = field(default_factory=SimConfig)

    def _names_a_float(self, axis) -> bool:
        try:
            return isinstance(axis, str) and (
                axis == "all_masses"
                or isinstance(get_path(self.base, axis), float))
        except ValueError:
            return False

    def validate(self) -> None:
        _refuse(self, base=_instance(SimConfig))
        self.base.validate()
        _refuse(self, axis=(self._names_a_float,
                            "all_masses or the path of a float field"),
                rel_range=(lambda v: _finite_tuple(v, 2) and v[0] <= v[1],
                           "a tuple of two finite numbers with lo <= hi"),
                n_samples=_COUNT)
        # Every per-field rule is an interval and the samples are monotone
        # in their index, so the two end samples bound all the others.
        for index in {0, self.n_samples - 1}:
            try:
                self.sample_config(index).validate()
            except ConfigValidationError as err:
                raise ConfigValidationError(
                    f"sweep sample {index}: {err}", keys=["rel_range"]) from err

    def sample_values(self) -> list[float]:
        """Absolute axis values for each sample, in sample order."""
        (lo, hi), n = self.rel_range, self.n_samples
        rels = ([0.5 * (lo + hi)] if n == 1
                else [lo + i * (hi - lo) / (n - 1) for i in range(n)])
        if self.axis == "all_masses":
            # Report the factor itself; all three masses are scaled by it.
            return [1.0 + rel for rel in rels]
        base_value = get_path(self.base, self.axis)
        return [base_value * (1.0 + rel) for rel in rels]

    def sample_config(self, index: int) -> SimConfig:
        """Build the perturbed :class:`SimConfig` for one sample."""
        value = self.sample_values()[index]
        if self.axis == "all_masses":
            return replace(self.base, plant=self.base.plant.scaled_masses(value))
        return set_path(self.base, self.axis, value)
