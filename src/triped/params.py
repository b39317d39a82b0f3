"""Parameter and configuration types shared across the package.

All angles stored here are radians and all other quantities SI.  Degree
conversion happens only at the configuration-file boundary
(:mod:`triped.config_io`).  Every container is a frozen dataclass: a
simulation owns exactly one configuration and never mutates it, which is what
makes sweep samples independent and runs reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

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


def _finite_vector(value, n: int) -> bool:
    """Whether ``value`` is a sequence of ``n`` numbers that :func:`_finite`
    accepts."""
    try:
        return len(value) == n and all(_finite(v) for v in value)
    except TypeError:  # no length: a scalar, or an array of no dimensions
        return False


def _count(value) -> bool:
    """Whether ``value`` is an integer >= 1 (numpy's included, not a bool)."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 1)


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
        bad = [name for name in ("leg_mass", "hip_mass", "torso_mass",
                                 "leg_length", "torso_length", "gravity")
               if not (_finite(getattr(self, name)) and getattr(self, name) > 0.0)]
        if bad:
            raise ConfigValidationError(
                f"robot parameters must be positive and finite: {', '.join(bad)}", keys=bad)

    def scaled_masses(self, factor: float) -> "RobotParams":
        """Return a copy with all three masses multiplied by ``factor``."""
        return replace(self, leg_mass=self.leg_mass * factor,
                       hip_mass=self.hip_mass * factor,
                       torso_mass=self.torso_mass * factor)

    @property
    def total_mass(self) -> float:
        """Total mass of the robot (two legs + hip + torso tip)."""
        return 2.0 * self.leg_mass + self.hip_mass + self.torso_mass


def validate_incline(incline: float, *, key: str = "incline") -> None:
    """Reject slopes at or beyond vertical (|angle| >= 90 deg)."""
    if not (_finite(incline) and abs(incline) < math.pi / 2):
        raise ConfigValidationError(
            f"{key} must satisfy |angle| < 90 deg, got {math.degrees(incline):.3f} deg",
            keys=[key])


@dataclass(frozen=True)
class GaitTargets:
    """Reference angles defining the gait.

    ``q1_switch`` is the stance-leg angle at which a step ends (the switching
    surface); ``q3_ref`` is the desired torso angle held by the controller.
    """

    q1_switch: float = math.radians(15.0)
    q3_ref: float = math.radians(105.0)

    def validate(self) -> None:
        bad = [k for k in ("q1_switch", "q3_ref") if not _finite(getattr(self, k))]
        if bad:
            raise ConfigValidationError("gait targets must be finite", keys=bad)


@dataclass(frozen=True)
class ControllerGains:
    """PID gains for the error-space controller."""

    kp: float = 1500.0
    kd: float = 1250.0
    ki: float = 120.0

    def validate(self) -> None:
        bad = []
        if not (_finite(self.kp) and self.kp > 0):
            bad.append("kp")
        if not (_finite(self.kd) and self.kd > 0):
            bad.append("kd")
        if not (_finite(self.ki) and self.ki >= 0):
            bad.append("ki")
        if bad:
            raise ConfigValidationError(
                "gains must satisfy kp > 0, kd > 0, ki >= 0", keys=bad)


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
        self.gains.validate()
        self.model.validate()
        self.targets.validate()
        validate_incline(self.incline_assumed, key="incline_assumed")
        if self.error_weighting not in ERROR_WEIGHTINGS:
            raise ConfigValidationError(
                f"error_weighting must be one of {ERROR_WEIGHTINGS}", keys=["error_weighting"])
        if self.integrator_reset not in INTEGRATOR_RESETS:
            raise ConfigValidationError(
                f"integrator_reset must be one of {INTEGRATOR_RESETS}", keys=["integrator_reset"])
        if not (_finite(self.det_floor) and self.det_floor > 0):
            raise ConfigValidationError("det_floor must be positive", keys=["det_floor"])


def nominal_initial_state() -> tuple[float, ...]:
    """Pre-impact state of the reference gait: on the switching surface, on
    the zero-dynamics manifold, with stance-leg rate 1.168 rad/s.

    Returns a plain 6-tuple ``(q1, q2, q3, dq1, dq2, dq3)``; the simulator
    accepts any sequence of six floats.
    """
    q1 = math.radians(15.0)
    return (q1, -q1, math.radians(105.0), 1.168, -1.168, 0.0)


#: Bound on ``max_step_time / sample_dt`` (the default's is 1,000): a swing
#: holds about a kilobyte per sample, so a finer grid could exhaust memory.
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
        self.plant.validate()
        self.controller.validate()
        validate_incline(self.incline_true, key="incline_true")
        bad = [] if _count(self.n_steps) else ["n_steps"]
        for k in ("rel_tol", "abs_tol", "max_step_time", "delta", "scuff_tol", "sample_dt"):
            v = getattr(self, k)
            if not (_finite(v) and v > 0):
                bad.append(k)
        if not _finite_vector(self.initial_state, 6):
            bad.append("initial_state")
        if not isinstance(self.strict_scuff, bool):
            bad.append("strict_scuff")
        if bad:
            raise ConfigValidationError(
                "simulation settings must be positive and finite (n_steps an "
                "integer >= 1, initial_state six finite numbers, strict_scuff "
                "a bool)", keys=bad)
        if not self.max_step_time / self.sample_dt <= MAX_SAMPLES_PER_SWING:
            raise ConfigValidationError(
                f"max_step_time / sample_dt may be at most {MAX_SAMPLES_PER_SWING}"
                " samples per swing", keys=["max_step_time", "sample_dt"])


#: Plant parameters a sweep may perturb, plus the true incline.
SWEEP_AXES = ("leg_mass", "hip_mass", "torso_mass", "leg_length", "torso_length",
              "all_masses", "incline_true")


@dataclass(frozen=True)
class SweepSpec:
    """A one-dimensional robustness sweep around a base configuration.

    The axis value for sample ``i`` of ``n_samples`` is
    ``base * (1 + lo + i*(hi - lo)/(n_samples - 1))`` — multiplicative
    perturbations, so "+50% mass" is ``rel_range=(0.5, 0.5)`` with one sample
    and an incline sweep of 20..26 deg about 25 deg is
    ``rel_range=(-0.2, 0.04)`` with 7 samples.  Only the plant (or the true
    incline) is perturbed; the controller keeps its nominal model.
    """

    axis: str = "all_masses"
    rel_range: tuple[float, float] = (-0.5, 0.5)
    n_samples: int = 5
    base: SimConfig = field(default_factory=SimConfig)

    def validate(self) -> None:
        self.base.validate()
        if self.axis not in SWEEP_AXES:
            raise ConfigValidationError(
                f"sweep axis must be one of {SWEEP_AXES}", keys=["axis"])
        if not _count(self.n_samples):
            raise ConfigValidationError("n_samples must be an integer >= 1",
                                        keys=["n_samples"])
        if not (_finite_vector(self.rel_range, 2)
                and self.rel_range[0] <= self.rel_range[1]):
            raise ConfigValidationError("rel_range must be finite with lo <= hi",
                                        keys=["rel_range"])
        if self.axis != "incline_true" and self.rel_range[0] <= -1.0:
            raise ConfigValidationError(
                "relative perturbation at or below -100% makes a physical "
                "parameter non-positive", keys=["rel_range"])

    def sample_values(self) -> list[float]:
        """Absolute axis values for each sample, low to high."""
        base_value = (self.base.incline_true if self.axis == "incline_true"
                      else getattr(self.base.plant, "leg_mass" if self.axis == "all_masses"
                                   else self.axis))
        lo, hi = self.rel_range
        if self.n_samples == 1:
            rels = [0.5 * (lo + hi)]
        else:
            span = hi - lo
            rels = [lo + i * span / (self.n_samples - 1) for i in range(self.n_samples)]
        if self.axis == "all_masses":
            # Report the factor itself; all three masses are scaled by it.
            return [1.0 + rel for rel in rels]
        return [base_value * (1.0 + rel) for rel in rels]

    def sample_config(self, index: int) -> SimConfig:
        """Build the perturbed :class:`SimConfig` for one sample."""
        value = self.sample_values()[index]
        if self.axis == "incline_true":
            return replace(self.base, incline_true=value)
        if self.axis == "all_masses":
            return replace(self.base, plant=self.base.plant.scaled_masses(value))
        return replace(self.base, plant=replace(self.base.plant, **{self.axis: value}))
