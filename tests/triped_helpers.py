"""Canonical study configurations and batch helpers shared by the tests.

Imported by name (``from triped_helpers import ...``); a module named
``conftest`` would be shadowed by another test tree's conftest when both
trees are collected in one run.
"""

import math
from dataclasses import fields, replace

import numpy as np

import triped as T

#: Initial condition of the large-transient study: leaning torso, legs mid
#: stride, modest rates.  Used by the robustness and mismatch fixtures.
TRANSIENT_IC = (math.radians(11.25), math.radians(-15.0), math.radians(112.0),
                1.3, -1.4, 0.0)


def transient_config(**overrides) -> T.SimConfig:
    """Reference-slope config started at TRANSIENT_IC with a 110-deg torso."""
    base = T.SimConfig()
    controller = replace(
        base.controller,
        targets=T.GaitTargets(q1_switch=math.radians(15.0),
                              q3_ref=math.radians(110.0)))
    settings = {"controller": controller, "initial_state": TRANSIENT_IC,
                "n_steps": 30, **overrides}
    return replace(base, **settings)


def downhill_config(**overrides) -> T.SimConfig:
    """Downhill config: 15-deg declining slope, torso held vertical."""
    base = T.SimConfig()
    controller = replace(
        base.controller,
        incline_assumed=math.radians(-15.0),
        targets=T.GaitTargets(q1_switch=math.radians(15.0), q3_ref=0.0))
    initial = (math.radians(12.85), math.radians(-11.25), math.radians(2.0),
               4.0, -3.9, 0.0)
    settings = {"incline_true": math.radians(-15.0), "controller": controller,
                "initial_state": initial, "n_steps": 30, **overrides}
    return replace(base, **settings)


def scaled_masses(leg=1.0, hip=1.0, torso=1.0) -> T.RobotParams:
    """Nominal geometry with each mass multiplied by the given factor."""
    p = T.RobotParams()
    return replace(p, leg_mass=p.leg_mass * leg, hip_mass=p.hip_mass * hip,
                   torso_mass=p.torso_mass * torso)


def stack_params(robots) -> T.RobotParams:
    """One :class:`RobotParams` whose fields are ``(n,)`` arrays, entry
    ``i`` from robot ``i``: the parameters of a batch of states."""
    return T.RobotParams(**{f.name: np.array([getattr(p, f.name) for p in robots])
                            for f in fields(T.RobotParams)})
