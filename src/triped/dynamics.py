"""Continuous swing-phase dynamics of the three-link walker.

Model summary
-------------
The walker is a planar kinematic chain pinned at the stance foot: stance leg
(absolute angle ``q1``), swing leg (``q2``), and torso (``q3``).  Angles are
measured from the normal to the slope surface, increasing toward the uphill
direction; rates are ``dq = (dq1, dq2, dq3)``.

All positions are expressed in the slope frame: ``x`` up the slope, ``y``
along the outward surface normal, origin at the stance foot.  A link at
absolute angle ``theta`` points along ``(sin(theta), cos(theta))``.  Gravity
acts along the world vertical, so the height of a point ``(x, y)`` above the
world horizontal is ``x*sin(incline) + y*cos(incline)``.

The equations of motion are ``M(q) ddq + C(q, dq) dq = G(q) + B u`` with

* ``M`` the symmetric positive-definite mass-inertia matrix,
* ``C dq`` the quadratic velocity (Christoffel) forces,
* ``G`` the gravity torque (``-dV/dq``),
* ``B`` mapping the two hip torques (stance-hip, swing-hip) into joint space.

Every closed form in this module is certified against an independent
symbolic Lagrangian derivation in :mod:`triped.verification`.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteStateError
from .params import RobotParams

#: Hip-torque input matrix: column 1 acts between torso and stance leg,
#: column 2 between torso and swing leg.
INPUT_MATRIX = np.array([[-1.0, 0.0],
                         [0.0, -1.0],
                         [1.0, 1.0]])


def inertia_matrix(q, p: RobotParams) -> np.ndarray:
    """Mass-inertia matrix ``M(q)`` of the pinned chain (3x3, symmetric PD)."""
    q1, q2, q3 = q
    m, mh, mt = p.leg_mass, p.hip_mass, p.torso_mass
    r, l = p.leg_length, p.torso_length
    m12 = -m * r * r * np.cos(q1 - q2) / 2.0
    m13 = mt * l * r * np.cos(q1 - q3)
    return np.array([
        [(4.0 * mh + 4.0 * mt + 5.0 * m) * r * r / 4.0, m12, m13],
        [m12, m * r * r / 4.0, 0.0],
        [m13, 0.0, mt * l * l],
    ])


def gravity_torque(q, p: RobotParams, incline: float) -> np.ndarray:
    """Gravity torque ``G(q) = -dV/dq`` on a slope of the given angle."""
    q1, q2, q3 = q
    m, mh, mt = p.leg_mass, p.hip_mass, p.torso_mass
    r, l, g = p.leg_length, p.torso_length, p.gravity
    return np.array([
        g * r * (2.0 * mh + 2.0 * mt + 3.0 * m) * np.sin(q1 - incline) / 2.0,
        -g * m * r * np.sin(q2 - incline) / 2.0,
        mt * g * l * np.sin(q3 - incline),
    ])


def coriolis_matrix(q, dq, p: RobotParams) -> np.ndarray:
    """Christoffel matrix ``C(q, dq)``; the velocity force is ``C @ dq``.

    Built from the Levi-Civita connection of ``M``, so it satisfies the
    skew-symmetry property ``v.T @ (dM/dt - 2C) @ v = 0``.
    """
    q1, q2, q3 = q
    d1, _, d3 = dq[0], dq[1], dq[2]
    m, mt = p.leg_mass, p.torso_mass
    r, l = p.leg_length, p.torso_length
    s12 = np.sin(q1 - q2)
    s13 = np.sin(q1 - q3)
    c = np.zeros((3, 3))
    c[0, 1] = -m * r * r * s12 * dq[1] / 2.0
    c[0, 2] = mt * l * r * s13 * d3
    c[1, 0] = m * r * r * s12 * d1 / 2.0
    c[2, 0] = -mt * l * r * s13 * d1
    return c


def velocity_forces(q, dq, p: RobotParams) -> np.ndarray:
    """Quadratic velocity forces ``C(q, dq) @ dq`` (3-vector)."""
    return coriolis_matrix(q, dq, p) @ np.asarray(dq, dtype=float)


def swing_accel(q, dq, u, p: RobotParams, incline: float) -> np.ndarray:
    """Joint accelerations ``ddq = M^-1 (G + B u - C dq)``.

    Raises:
        NonFiniteStateError: if any input component is not finite.
    """
    q = np.asarray(q, dtype=float)
    dq = np.asarray(dq, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(dq)) and np.all(np.isfinite(u))):
        raise NonFiniteStateError("non-finite state or torque in swing_accel")
    rhs = gravity_torque(q, p, incline) + INPUT_MATRIX @ u - velocity_forces(q, dq, p)
    return np.linalg.solve(inertia_matrix(q, p), rhs)


# ---------------------------------------------------------------------------
# Kinematics (slope frame, stance foot at origin)
# ---------------------------------------------------------------------------

def _link_dir(theta: float) -> np.ndarray:
    return np.array([np.sin(theta), np.cos(theta)])


def hip_position(q, p: RobotParams) -> np.ndarray:
    """Hip location: distance ``leg_length`` along the stance leg."""
    return p.leg_length * _link_dir(q[0])


def swing_foot_position(q, p: RobotParams) -> np.ndarray:
    """Swing-foot location: from the hip, back down the swing leg."""
    return hip_position(q, p) - p.leg_length * _link_dir(q[1])


def torso_tip_position(q, p: RobotParams) -> np.ndarray:
    """Torso tip location: from the hip, out along the torso link."""
    return hip_position(q, p) + p.torso_length * _link_dir(q[2])


def swing_foot_height(q, p: RobotParams):
    """Swing-foot clearance above the slope surface (slope-frame ``y``).

    Zero when the legs are symmetric (``q2 = -q1``); negative means the foot
    is below the walking surface (a scuff).  A float for one configuration;
    for an array whose first axis holds ``(q1, q2, q3)``, the array of
    clearances over the remaining axes.
    """
    height = p.leg_length * (np.cos(q[0]) - np.cos(q[1]))
    return float(height) if np.ndim(height) == 0 else height


def mass_points(q, p: RobotParams) -> list[tuple[float, np.ndarray]]:
    """The four point masses as ``(mass, slope-frame position)`` pairs."""
    hip = hip_position(q, p)
    return [
        (p.leg_mass, 0.5 * p.leg_length * _link_dir(q[0])),
        (p.leg_mass, hip - 0.5 * p.leg_length * _link_dir(q[1])),
        (p.hip_mass, hip),
        (p.torso_mass, hip + p.torso_length * _link_dir(q[2])),
    ]


def potential_energy(q, p: RobotParams, incline: float) -> float:
    """Gravitational potential, measured from the stance foot's world height."""
    s, c = np.sin(incline), np.cos(incline)
    return float(sum(mass * p.gravity * (pos[0] * s + pos[1] * c)
                     for mass, pos in mass_points(q, p)))


def kinetic_energy(q, dq, p: RobotParams) -> float:
    """Kinetic energy ``0.5 dq.T M(q) dq``."""
    dq = np.asarray(dq, dtype=float)
    return float(0.5 * dq @ inertia_matrix(q, p) @ dq)


def total_energy(q, dq, p: RobotParams, incline: float) -> float:
    """Total mechanical energy of the swing phase."""
    return kinetic_energy(q, dq, p) + potential_energy(q, p, incline)
