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

The constant factors of ``M``, ``C dq`` and ``G`` are stated once, in
:func:`inertia_coefficients` and :func:`gravity_amplitudes`.

Every closed form in this module is certified against an independent
symbolic Lagrangian derivation in :mod:`triped.verification`.

Batches
-------
Every function here, and the reference functions of :mod:`triped.impact`,
:mod:`triped.reduced` and :mod:`triped.control` built on them, also takes a
stack of states.  Leading axes are a batch and the last axis holds the
components: ``q`` is ``(..., 3)`` and a matrix is ``(..., rows, cols)``, as
:mod:`numpy.linalg` stacks them.  Robot parameters broadcast the same way: a
:class:`~triped.params.RobotParams` whose fields are ``(n,)`` arrays gives
each of ``n`` states its own robot.  One state is the batch shape ``()``, and
a result that is then 0-d is a Python ``float``.  Entry ``i`` of a batched
result equals, bit for bit, the call on state ``i`` alone: every entry takes
the same operations in the same order, and the helpers below keep the
matrix products and solves of one state on the same BLAS and LAPACK calls.
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


# ---------------------------------------------------------------------------
# Batch helpers: leading axes are the batch, the last axis the components
# ---------------------------------------------------------------------------

def unstack(x) -> np.ndarray:
    """The components of ``x`` along its last axis, to unpack:
    ``q1, q2, q3 = unstack(q)``."""
    x = np.asarray(x, dtype=float)
    return x.transpose(-1, *range(x.ndim - 1))


def _stacked(entries: list, shape: tuple) -> np.ndarray:
    """The entries (scalars or arrays) broadcast together, as one C-ordered
    array whose last axes are ``shape``, the entries in row-major order."""
    entries = np.broadcast_arrays(
        *(np.asarray(entry, dtype=float) for entry in entries))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + shape)


def stack_vector(*entries) -> np.ndarray:
    """The entries stacked along a new last axis, their batches broadcast."""
    return _stacked(list(entries), (len(entries),))


def stack_matrix(rows) -> np.ndarray:
    """``np.array(rows)`` for entries that may be batches: the entries
    broadcast together and the result is ``(..., len(rows), len(rows[0]))``."""
    return _stacked([entry for row in rows for entry in row],
                    (len(rows), len(rows[0])))


def matvec(a, v) -> np.ndarray:
    """Matrix-vector product ``a @ v`` over a batch of either."""
    return (a @ v[..., None])[..., 0]


def dot(u, v) -> np.ndarray:
    """Inner product ``u @ v`` over a batch of either."""
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def quadratic(u, a, v) -> np.ndarray:
    """``u @ a @ v``, evaluated left to right, over a batch of any of them."""
    return (u[..., None, :] @ a @ v[..., None])[..., 0, 0]


def solve_vector(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for vectors ``b`` whose batch includes ``a``'s."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def float_if_scalar(x):
    """A 0-d result as a Python ``float``; a batch as it is."""
    return float(x) if getattr(x, "ndim", 0) == 0 else x


def raise_for_states(error: type, bad, describe) -> None:
    """Raise ``error`` when the boolean batch mask ``bad`` is true anywhere.

    ``describe(index)`` gives the message for the state at ``index`` into
    the batch (``()`` for one state); the first bad state is described.  A
    batch's message adds how many states are bad and where the first is,
    and the exception carries the mask as ``error.bad``.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return
    first = tuple(int(i) for i in np.argwhere(bad)[0])
    message = describe(first)
    if bad.ndim:
        message += (f" (at {np.count_nonzero(bad)} of {bad.size} states, "
                    f"first at index {', '.join(map(str, first))})")
    raise error(message, bad=bad)


# ---------------------------------------------------------------------------
# Equations of motion
# ---------------------------------------------------------------------------

def inertia_coefficients(p: RobotParams) -> tuple:
    """Constant factors ``(a, cb, cc, d, e)`` of the inertia matrix.

    ``M = [[a, -cb cos(q1 - q2), cc cos(q1 - q3)], [., d, 0], [., 0, e]]``
    (symmetric), and the same ``cb``, ``cc`` scale the velocity forces
    ``C dq = (-cb s12 dq2^2 + cc s13 dq3^2, cb s12 dq1^2, -cc s13 dq1^2)``
    with ``s12 = sin(q1 - q2)``, ``s13 = sin(q1 - q3)``.  ``d``, ``e`` are
    the inertias of a leg and of the torso about the hip.
    """
    m, mh, mt = p.leg_mass, p.hip_mass, p.torso_mass
    r, l = p.leg_length, p.torso_length
    return ((4.0 * mh + 4.0 * mt + 5.0 * m) * r * r / 4.0,
            m * r * r / 2.0, mt * l * r, m * r * r / 4.0, mt * l * l)


def gravity_amplitudes(p: RobotParams) -> tuple:
    """Amplitudes of ``G = (g1 sin(q1 - lam), -g2 sin(q2 - lam), g3 sin(q3 - lam))``."""
    g, m, mh, mt = p.gravity, p.leg_mass, p.hip_mass, p.torso_mass
    r, l = p.leg_length, p.torso_length
    return (g * r * (2.0 * mh + 2.0 * mt + 3.0 * m) / 2.0, g * m * r / 2.0,
            mt * g * l)


def inertia_matrix(q, p: RobotParams) -> np.ndarray:
    """Mass-inertia matrix ``M(q)`` of the pinned chain (3x3, symmetric PD)."""
    q1, q2, q3 = unstack(q)
    a, cb, cc, d, e = inertia_coefficients(p)
    m12 = -cb * np.cos(q1 - q2)
    m13 = cc * np.cos(q1 - q3)
    return stack_matrix([[a, m12, m13], [m12, d, 0.0], [m13, 0.0, e]])


def gravity_torque(q, p: RobotParams, incline) -> np.ndarray:
    """Gravity torque ``G(q) = -dV/dq`` on a slope of the given angle."""
    q1, q2, q3 = unstack(q)
    g1, g2, g3 = gravity_amplitudes(p)
    return stack_vector(g1 * np.sin(q1 - incline), -g2 * np.sin(q2 - incline),
                        g3 * np.sin(q3 - incline))


def coriolis_matrix(q, dq, p: RobotParams) -> np.ndarray:
    """Christoffel matrix ``C(q, dq)``; the velocity force is ``C @ dq``.

    Built from the Levi-Civita connection of ``M``, so it satisfies the
    skew-symmetry property ``v.T @ (dM/dt - 2C) @ v = 0``.
    """
    q1, q2, q3 = unstack(q)
    d1, d2, d3 = unstack(dq)
    _, cb, cc, _, _ = inertia_coefficients(p)
    s12 = np.sin(q1 - q2)
    s13 = np.sin(q1 - q3)
    return stack_matrix([
        [0.0, -cb * s12 * d2, cc * s13 * d3],
        [cb * s12 * d1, 0.0, 0.0],
        [-cc * s13 * d1, 0.0, 0.0],
    ])


def velocity_forces(q, dq, p: RobotParams) -> np.ndarray:
    """Quadratic velocity forces ``C(q, dq) @ dq`` (3-vector)."""
    return matvec(coriolis_matrix(q, dq, p), np.asarray(dq, dtype=float))


def swing_accel(q, dq, u, p: RobotParams, incline) -> np.ndarray:
    """Joint accelerations ``ddq = M^-1 (G + B u - C dq)``.

    Raises:
        NonFiniteStateError: if any input component is not finite.
    """
    q = np.asarray(q, dtype=float)
    dq = np.asarray(dq, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(dq)) and np.all(np.isfinite(u))):
        raise NonFiniteStateError("non-finite state or torque in swing_accel")
    rhs = (gravity_torque(q, p, incline) + matvec(INPUT_MATRIX, u)
           - velocity_forces(q, dq, p))
    return solve_vector(inertia_matrix(q, p), rhs)


# ---------------------------------------------------------------------------
# Kinematics (slope frame, stance foot at origin)
# ---------------------------------------------------------------------------

def _link(theta, length) -> np.ndarray:
    """A link of the given length at absolute angle ``theta``."""
    return stack_vector(length * np.sin(theta), length * np.cos(theta))


def hip_position(q, p: RobotParams) -> np.ndarray:
    """Hip location: distance ``leg_length`` along the stance leg."""
    return _link(unstack(q)[0], p.leg_length)


def swing_foot_position(q, p: RobotParams) -> np.ndarray:
    """Swing-foot location: from the hip, back down the swing leg."""
    return hip_position(q, p) - _link(unstack(q)[1], p.leg_length)


def swing_foot_height(q, p: RobotParams):
    """Swing-foot clearance above the slope surface (slope-frame ``y``).

    Zero when the legs are symmetric (``q2 = -q1``); negative means the foot
    is below the walking surface (a scuff).  A float for one configuration,
    an array over the batch for a stack of them.
    """
    q1, q2, _ = unstack(q)
    return float_if_scalar(p.leg_length * (np.cos(q1) - np.cos(q2)))


def mass_points(q, p: RobotParams) -> list[tuple[float, np.ndarray]]:
    """The four point masses as ``(mass, slope-frame position)`` pairs."""
    q1, q2, q3 = unstack(q)
    hip = hip_position(q, p)
    return [
        (p.leg_mass, _link(q1, 0.5 * p.leg_length)),
        (p.leg_mass, hip - _link(q2, 0.5 * p.leg_length)),
        (p.hip_mass, hip),
        (p.torso_mass, hip + _link(q3, p.torso_length)),
    ]


def potential_energy(q, p: RobotParams, incline) -> float:
    """Gravitational potential, measured from the stance foot's world height."""
    s, c = np.sin(incline), np.cos(incline)
    return float_if_scalar(sum(mass * p.gravity * (pos[..., 0] * s + pos[..., 1] * c)
                               for mass, pos in mass_points(q, p)))


def kinetic_energy(q, dq, p: RobotParams) -> float:
    """Kinetic energy ``0.5 dq.T M(q) dq``."""
    dq = np.asarray(dq, dtype=float)
    return float_if_scalar(quadratic(0.5 * dq, inertia_matrix(q, p), dq))


def total_energy(q, dq, p: RobotParams, incline) -> float:
    """Total mechanical energy of the swing phase."""
    return kinetic_energy(q, dq, p) + potential_energy(q, p, incline)
