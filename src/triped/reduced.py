"""Output/shape/zero coordinates and the decoupled swing model.

The swing dynamics split into two channels once the state is rewritten in

* **output coordinates** ``q_e = (q3 - q3_ref, q1 + q2)`` — torso posture
  error and inter-leg angle sum, the quantities the controller regulates;
* **shape angles** ``alpha = 2 (q1 - q3)``, ``beta = 2 (q1 - q2)`` — the
  relative link angles that the inertia quantities actually depend on;
* the **zero coordinate** ``q1`` with rate ``omega1`` — the unactuated
  rocking of the whole chain over the stance foot that remains when the
  outputs are pinned to zero.

The change of coordinates is linear with determinant of magnitude one, so it
is a global diffeomorphism.  A round trip in floating point is exact only to
the last bit of the angles and rates (``q1 - (q1 - q2)`` rounds), so a
:class:`ReducedState` keeps the ``(q, dq)`` it was made from, and the terms
pushed forward from the full model are evaluated there.

In these coordinates the model reads::

    I_e(q_s) @ d(omega_e)/dt + tau_e + tau_g_e = B_e(q_s) @ u
    I_z(q_s) * d(omega1)/dt  + tau_z + tau_g_z = b_z(q_s) @ u

with ``I_e`` diagonal.  ``I_e``, ``I_z``, ``B_e`` and ``b_z`` are implemented
in closed form; the force terms ``tau_e, tau_z, tau_g_e, tau_g_z`` are
obtained by pushing the certified full model through the coordinate map
(:func:`reduced_forces`), which keeps the two descriptions equivalent by
construction.  Check (c) and the transcription report of
:mod:`triped.verification` certify that equivalence and the closed-form
input matrices against the full model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (float_if_scalar, gravity_torque, inertia_matrix,
                       matvec, stack_matrix, stack_vector, unstack,
                       velocity_forces)
from .params import GaitTargets, RobotParams

#: Output map: ``omega_e = OUTPUT_MAP @ dq`` (torso rate, leg-sum rate).
OUTPUT_MAP = np.array([[0.0, 0.0, 1.0],
                       [1.0, 1.0, 0.0]])


@dataclass(frozen=True)
class ReducedState:
    """Swing state in output/shape/zero coordinates.

    Attributes:
        q_e: output coordinates ``(q3 - q3_ref, q1 + q2)``.
        omega_e: output rates ``(dq3, dq1 + dq2)``.
        alpha: shape angle ``2 (q1 - q3)``.
        beta: shape angle ``2 (q1 - q2)``.
        omega_s: shape rates ``(d(alpha)/dt, d(beta)/dt)``.
        q, dq: the full-model state it was mapped from; the zero
            coordinate and its rate are ``q[..., 0]`` and ``dq[..., 0]``.

    For a batch of states (see :mod:`triped.dynamics`), the scalar fields
    are arrays over the batch and the pairs are ``(..., 2)``.
    """

    q_e: np.ndarray
    omega_e: np.ndarray
    alpha: float
    beta: float
    omega_s: np.ndarray
    q: np.ndarray
    dq: np.ndarray


def to_reduced(q, dq, targets: GaitTargets) -> ReducedState:
    """Map a swing state ``(q, dq)`` to output/shape/zero coordinates."""
    q, dq = np.asarray(q, dtype=float), np.asarray(dq, dtype=float)
    q1, q2, q3 = unstack(q)
    d1, d2, d3 = unstack(dq)
    return ReducedState(
        q_e=stack_vector(q3 - targets.q3_ref, q1 + q2),
        omega_e=matvec(OUTPUT_MAP, dq),
        alpha=float_if_scalar(2.0 * (q1 - q3)),
        beta=float_if_scalar(2.0 * (q1 - q2)),
        omega_s=stack_vector(2.0 * (d1 - d3), 2.0 * (d1 - d2)),
        q=q, dq=dq,
    )


def reduced_inertias(rs: ReducedState, p: RobotParams) -> tuple[np.ndarray, float]:
    """Output-channel inertia ``I_e`` (2x2 diagonal) and zero-channel ``I_z``,
    each a multiple of one shape-dependent factor ``k``."""
    k = (4.0 * p.hip_mass + 2.0 * p.torso_mass * (1.0 - np.cos(rs.alpha))
         + p.leg_mass * (3.0 - 2.0 * np.cos(rs.beta)))
    l, r = p.torso_length, p.leg_length
    i_e = stack_matrix([[l * l * k, 0.0], [0.0, r * r * k]])
    return i_e, float_if_scalar(r * r / 4.0 * k)


def quadratic_bracket(rs: ReducedState, p: RobotParams) -> np.ndarray:
    """Shape-velocity bracket ``I_e @ Gamma_e`` of the output channel (2x2).

    Linear in the shape rates and compatible with the output inertia:
    ``d(I_e)/dt - 2 * quadratic_bracket`` is exactly skew-symmetric, which is
    the defining property of the Levi-Civita connection used by the
    controller's covariant integrator.
    """
    m, mt = p.leg_mass, p.torso_mass
    l2, r2 = p.torso_length * p.torso_length, p.leg_length * p.leg_length
    sa, sb = np.sin(rs.alpha), np.sin(rs.beta)
    da, db = unstack(rs.omega_s)
    return stack_matrix([
        [mt * l2 * sa * da + m * l2 * sb * db,
         m * l2 * sb * da - mt * r2 * sa * db],
        [-m * l2 * sb * da + mt * r2 * sa * db,
         mt * r2 * sa * da + m * r2 * sb * db],
    ])


def reduced_forces(rs: ReducedState, p: RobotParams,
                   incline) -> tuple[np.ndarray, float, np.ndarray, float]:
    """Velocity and gravity forces of both channels, ``(tau_e, tau_z, tau_g_e, tau_g_z)``.

    Evaluated by pushing the full model through the coordinate map, so the
    decoupled equations hold identically: ``tau_e = I_e @ W_e @ M(q)^-1 @
    (C @ dq)`` and ``tau_g_e = -I_e @ W_e @ M(q)^-1 @ G`` (likewise for the
    zero channel through its first row).  The velocity terms are quadratic in
    the rates; the gravity terms are rate-independent.
    """
    q, dq = rs.q, rs.dq
    e, z = pushforward(rs, p, inertia_matrix(q, p), stack_vector(
        velocity_forces(q, dq, p), gravity_torque(q, p, incline)))
    return (e[..., 0], float_if_scalar(z[..., 0]),
            -e[..., 1], float_if_scalar(-z[..., 1]))


def pushforward(rs: ReducedState, p: RobotParams, inertia,
                forces) -> tuple[np.ndarray, np.ndarray]:
    """``I_e @ W_e @ M^-1 @ F`` and ``I_z * (M^-1 @ F)[0]``, for the full
    model's inertia ``M`` and columns ``F`` (``(..., 3, n)``) of its forces:
    ``F`` pushed into the output and zero channels."""
    i_e, i_z = reduced_inertias(rs, p)
    cols = np.linalg.solve(inertia, forces)
    return i_e @ (OUTPUT_MAP @ cols), np.expand_dims(i_z, -1) * cols[..., 0, :]


def input_matrix_e(rs: ReducedState, p: RobotParams) -> tuple[np.ndarray, np.ndarray]:
    """Torque maps ``B_e`` (2x2, output channel) and ``b_z`` (row, zero channel).

    Closed forms in the shape angles; check (c) and the transcription report
    of :mod:`triped.verification` certify them against the full model.
    """
    m, mt, mh = p.leg_mass, p.torso_mass, p.hip_mass
    r, l = p.leg_length, p.torso_length
    a2, b2 = rs.alpha / 2.0, rs.beta / 2.0
    ca2, cb2 = np.cos(a2), np.cos(b2)
    cmn, cpl = np.cos(a2 - b2), np.cos(a2 + b2)
    leg_term = (4.0 * mh + 3.0 * m - 2.0 * m * np.cos(rs.beta)) / mt
    b_e = stack_matrix([
        [leg_term + 4.0 * (r + l * ca2) / r,
         leg_term + 4.0 * (r + l * cmn + l * cpl) / r],
        [-4.0 * (l + r * ca2) * (2.0 * cb2 + 1.0) / l,
         -4.0 * (4.0 * mh + 2.0 * mt + 5.0 * m - 2.0 * mt * np.cos(rs.alpha)
                 + 2.0 * m * cb2) / m
         - 4.0 * (r * ca2 + r * cmn + r * cpl) / l],
    ])
    b_z = stack_vector(-r / l * ca2 - 1.0, -2.0 * cb2 - r / l * ca2)
    return b_e, b_z
