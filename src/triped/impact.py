"""Instantaneous impact and leg-relabel reset between steps.

When the swing foot strikes the slope, the collision is modeled as a rigid,
perfectly plastic impulse: no rebound, no slip, and zero duration — positions
freeze while velocities jump.  The impulse problem is posed on the unpinned
chain (five coordinates: the three link angles plus the hip's Cartesian
position in the slope frame) with an impulsive reaction at the landing foot
that zeroes its velocity.  The former stance foot is assumed to lift off and
is released; both legs then swap roles so the next swing phase sees the same
pinned model.

In this formulation only the chain's mass matrix and the two contact
Jacobians matter: finite forces (gravity, torques, Coriolis) integrate to
zero over the instant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (float_if_scalar, inertia_matrix, mass_points, matvec,
                       quadratic, raise_for_states, solve_vector, stack_matrix,
                       stack_vector, unstack)
from .errors import DegenerateContactError, NonFiniteStateError
from .params import RobotParams

#: Leg-relabel matrix: swap stance and swing leg, torso unchanged.
RELABEL = np.array([[0.0, 1.0, 0.0],
                    [1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0]])

#: Condition floor for the 2x2 contact operator.
_CONTACT_DET_FLOOR = 1e-12


def free_mass_matrix(q, p: RobotParams) -> np.ndarray:
    """Mass matrix of the unpinned chain, coordinates ``(q1, q2, q3, hip)``.

    Leg masses sit half a leg below the hip along their respective legs, the
    hip mass at the hip, and the torso mass a torso-length out along the
    torso link.  The Cartesian block is ``total_mass * I`` as it must be for
    a rigid body's base coordinates.
    """
    q1, q2, q3 = unstack(q)
    m, mt = p.leg_mass, p.torso_mass
    r, l = p.leg_length, p.torso_length
    leg = m * r * r / 4.0
    c1, s1 = -m * r * np.cos(q1) / 2.0, m * r * np.sin(q1) / 2.0
    c2, s2 = -m * r * np.cos(q2) / 2.0, m * r * np.sin(q2) / 2.0
    c3, s3 = mt * l * np.cos(q3), -mt * l * np.sin(q3)
    total = p.total_mass
    return stack_matrix([
        [leg, 0.0, 0.0, c1, s1],
        [0.0, leg, 0.0, c2, s2],
        [0.0, 0.0, mt * l * l, c3, s3],
        [c1, c2, c3, total, 0.0],
        [s1, s2, s3, 0.0, total],
    ])


def hip_jacobian(q, p: RobotParams) -> np.ndarray:
    """Jacobian of the hip position w.r.t. the pinned coordinates (2x3)."""
    q1 = unstack(q)[0]
    r = p.leg_length
    return stack_matrix([[r * np.cos(q1), 0.0, 0.0],
                         [-r * np.sin(q1), 0.0, 0.0]])


def pinned_embedding(q, p: RobotParams) -> np.ndarray:
    """Velocity embedding from pinned to unpinned coordinates (5x3).

    Maps ``dq`` to ``(dq, hip velocity)`` for a chain whose stance foot is
    pinned at the origin.  Satisfies ``emb.T @ free_mass_matrix @ emb ==
    inertia_matrix`` exactly — the defining reduction identity.
    """
    hip = hip_jacobian(q, p)
    eye = np.broadcast_to(np.eye(3), hip.shape[:-2] + (3, 3))
    return np.concatenate([eye, hip], axis=-2)


def landing_foot_jacobian(q, p: RobotParams) -> np.ndarray:
    """Jacobian of the swing-foot position w.r.t. the unpinned coordinates (2x5)."""
    q2 = unstack(q)[1]
    r = p.leg_length
    return stack_matrix([[0.0, -r * np.cos(q2), 0.0, 1.0, 0.0],
                         [0.0, r * np.sin(q2), 0.0, 0.0, 1.0]])


def released_foot_jacobian(q, p: RobotParams) -> np.ndarray:
    """Jacobian of the (old) stance-foot position in unpinned coordinates (2x5)."""
    q1 = unstack(q)[0]
    r = p.leg_length
    return stack_matrix([[-r * np.cos(q1), 0.0, 0.0, 1.0, 0.0],
                         [r * np.sin(q1), 0.0, 0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class ImpactResult:
    """Outcome of one impact, or of a batch of them (each field then holds
    the batch: the arrays gain its leading axes, the float becomes an array).

    Attributes:
        q_plus: post-impact configuration (relabeled: new stance leg first).
        dq_plus: post-impact joint rates (relabeled).
        impulse: contact impulse (N.s) at the landing foot, slope frame.
        contact_velocity: landing-foot velocity right after the impulse;
            zero up to roundoff by construction (definitional check).
        liftoff_velocity: released-foot velocity right after the impulse
            (pre-relabel labels); a positive normal (second) component means
            the old stance foot indeed leaves the ground.
        kinetic_energy_loss: energy dissipated by the impact (>= 0 for any
            physical collision).
    """

    q_plus: np.ndarray
    dq_plus: np.ndarray
    impulse: np.ndarray
    contact_velocity: np.ndarray
    liftoff_velocity: np.ndarray
    kinetic_energy_loss: float


def reset_map(q, dq, p: RobotParams) -> ImpactResult:
    """Apply the plastic impact and leg relabel to a pre-impact state.

    Raises:
        NonFiniteStateError: non-finite input state.
        DegenerateContactError: the contact operator is singular; over a
            batch, at any state (``error.bad`` marks which).
    """
    q = np.asarray(q, dtype=float)
    dq = np.asarray(dq, dtype=float)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(dq))):
        raise NonFiniteStateError("non-finite state passed to reset_map")

    d = free_mass_matrix(q, p)
    e2 = landing_foot_jacobian(q, p)
    emb = pinned_embedding(q, p)
    v_ext = matvec(emb, dq)

    d_inv_e2t = np.linalg.solve(d, e2.swapaxes(-1, -2))
    contact_op = e2 @ d_inv_e2t
    raise_for_states(
        DegenerateContactError,
        np.abs(np.linalg.det(contact_op)) <= _CONTACT_DET_FLOOR,
        lambda _: "contact operator is singular at the impact configuration")

    impulse = -solve_vector(contact_op, matvec(e2, v_ext))
    v_ext_plus = v_ext + matvec(d_inv_e2t, impulse)

    q_plus = matvec(RELABEL, q)
    dq_plus = matvec(RELABEL, v_ext_plus[..., :3])

    t_minus = quadratic(0.5 * v_ext, d, v_ext)
    t_plus = quadratic(0.5 * v_ext_plus, d, v_ext_plus)
    return ImpactResult(
        q_plus=q_plus,
        dq_plus=dq_plus,
        impulse=impulse,
        contact_velocity=matvec(e2, v_ext_plus),
        liftoff_velocity=matvec(released_foot_jacobian(q, p), v_ext_plus),
        kinetic_energy_loss=float_if_scalar(t_minus - t_plus),
    )


def chain_angular_momentum(q, joint_rates, hip_velocity, p: RobotParams,
                           point) -> float:
    """Angular momentum of the (possibly unpinned) chain about a point.

    Takes the joint rates and the hip's Cartesian velocity separately, so it
    applies equally to the pinned chain (hip velocity implied by ``dq1``) and
    to the post-impact chain whose released foot is already moving.
    """
    q1, q2, q3 = unstack(q)
    rate1, rate2, rate3 = unstack(joint_rates)
    hip_vel = np.asarray(hip_velocity, dtype=float)
    point = np.asarray(point, dtype=float)
    r, l = p.leg_length, p.torso_length

    def link_vel(theta, rate, length):
        return stack_vector(length * np.cos(theta) * rate,
                            length * -np.sin(theta) * rate)

    velocities = [
        hip_vel - link_vel(q1, rate1, 0.5 * r),
        hip_vel - link_vel(q2, rate2, 0.5 * r),
        hip_vel,
        hip_vel + link_vel(q3, rate3, l),
    ]
    total = 0.0
    for (mass, pos), vel in zip(mass_points(q, p), velocities):
        rel = pos - point
        total += mass * (rel[..., 0] * vel[..., 1] - rel[..., 1] * vel[..., 0])
    return float_if_scalar(total)


def angular_momentum_about(q, dq, p: RobotParams, point) -> float:
    """Angular momentum of the pinned chain about a slope-frame point.

    Used to certify the impact: the impulsive reaction acts at the landing
    foot, so angular momentum about that foot is conserved across the
    velocity jump (before relabeling).
    """
    dq = np.asarray(dq, dtype=float)
    return chain_angular_momentum(q, dq, matvec(hip_jacobian(q, p), dq), p,
                                  point)


def pinned_reduction_residual(q, p: RobotParams) -> float:
    """Max-abs difference between ``emb.T @ D @ emb`` and the pinned inertia.

    A pure certification helper: exactly zero in exact arithmetic.
    """
    emb = pinned_embedding(q, p)
    reduced = emb.swapaxes(-1, -2) @ free_mass_matrix(q, p) @ emb
    return float_if_scalar(np.max(np.abs(reduced - inertia_matrix(q, p)),
                                  axis=(-2, -1)))
