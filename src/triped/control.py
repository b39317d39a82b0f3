"""Posture controller: feedback regularization plus a geometric PID.

The control law has two layers.

**Regularization** cancels the model's own velocity and gravity forces on
the output channel and re-inserts the covariant velocity term, so that in
closed loop the output error obeys a bare double integrator on the error
group::

    I_e @ (d(omega_e)/dt + Gamma_e @ omega_e) = tau_pid + disturbance

Any mismatch between the controller's model (``ControllerConfig.model``,
``incline_assumed``) and the true plant shows up only as the disturbance
term — which is exactly what the integral action is there to absorb.

**PID** acts on that regularized error system::

    tau_pid = -I_e @ (kp * eta + kd * omega_e + ki * omega_I)

where ``omega_I`` is an integral state transported by the error-space
connection (``d(omega_I)/dt = eta - Gamma_e @ omega_I``) so that the
integral remains geometrically consistent while the shape angles move.

Two conventions for the proportional error ``eta`` are supported
(``ControllerConfig.error_weighting``):

* ``"raw"`` (default): ``eta = (sin(q3 - q3_ref), sin(q1 + q2))``.  The
  proportional torque is then ``-kp * I_e @ eta``, giving both error
  channels the same slow closed-loop pole ``-kp/kd``.  This is the
  convention that produces the reference gait at the documented gains.
* ``"inertia"``: ``eta = I_e^{-1} @ (sin, sin)`` — the gradient of the
  navigation potential with respect to the error-space metric (the
  ``eta_e`` of :func:`zeta_distance`).  The proportional torque is then the
  bare sine vector, whose per-channel pole ``-kp/(kd * I_e)`` is an order
  of magnitude slower at the documented gains; kept for ablation studies.

Everything here reads only :class:`~triped.params.ControllerConfig` — the
controller can never see the true plant parameters or the true slope.

:func:`control_action` is the one implementation of the law in this module
and the certified reference: the certification battery checks it, and the
simulator's fused kernel (:mod:`triped.kernel`) is tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (float_if_scalar, matvec, raise_for_states,
                       solve_vector)
from .errors import ActuationSingularityError
from .params import ControllerConfig, GaitTargets, RobotParams
from .reduced import (input_matrix_e, quadratic_bracket, reduced_forces,
                      reduced_inertias, to_reduced)

__all__ = [
    "ControlAction", "control_action", "zeta_distance", "max_static_incline",
]


@dataclass(frozen=True)
class ControlAction:
    """One controller evaluation.

    Attributes:
        u: hip torques (stance-hip, swing-hip).
        omega_I_rate: time derivative of the covariant integrator state.
        eta: error vector the PID acted on (convention per config).
        tau_tilde: shaped PID torque on the output channel.
        tau_ue: total commanded output-channel torque after regularization.
        det_input: ``det B_e`` at this state (allocation health).
    """

    u: np.ndarray
    omega_I_rate: np.ndarray
    eta: np.ndarray
    tau_tilde: np.ndarray
    tau_ue: np.ndarray
    det_input: float


def control_action(q, dq, omega_I, cfg: ControllerConfig) -> ControlAction:
    """Full control law at one state or a batch: PID + regularization + allocation.

    The shaped PID torque ``tau_tilde``, the regularizing terms from the
    model's reduced forces and bracket, the allocation ``B_e u = tau_ue``
    and the covariant integrator flow ``eta - Gamma_e @ omega_I``, with the
    shared intermediates (reduced state, inertias, bracket) computed once.
    This is the readable reference; the simulator runs the same law through
    the fused kernel of :mod:`triped.kernel`, which is tested against it.

    Raises:
        ActuationSingularityError: ``|det B_e|`` is at or below the
            configured floor; over a batch, at any state (``error.bad``
            marks which).
    """
    omega_I = np.asarray(omega_I, dtype=float)
    rs = to_reduced(q, dq, cfg.targets)
    model = cfg.model
    i_e, _ = reduced_inertias(rs, model)
    i_e_diag = np.diagonal(i_e, axis1=-2, axis2=-1)
    bracket = quadratic_bracket(rs, model)

    eta = np.sin(rs.q_e)
    if cfg.error_weighting == "inertia":
        eta = eta / i_e_diag
    g = cfg.gains
    tau_tilde = -i_e_diag * (g.kp * eta + g.kd * rs.omega_e + g.ki * omega_I)
    tau_e, _, tau_g_e, _ = reduced_forces(rs, model, cfg.incline_assumed)
    tau_ue = tau_tilde + tau_e + tau_g_e - matvec(bracket, rs.omega_e)

    b_e, _ = input_matrix_e(rs, model)
    det = b_e[..., 0, 0] * b_e[..., 1, 1] - b_e[..., 0, 1] * b_e[..., 1, 0]
    raise_for_states(
        ActuationSingularityError, np.abs(det) <= cfg.det_floor,
        lambda i: (f"torque allocation singular: |det B_e| = "
                   f"{abs(det[i]):.3e} <= {cfg.det_floor:.3e}"))
    u = solve_vector(b_e, tau_ue)
    omega_I_rate = eta - matvec(bracket, omega_I) / i_e_diag
    return ControlAction(u=u, omega_I_rate=omega_I_rate, eta=eta,
                         tau_tilde=tau_tilde, tau_ue=tau_ue,
                         det_input=float_if_scalar(det))


def zeta_distance(q, dq, model: RobotParams, targets: GaitTargets) -> float:
    """Distance to the zero-dynamics manifold, ``sqrt(|eta_e|^2 + |omega_e|^2)``.

    ``eta_e = I_e^{-1} @ sin(q_e)`` is the metric gradient of the error
    potential.  Its sine vector ``(sin(q3 - q3_ref), sin(q1 + q2))`` vanishes
    exactly on the zero-dynamics manifold and nowhere else in
    ``|q_e| < pi/2``.  It is independent of the controller's error-weighting
    switch, so the measure is comparable across configurations.  The
    per-step recurrence diagnostic compares this at pre-impact states
    against the configured radius.
    """
    rs = to_reduced(q, dq, targets)
    i_e, _ = reduced_inertias(rs, model)
    eta = np.sin(rs.q_e) / np.diagonal(i_e, axis1=-2, axis2=-1)
    return float_if_scalar(np.hypot(np.linalg.norm(eta, axis=-1),
                                    np.linalg.norm(rs.omega_e, axis=-1)))


def max_static_incline(p: RobotParams) -> float:
    """Steepest slope with a statically stable posture (rad).

    ``arcsin(M_T l / ((M_T + M_H + m) r))``; ``pi/2`` when the torso is heavy
    and long enough that every slope admits an equilibrium.
    """
    lever = p.torso_mass * p.torso_length
    demand = (p.torso_mass + p.hip_mass + p.leg_mass) * p.leg_length
    # Compared, not divided: a tiny leg length can round the demand to zero.
    return np.pi / 2 if lever >= demand else float(np.arcsin(lever / demand))
