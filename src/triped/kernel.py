"""Fused closed-loop swing dynamics: the simulator's hot path.

:func:`closed_loop` turns one :class:`~triped.params.SimConfig` into one
plain-float function body with every parameter-only constant precomputed:

* ``rhs(t, y)`` is the 8-dim closed-loop derivative that
  :func:`triped.simulate.integrate_swing` hands to the integrator: the
  control law of :func:`triped.control.control_action` (regularization,
  PID, allocation, integrator flow) followed, in the same frame, by the
  plant's :func:`triped.dynamics.swing_accel`;
* ``rhs(t, y, outputs=True)`` returns after the control law with its
  outputs, including the error-metric gradient of
  :func:`triped.control.zeta_distance`;
  ``control(q1, q2, q3, dq1, dq2, dq3, wI1, wI2)`` is that call, so the
  outputs a swing samples are the ones it integrated.

Nothing here is a new law.  The composition is rewritten over scalars:

* ``M`` has an arrow pattern (``M[1, 2] = 0``), so ``M x = b`` is solved in
  closed form by eliminating ``x2`` and ``x3`` into the Schur complement of
  ``M[0, 0]``; the controller's reduced forces are ``I_e`` times the
  output rows of that solution for ``C dq - G``.
* ``B_e`` is 2x2, so the torque allocation is Cramer's rule.
* The shape angles are ``alpha = 2 (q1 - q3)`` and ``beta = 2 (q1 - q2)``,
  so every trigonometric term of ``M``, ``C``, ``I_e``, the bracket and
  ``B_e`` comes from the sines and cosines of ``q1 - q2`` and ``q1 - q3``,
  taken once per call for both halves (they depend on the state only).

The controller half reads only ``cfg.controller`` and the plant half only
``cfg.plant`` and ``cfg.incline_true``, the same firewall as the composed
functions.  The checks are the composed path's, with the same exceptions
and messages: ``|det B_e| <= det_floor`` raises
:class:`~triped.errors.ActuationSingularityError`, a non-finite state
raises :class:`~triped.errors.NonFiniteStateError`.  ``tests/test_kernel.py``
holds the kernel to the composed path within 1e-10.
"""

from __future__ import annotations

from math import cos, isfinite, sin
from typing import Callable, NamedTuple

from .errors import ActuationSingularityError, NonFiniteStateError
from .params import RobotParams, SimConfig

#: Same message as :func:`triped.dynamics.swing_accel`, which raises it on
#: the composed path.
_NON_FINITE = "non-finite state or torque in swing_accel"


class ClosedLoop(NamedTuple):
    """The fused kernel of one configuration (see the module docstring).

    ``rhs(t, y)`` takes the state as a sequence of eight floats (the
    integrator passes a list) and returns the derivative as an 8-tuple of
    floats.  ``rhs(t, y, outputs=True)`` stops after the control law and
    returns its outputs instead; ``control(q1, q2, q3, dq1, dq2, dq3, wI1,
    wI2)`` is that call, so the sampled outputs are the ones the integrator
    ran.
    They are ``(u1, u2, rate1, rate2, eta1, eta2, det, grad1, grad2)``:
    hip torques, integrator rates, the PID error vector, ``det B_e`` and
    the error-metric gradient ``I_e^-1 sin(q_e)``.
    """

    control: Callable[..., tuple]
    rhs: Callable[..., tuple]


def closed_loop(cfg: SimConfig) -> ClosedLoop:
    """Build the fused closed-loop kernel of ``cfg``."""
    # Controller constants, from cfg.controller only.
    ctrl = cfg.controller
    model = ctrl.model
    m, mh, mt = model.leg_mass, model.hip_mass, model.torso_mass
    r, l = model.leg_length, model.torso_length
    kp, kd, ki = ctrl.gains.kp, ctrl.gains.kd, ctrl.gains.ki
    q3_ref, lam_c = ctrl.targets.q3_ref, ctrl.incline_assumed
    det_floor = ctrl.det_floor
    floor_text = f"{det_floor:.3e}"
    weighted = ctrl.error_weighting == "inertia"
    # I_e = (l^2 k, r^2 k) with the shape factor
    # k = 4 mh + 2 mt (1 - cos alpha) + m (3 - 2 cos beta).
    l2, r2 = l * l, r * r
    k0, k_a, k_b = 4.0 * mh + m, 4.0 * mt, 4.0 * m
    mt_l2, m_l2, mt_r2, m_r2 = mt * l2, m * l2, mt * r2, m * r2
    c_a, c_b, c_c, c_d, c_e = _arrow_constants(model)
    c_g1, c_g2, c_g3 = _gravity_constants(model)
    # B_e closed form (see triped.reduced.input_matrix_e).
    be_leg0, be_leg_b = (4.0 * mh + 3.0 * m) / mt, 2.0 * m / mt
    be_l_r, be_r_l = 4.0 * l / r, r / l
    be22_0, be22_a = 4.0 * (4.0 * mh + 2.0 * mt + 5.0 * m) / m, 8.0 * mt / m
    # Plant constants, from cfg.plant and cfg.incline_true only.
    p_a, p_b, p_c, p_d, p_e = _arrow_constants(cfg.plant)
    p_g1, p_g2, p_g3 = _gravity_constants(cfg.plant)
    lam_p = cfg.incline_true

    def rhs(t, y, outputs=False):
        q1, q2, q3, d1, d2, d3, w1, w2 = y
        if not (isfinite(q1) and isfinite(q2) and isfinite(q3)):
            raise NonFiniteStateError(_NON_FINITE)
        x12, x13 = q1 - q2, q1 - q3
        s12, c12, s13, c13 = sin(x12), cos(x12), sin(x13), cos(x13)

        # Control law.  Allocation health first, as in control_action.
        leg_term = be_leg0 - be_leg_b * (1.0 - 2.0 * s12 * s12)
        b11 = leg_term + 4.0 + be_l_r * c13
        b12 = leg_term + 4.0 + 2.0 * be_l_r * c13 * c12
        b21 = -4.0 * (1.0 + be_r_l * c13) * (2.0 * c12 + 1.0)
        b22 = (-be22_0 + be22_a * (1.0 - 2.0 * s13 * s13) - 8.0 * c12
               - 4.0 * be_r_l * c13 * (1.0 + 2.0 * c12))
        det = b11 * b22 - b12 * b21
        if -det_floor <= det <= det_floor:
            raise ActuationSingularityError(
                f"torque allocation singular: |det B_e| = {abs(det):.3e} "
                f"<= {floor_text}")

        k = k0 + k_a * s13 * s13 + k_b * s12 * s12
        ie1, ie2 = l2 * k, r2 * k
        we1, we2 = d3, d1 + d2
        sin1, sin2 = sin(q3 - q3_ref), sin(q1 + q2)
        if weighted:
            eta1, eta2 = sin1 / ie1, sin2 / ie2
        else:
            eta1, eta2 = sin1, sin2

        # Bracket I_e Gamma_e, from sin(alpha) d(alpha)/dt and the like;
        # its off-diagonal is skew.
        sin_a, sin_b = 2.0 * s13 * c13, 2.0 * s12 * c12
        rate_a, rate_b = 2.0 * (d1 - d3), 2.0 * (d1 - d2)
        br11 = mt_l2 * sin_a * rate_a + m_l2 * sin_b * rate_b
        br12 = m_l2 * sin_b * rate_a - mt_r2 * sin_a * rate_b
        br22 = mt_r2 * sin_a * rate_a + m_r2 * sin_b * rate_b

        # Reduced forces tau_e + tau_g_e = I_e W_e M^-1 (C dq - G): the
        # model's arrow solve (see _arrow_constants), output rows only.
        mb, mc = -c_b * c12, c_c * c13
        bd, ce = mb / c_d, mc / c_e
        f1 = -c_b * s12 * d2 * d2 + c_c * s13 * d3 * d3 - c_g1 * sin(q1 - lam_c)
        f2 = c_b * s12 * d1 * d1 + c_g2 * sin(q2 - lam_c)
        f3 = -c_c * s13 * d1 * d1 - c_g3 * sin(q3 - lam_c)
        x1 = (f1 - bd * f2 - ce * f3) / (c_a - bd * mb - ce * mc)

        # tau_ue = -I_e (kp eta + kd omega_e + ki omega_I) + tau_e + tau_g_e
        #          - bracket omega_e, allocated by B_e u = tau_ue.
        tau1 = (ie1 * ((f3 - mc * x1) / c_e - kp * eta1 - kd * we1 - ki * w1)
                - (br11 * we1 + br12 * we2))
        tau2 = (ie2 * (x1 + (f2 - mb * x1) / c_d - kp * eta2 - kd * we2
                       - ki * w2)
                - (br22 * we2 - br12 * we1))
        u1 = (b22 * tau1 - b12 * tau2) / det
        u2 = (b11 * tau2 - b21 * tau1) / det
        rate1 = eta1 - (br11 * w1 + br12 * w2) / ie1
        rate2 = eta2 - (br22 * w2 - br12 * w1) / ie2
        if outputs:
            return (u1, u2, rate1, rate2, eta1, eta2, det, sin1 / ie1,
                    sin2 / ie2)
        # A non-finite rate or integrator state reaches both torques.
        if not (isfinite(u1) and isfinite(u2)):
            raise NonFiniteStateError(_NON_FINITE)

        # Plant: M ddq = G + B u - C dq, by the plant's arrow solve.
        mb, mc = -p_b * c12, p_c * c13
        bd, ce = mb / p_d, mc / p_e
        f1 = p_g1 * sin(q1 - lam_p) - u1 + p_b * s12 * d2 * d2 - p_c * s13 * d3 * d3
        f2 = -p_g2 * sin(q2 - lam_p) - u2 - p_b * s12 * d1 * d1
        f3 = p_g3 * sin(q3 - lam_p) + u1 + u2 + p_c * s13 * d1 * d1
        a1 = (f1 - bd * f2 - ce * f3) / (p_a - bd * mb - ce * mc)
        return (d1, d2, d3, a1, (f2 - mb * a1) / p_d, (f3 - mc * a1) / p_e,
                rate1, rate2)

    def control(q1, q2, q3, d1, d2, d3, w1, w2):
        return rhs(0.0, (q1, q2, q3, d1, d2, d3, w1, w2), outputs=True)

    return ClosedLoop(control=control, rhs=rhs)


def _arrow_constants(p: RobotParams) -> tuple[float, float, float, float, float]:
    """Constant factors ``(a, cb, cc, d, e)`` of the inertia matrix.

    ``M = [[a, -cb cos(q1 - q2), cc cos(q1 - q3)], [., d, 0], [., 0, e]]``
    (symmetric), and the same ``cb``, ``cc`` scale the velocity forces
    ``C dq = (-cb s12 dq2^2 + cc s13 dq3^2, cb s12 dq1^2, -cc s13 dq1^2)``
    with ``s12 = sin(q1 - q2)``, ``s13 = sin(q1 - q3)``.
    """
    m, mh, mt = p.leg_mass, p.hip_mass, p.torso_mass
    r, l = p.leg_length, p.torso_length
    return ((4.0 * mh + 4.0 * mt + 5.0 * m) * r * r / 4.0,
            m * r * r / 2.0, mt * l * r, m * r * r / 4.0, mt * l * l)


def _gravity_constants(p: RobotParams) -> tuple[float, float, float]:
    """Amplitudes of ``G = (g1 sin(q1 - lam), -g2 sin(q2 - lam), g3 sin(q3 - lam))``."""
    g, m, mh, mt = p.gravity, p.leg_mass, p.hip_mass, p.torso_mass
    r, l = p.leg_length, p.torso_length
    return (g * r * (2.0 * mh + 2.0 * mt + 3.0 * m) / 2.0, g * m * r / 2.0,
            mt * g * l)
