"""Fused closed-loop swing dynamics: the simulator's hot path.

:func:`closed_loop` turns one :class:`~triped.params.SimConfig` into one
plain-float function body with every parameter-only expression folded into
a constant when the kernel is built:

* ``rhs(t, y)`` is the 8-dim closed-loop derivative that
  :func:`triped.simulate.integrate_swing` hands to the integrator: the
  control law of :func:`triped.control.control_action` (regularization,
  PID, allocation, integrator flow) followed, in the same frame, by the
  plant's :func:`triped.dynamics.swing_accel`;
* ``rhs(t, y, outputs=True)`` returns after the control law with its
  outputs, so the torques a swing samples are the ones it integrated.

Nothing here is a new law.  The coefficients of ``M``, ``C dq`` and ``G``
come from :mod:`triped.dynamics`; only the reduced model's constants
(``I_e``, the bracket, ``B_e``) are stated here.  The composition is
rewritten over scalars:

* ``M`` has an arrow pattern (``M[1, 2] = 0``), so ``M x = b`` is solved in
  closed form by eliminating ``x2`` and ``x3`` into the Schur complement of
  ``M[0, 0]``; the controller's reduced forces are ``I_e`` times the
  output rows of that solution for ``C dq - G``.
* ``B_e`` is 2x2, so the torque allocation is Cramer's rule.
* The shape angles are ``alpha = 2 (q1 - q3)`` and ``beta = 2 (q1 - q2)``,
  so every trigonometric term of ``M``, ``C``, ``I_e``, the bracket and
  ``B_e`` comes from the sines and cosines of ``q1 - q2`` and ``q1 - q3``.

Nothing is computed twice:

* folded at build time: the constant parts of ``B_e``'s entries, the
  bracket's masses times the two factors 2 of ``sin(2x) d(2x)/dt``, each
  arrow solve's pivots (``c_b / c_d``, ``c_b^2 / c_d`` and the like) and the
  reciprocals of its diagonal, so that no call divides by a constant;
* shared by both halves, per call: those sines and cosines, their squares,
  and the products ``sin(q1 - q2) dq1^2``, ``sin(q1 - q2) dq2^2``,
  ``sin(q1 - q3) dq1^2`` and ``sin(q1 - q3) dq3^2`` of ``C dq``, which
  depend on the state only.

Each folded constant still comes from one half's configuration: the
controller half reads only ``cfg.controller`` and the plant half only
``cfg.plant`` and ``cfg.incline_true``, the same firewall as the composed
functions.  The checks are the composed path's, with the same exceptions
and messages: ``|det B_e| <= det_floor`` raises
:class:`~triped.errors.ActuationSingularityError`, a non-finite state
raises :class:`~triped.errors.NonFiniteStateError`.  ``tests/test_kernel.py``
and :func:`triped.verification.certify_kernel`, check (h) of ``triped
verify``, hold the kernel to the composed path within 1e-10.
"""

from __future__ import annotations

from math import cos, isfinite, sin
from typing import Callable

from .dynamics import gravity_amplitudes, inertia_coefficients
from .errors import ActuationSingularityError, NonFiniteStateError
from .params import SimConfig

#: Same message as :func:`triped.dynamics.swing_accel`, which raises it on
#: the composed path.
_NON_FINITE = "non-finite state or torque in swing_accel"


def closed_loop(cfg: SimConfig) -> Callable[..., tuple]:
    """Build the fused closed-loop kernel of ``cfg``: the one function
    ``rhs(t, y, outputs=False)`` (see the module docstring).

    ``rhs(t, y)`` takes the state as a sequence of eight floats (the
    integrator passes a list) and returns the derivative as an 8-tuple of
    floats.  ``rhs(t, y, outputs=True)`` stops after the control law and
    returns its outputs instead, ``(u1, u2, eta1, eta2, det)``: hip
    torques, the PID error vector and ``det B_e``.
    """
    # Controller constants, from cfg.controller only.
    ctrl = cfg.controller
    model = ctrl.model
    m, mh, mt = model.leg_mass, model.hip_mass, model.torso_mass
    r, l = model.leg_length, model.torso_length
    kp, kd, ki = ctrl.gains.kp, ctrl.gains.kd, ctrl.gains.ki
    q3_ref, lam_c = ctrl.targets.q3_ref, ctrl.incline_assumed
    det_floor, neg_floor = ctrl.det_floor, -ctrl.det_floor
    floor_text = f"{det_floor:.3e}"
    weighted = ctrl.error_weighting == "inertia"
    # I_e = (l^2 k, r^2 k) with the shape factor
    # k = 4 mh + 2 mt (1 - cos alpha) + m (3 - 2 cos beta).
    l2, r2 = l * l, r * r
    k0, k_a, k_b = 4.0 * mh + m, 4.0 * mt, 4.0 * m
    # The bracket's masses times the two factors 2 of sin(2x) d(2x)/dt.
    br_tl, br_ml, br_tr, br_mr = (4.0 * mt * l2, 4.0 * m * l2, 4.0 * mt * r2,
                                  4.0 * m * r2)
    c_a, c_b, c_c, c_d, c_e = inertia_coefficients(model)
    c_g1, c_g2, c_g3 = gravity_amplitudes(model)
    # The arrow solve's pivots and the reciprocals of its diagonal.
    cb_d, cbb_d, ic_d = c_b / c_d, c_b * c_b / c_d, 1.0 / c_d
    cc_e, ccc_e, ic_e = c_c / c_e, c_c * c_c / c_e, 1.0 / c_e
    neg_c_c = -c_c
    # B_e closed form (see triped.reduced.input_matrix_e) over s12^2, s13^2,
    # c13 and e = 1 + 2 c12: b11 and b12 share be_0 + be_s s12^2, and b22 is
    # b21 = -(4 + be_rl c13) e plus terms of s13^2.
    be_0, be_s = (4.0 * mh + m) / mt + 4.0, 4.0 * m / mt
    be_lr, be_2lr, be_rl = 4.0 * l / r, 8.0 * l / r, 4.0 * r / l
    be22_0, be22_s = -16.0 * (mh + m) / m, 16.0 * mt / m
    # Plant constants, from cfg.plant and cfg.incline_true only.
    p_a, p_b, p_c, p_d, p_e = inertia_coefficients(cfg.plant)
    p_g1, p_g2, p_g3 = gravity_amplitudes(cfg.plant)
    pb_d, pbb_d, ip_d = p_b / p_d, p_b * p_b / p_d, 1.0 / p_d
    pc_e, pcc_e, ip_e = p_c / p_e, p_c * p_c / p_e, 1.0 / p_e
    neg_p_g2 = -p_g2
    lam_p = cfg.incline_true

    def rhs(t, y, outputs=False):
        q1, q2, q3, d1, d2, d3, w1, w2 = y
        if not (isfinite(q1) and isfinite(q2) and isfinite(q3)):
            raise NonFiniteStateError(_NON_FINITE)
        x12, x13 = q1 - q2, q1 - q3
        s12, c12 = sin(x12), cos(x12)
        s13, c13 = sin(x13), cos(x13)
        # State-only products that both halves read.  (Pairs, not longer
        # tuples: Python assigns a pair without building a tuple.)
        s12s, c12s = s12 * s12, c12 * c12
        s13s, c13s = s13 * s13, c13 * c13
        s12d1, s12d2 = s12 * d1 * d1, s12 * d2 * d2
        s13d1, s13d3 = s13 * d1 * d1, s13 * d3 * d3

        # Control law.  Allocation health first, as in control_action.
        leg_term = be_0 + be_s * s12s
        b11 = leg_term + be_lr * c13
        b12 = leg_term + be_2lr * c13 * c12
        e = 1.0 + 2.0 * c12
        b21 = (-4.0 - be_rl * c13) * e
        b22 = b21 + be22_0 - be22_s * s13s
        det = b11 * b22 - b12 * b21
        if neg_floor <= det <= det_floor:
            raise ActuationSingularityError(
                f"torque allocation singular: |det B_e| = {abs(det):.3e} "
                f"<= {floor_text}")

        k = k0 + k_a * s13s + k_b * s12s
        ie1, ie2 = l2 * k, r2 * k
        we1, we2 = d3, d1 + d2
        sin1, sin2 = sin(q3 - q3_ref), sin(q1 + q2)
        if weighted:
            eta1, eta2 = sin1 / ie1, sin2 / ie2
        else:
            eta1, eta2 = sin1, sin2

        # Bracket I_e Gamma_e, from sin(alpha) d(alpha)/dt and the like;
        # its off-diagonal is skew.
        sa, ra = s13 * c13, d1 - d3
        sb, rb = s12 * c12, d1 - d2
        sa_ra, sa_rb = sa * ra, sa * rb
        sb_ra, sb_rb = sb * ra, sb * rb
        br11 = br_tl * sa_ra + br_ml * sb_rb
        br12 = br_ml * sb_ra - br_tr * sa_rb
        br22 = br_tr * sa_ra + br_mr * sb_rb

        # Reduced forces tau_e + tau_g_e = I_e W_e M^-1 (C dq - G): the
        # model's arrow solve (inertia_coefficients), output rows only.
        pb, pc = cb_d * c12, cc_e * c13
        f1 = c_c * s13d3 - c_b * s12d2 - c_g1 * sin(q1 - lam_c)
        f2 = c_b * s12d1 + c_g2 * sin(q2 - lam_c)
        f3 = neg_c_c * s13d1 - c_g3 * sin(q3 - lam_c)
        x1 = (f1 + pb * f2 - pc * f3) / (c_a - cbb_d * c12s - ccc_e * c13s)

        # tau_ue = -I_e (kp eta + kd omega_e + ki omega_I) + tau_e + tau_g_e
        #          - bracket omega_e, allocated by B_e u = tau_ue.
        tau1 = (ie1 * (f3 * ic_e - pc * x1 - kp * eta1 - kd * we1 - ki * w1)
                - (br11 * we1 + br12 * we2))
        tau2 = (ie2 * (x1 + f2 * ic_d + pb * x1 - kp * eta2 - kd * we2
                       - ki * w2)
                - (br22 * we2 - br12 * we1))
        u1 = (b22 * tau1 - b12 * tau2) / det
        u2 = (b11 * tau2 - b21 * tau1) / det
        if outputs:
            return u1, u2, eta1, eta2, det
        rate1 = eta1 - (br11 * w1 + br12 * w2) / ie1
        rate2 = eta2 - (br22 * w2 - br12 * w1) / ie2
        # A non-finite rate or integrator state reaches both torques.
        if not (isfinite(u1) and isfinite(u2)):
            raise NonFiniteStateError(_NON_FINITE)

        # Plant: M ddq = G + B u - C dq, by the plant's arrow solve.  Both
        # solves stay written out: one shared helper adds a call per
        # evaluation, and lost to inlining when it was timed (CHANGES.md,
        # "One closed-loop body").
        pb, pc = pb_d * c12, pc_e * c13
        f1 = p_g1 * sin(q1 - lam_p) - u1 + p_b * s12d2 - p_c * s13d3
        f2 = neg_p_g2 * sin(q2 - lam_p) - u2 - p_b * s12d1
        f3 = p_g3 * sin(q3 - lam_p) + u1 + u2 + p_c * s13d1
        a1 = (f1 + pb * f2 - pc * f3) / (p_a - pbb_d * c12s - pcc_e * c13s)
        return (d1, d2, d3, a1, f2 * ip_d + pb * a1, f3 * ip_e - pc * a1,
                rate1, rate2)

    return rhs

