"""Closed-loop hybrid simulation: swing integration, impact, iteration.

A *step* is one swing phase bracketed by impacts: starting from a pre-impact
state, apply the plastic reset (:func:`triped.impact.reset_map`), integrate
the closed-loop swing dynamics until the stance leg reaches the switching
angle moving forward (``q1 = q1_switch`` with ``dq1 > 0``), and return the
next pre-impact state.  A *gait* iterates steps.

The integrated state is 8-dimensional: the six mechanical coordinates plus
the controller's two-dimensional covariant integrator.  The plant side of
the loop uses the true parameters and true slope from :class:`SimConfig`;
the controller side sees only its own model — the split that the robustness
studies rely on.

The integrator and the trajectory sampling evaluate the loop through the
fused scalar kernel of :mod:`triped.kernel`, built once per swing.
:func:`~triped.control.control_action` followed by
:func:`~triped.dynamics.swing_accel` is the same right-hand side composed
from the readable reference functions; the kernel is tested against that
composition.

Failures inside a step (fall guard, step timeout, solver breakdown,
actuation singularity, strict-scuff violation) abort the gait: the offending
step is recorded with its reason and iteration stops.  Nothing is raised out
of :func:`run_gait`; callers inspect :class:`GaitSummary`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

# control_action and swing_accel are not called here: they are the composed
# reference path of the kernel.  The benchmark's tracer (perfbench/tracing.py)
# wraps them, like solve_ivp, step, integrate_swing, reset_map and
# swing_foot_height, as attributes of this module by name, so these imports
# stay (tests/test_package.py::test_benchmark_hooks_exist).
from .control import control_action, zeta_distance  # noqa: F401
from .dynamics import swing_accel, swing_foot_height  # noqa: F401
from .errors import (FellOverError, GaitAbortError, NonFiniteStateError,
                     StepTimeoutError, WalkerError)
from .impact import ImpactResult, reset_map
from .kernel import closed_loop
from .params import SimConfig

#: Tolerance on the switching-surface residual |q1(t_end) - q1_switch| (rad).
EVENT_TOL = 1e-10

#: A leg pitched past this magnitude counts as a fall (rad).
FALL_GUARD = np.pi / 2


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled time history of one swing phase.

    The last sample is the exact switching event; the first is the
    post-impact state.  ``u``/``eta`` are recomputed from the sampled states,
    ``zdelta`` is the distance to the zero-dynamics manifold
    (:func:`triped.control.zeta_distance`).
    """

    step_index: int
    t: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    u: np.ndarray
    eta: np.ndarray
    omega_I: np.ndarray
    zdelta: np.ndarray
    det_input: np.ndarray


@dataclass(frozen=True)
class StepRecord:
    """Bookkeeping for one step (or one aborted attempt).

    ``x_post_impact`` is the state right after the reset that starts the
    swing; ``x_pre_impact`` is the state on the switching surface that ends
    it.  ``within_delta`` is the per-step recurrence diagnostic: whether the
    impact state lies inside the ``SimConfig.delta`` neighborhood of the
    zero-dynamics manifold (``z_delta_at_impact <= delta``).  Aborted records
    keep whatever was known at the failure; their ``within_delta`` is None.
    """

    step_index: int
    t_start: float
    t_end: float | None = None
    x_post_impact: np.ndarray | None = None
    x_pre_impact: np.ndarray | None = None
    z_delta_at_impact: float | None = None
    within_delta: bool | None = None
    min_foot_clearance: float | None = None
    impulse: np.ndarray | None = None
    liftoff_normal_velocity: float | None = None
    impact_energy_loss: float | None = None
    min_abs_det_input: float | None = None
    scuffed: bool = False
    aborted: bool = False
    abort_reason: str | None = None

    @property
    def step_time(self) -> float | None:
        """Swing duration in seconds, or None for an aborted step."""
        return None if self.t_end is None else self.t_end - self.t_start


@dataclass(frozen=True)
class GaitSummary:
    """Everything one :func:`run_gait` call produced."""

    config: SimConfig
    records: list[StepRecord]
    trajectories: list[Trajectory]

    @property
    def aborted(self) -> bool:
        return any(r.aborted for r in self.records)

    @property
    def abort_reason(self) -> str | None:
        for r in self.records:
            if r.aborted:
                return r.abort_reason
        return None

    @property
    def completed_steps(self) -> int:
        return sum(1 for r in self.records if not r.aborted)

    @property
    def step_times(self) -> np.ndarray:
        """Swing durations of the completed steps (s)."""
        return np.array([r.step_time for r in self.records if not r.aborted])

    @property
    def pre_impact_states(self) -> np.ndarray:
        """Completed steps' terminal states, shape ``(n, 6)``."""
        states = [r.x_pre_impact for r in self.records if not r.aborted]
        return np.array(states) if states else np.empty((0, 6))

    @property
    def z_deltas(self) -> np.ndarray:
        """Distance to the zero-dynamics manifold at each completed impact."""
        return np.array([r.z_delta_at_impact for r in self.records if not r.aborted])

    def convergence_distances(self) -> np.ndarray:
        """Euclidean distances between successive pre-impact states."""
        states = self.pre_impact_states
        if len(states) < 2:
            return np.empty(0)
        return np.linalg.norm(np.diff(states, axis=0), axis=1)


def _sample_swing(sol_interp, step_index: int, t0: float, t_end: float,
                  y_end: np.ndarray, cfg: SimConfig, control) -> Trajectory:
    """Evaluate the dense solution on the uniform output grid.

    The controller outputs at each sample come from ``control``, the fused
    control law the integrator ran (:func:`triped.kernel.closed_loop`).
    """
    if t_end > t0:
        ts = np.arange(t0, t_end, cfg.sample_dt)
        ts = ts[ts < t_end - 1e-12]
        ts = np.append(ts, t_end)
        ys = sol_interp(ts)
        ys[:, -1] = y_end
    else:
        ts = np.array([t0])
        ys = y_end.reshape(-1, 1)
    out = np.array([control(*state) for state in ys.T.tolist()])
    # Distance to the zero-dynamics manifold, as zeta_distance measures it.
    zd = np.hypot(np.hypot(out[:, 7], out[:, 8]), np.hypot(ys[5], ys[3] + ys[4]))
    return Trajectory(step_index=step_index, t=ts, q=ys[:3].T, dq=ys[3:6].T,
                      u=out[:, 0:2], eta=out[:, 4:6], omega_I=ys[6:8].T,
                      zdelta=zd, det_input=out[:, 6])


def integrate_swing(x0: np.ndarray, t0: float, cfg: SimConfig,
                    step_index: int = 0) -> tuple[Trajectory, np.ndarray]:
    """Integrate one swing phase from an 8-dim post-impact state.

    Returns the sampled trajectory and the exact event state (8-dim, on the
    switching surface to :data:`EVENT_TOL`).

    Raises:
        FellOverError: a leg angle left ``(-pi/2, pi/2)``.
        StepTimeoutError: no switching event within ``cfg.max_step_time``.
        NonFiniteStateError: the solver failed or produced non-finite values.
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise NonFiniteStateError("non-finite state at swing start")
    q1_switch = cfg.controller.targets.q1_switch
    kernel = closed_loop(cfg)

    # Already past the surface and moving forward: the crossing is immediate.
    if x0[0] >= q1_switch and x0[3] > 0.0:
        return _sample_swing(None, step_index, t0, t0, x0, cfg,
                             kernel.control), x0

    def switch(t, y):
        return y[0] - q1_switch

    switch.terminal = True
    switch.direction = 1.0

    def fall(t, y):
        return FALL_GUARD - max(abs(y[0]), abs(y[1]))

    fall.terminal = True
    fall.direction = -1.0

    sol = solve_ivp(kernel.rhs, (t0, t0 + cfg.max_step_time), x0,
                    method="RK45", rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    dense_output=True, events=(switch, fall))
    if sol.status < 0:
        raise NonFiniteStateError(f"swing integration failed: {sol.message}")
    if len(sol.t_events[1]):
        t_fall = sol.t_events[1][0]
        raise FellOverError(
            f"leg angle reached +/-90 deg at t = {t_fall:.4f} s")
    if not len(sol.t_events[0]):
        raise StepTimeoutError(
            f"no switching event within {cfg.max_step_time} s of swing")

    t_end = float(sol.t_events[0][0])
    y_end = sol.y_events[0][0]
    if abs(y_end[0] - q1_switch) > EVENT_TOL:
        raise WalkerError(
            "event localization failed: surface residual "
            f"{abs(y_end[0] - q1_switch):.3e} rad")
    return (_sample_swing(sol.sol, step_index, t0, t_end, y_end, cfg,
                          kernel.control), y_end)


def step(x_pre: np.ndarray, omega_I: np.ndarray, t_start: float,
         cfg: SimConfig, step_index: int = 0,
         ) -> tuple[StepRecord, Trajectory, np.ndarray, np.ndarray]:
    """One impact followed by one swing phase.

    Args:
        x_pre: pre-impact mechanical state, 6 values.
        omega_I: controller integrator state entering the impact.
        t_start: gait time at the impact (s).

    Returns:
        ``(record, trajectory, x_next_pre, omega_I_next)`` where
        ``x_next_pre`` is the next pre-impact state (6 values).

    Raises:
        WalkerError subclasses on any failure (see :func:`integrate_swing`,
        :func:`triped.impact.reset_map`); strict scuff mode raises
        GaitAbortError when the swing foot digs in deeper than
        ``cfg.scuff_tol``.
    """
    x_pre = np.asarray(x_pre, dtype=float)
    res: ImpactResult = reset_map(x_pre[:3], x_pre[3:6], cfg.plant)
    if cfg.controller.integrator_reset == "zero":
        omega_I = np.zeros(2)
    y0 = np.concatenate([res.q_plus, res.dq_plus, np.asarray(omega_I, dtype=float)])

    traj, y_end = integrate_swing(y0, t_start, cfg, step_index)

    clearance = swing_foot_height(traj.q.T, cfg.plant)
    min_clear = float(clearance.min())
    # "Scuffed" means the foot dipped below the slope and came back up —
    # incidental mid-swing contact.  The sub-millimeter terminal descent into
    # the impact (the switching surface is an angle condition, not a height
    # condition) never recovers and is not a scuff.
    above = np.flatnonzero(clearance > 0.0)
    scuffed = bool(len(above) and np.any(clearance[:above[-1]] < 0.0))
    if cfg.strict_scuff and min_clear < -cfg.scuff_tol:
        raise GaitAbortError(
            f"swing foot penetrated {-min_clear:.4f} m > scuff_tol "
            f"{cfg.scuff_tol:.4f} m (strict mode)")

    ctrl = cfg.controller
    z_delta = zeta_distance(y_end[:3], y_end[3:6], ctrl.model, ctrl.targets)
    record = StepRecord(
        step_index=step_index,
        t_start=t_start,
        t_end=float(traj.t[-1]),
        x_post_impact=y0[:6].copy(),
        x_pre_impact=y_end[:6].copy(),
        z_delta_at_impact=z_delta,
        within_delta=z_delta <= cfg.delta,
        min_foot_clearance=min_clear,
        impulse=res.impulse,
        liftoff_normal_velocity=float(res.liftoff_velocity[1]),
        impact_energy_loss=res.kinetic_energy_loss,
        min_abs_det_input=float(np.min(np.abs(traj.det_input))),
        scuffed=scuffed,
        aborted=False,
    )
    return record, traj, y_end[:6].copy(), y_end[6:8].copy()


def run_gait(cfg: SimConfig, x0=None) -> GaitSummary:
    """Iterate steps from a pre-impact state; aborts are recorded, not raised.

    Args:
        cfg: complete simulation setup (validated here).
        x0: optional 6-value pre-impact start; defaults to
            ``cfg.initial_state``.
    """
    cfg.validate()
    x = np.asarray(cfg.initial_state if x0 is None else x0, dtype=float)
    omega_i = np.zeros(2)
    t = 0.0
    records: list[StepRecord] = []
    trajectories: list[Trajectory] = []
    for k in range(cfg.n_steps):
        try:
            record, traj, x, omega_i = step(x, omega_i, t, cfg, step_index=k)
        except WalkerError as exc:
            records.append(StepRecord(step_index=k, t_start=t, aborted=True,
                                      abort_reason=f"{type(exc).__name__}: {exc}"))
            break
        records.append(record)
        trajectories.append(traj)
        t = record.t_end
    return GaitSummary(config=cfg, records=records, trajectories=trajectories)
