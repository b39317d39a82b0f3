"""Closed-loop hybrid simulation: swing integration, impact, iteration.

A *step* is one swing phase bracketed by impacts: starting from a pre-impact
state, apply the plastic reset (:func:`triped.impact.reset_map`), integrate
the closed-loop swing dynamics until the stance leg reaches the switching
angle moving forward (``q1 = q1_switch`` with ``dq1 > 0``), and sample the
swing.  The next pre-impact state is the sampled trajectory's last sample,
so :func:`step` is the stride map on the 8-dim state; :func:`strides`
iterates it from ``SimConfig.initial_state``, a run's only start, and a
*gait* is its first ``n_steps`` strides.

The integrated state is 8-dimensional: the six mechanical coordinates plus
the controller's two-dimensional covariant integrator.  The plant side of
the loop uses the true parameters and true slope from :class:`SimConfig`;
the controller side sees only its own model — the split that the robustness
studies rely on.

Each swing is integrated by :func:`triped.ode.solve_ivp`, the package's
Dormand–Prince 5(4) integrator over plain floats (the steps of scipy's
RK45), on the fused scalar kernel of :mod:`triped.kernel`, built once per
swing; it evaluates the trajectory's samples (``t_eval``) on each step as
it is taken, and their controller outputs come from the same kernel.
:func:`~triped.control.control_action` followed by
:func:`~triped.dynamics.swing_accel` is the same right-hand side composed
from the readable reference functions; the kernel is tested against that
composition.  Each step record carries the integrator's effort: right-hand
side evaluations and accepted and rejected steps.

Failures inside a step (fall guard, step timeout, solver breakdown, spent
evaluation budget, actuation singularity, strict-scuff violation) abort the
gait: the offending step is recorded with its reason and iteration stops.
Nothing is raised out of :func:`run_gait`; callers inspect
:class:`GaitSummary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, takewhile
from typing import Iterator

import numpy as np

# control_action and swing_accel are not called here: they are the composed
# reference path of the kernel.  The benchmark's tracer (perfbench/tracing.py)
# wraps them, like solve_ivp, step, integrate_swing, reset_map and
# swing_foot_height, as attributes of this module by name, so these imports
# stay (tests/test_package.py::test_benchmark_hooks_exist).
from .control import control_action  # noqa: F401
from .dynamics import swing_accel, swing_foot_height  # noqa: F401
from .errors import (FellOverError, GaitAbortError, NonFiniteStateError,
                     SolverBudgetError, StepTimeoutError, WalkerError)
from .impact import ImpactResult, reset_map
from .kernel import closed_loop
from .ode import NFEV_BUDGET_SPENT, solve_ivp
from .params import SimConfig

#: Tolerance on the switching-surface residual |q1(t_end) - q1_switch| (rad).
EVENT_TOL = 1e-10

#: A leg pitched past this magnitude counts as a fall (rad).
FALL_GUARD = np.pi / 2

#: Right-hand side evaluations one swing may spend, about 90 times the
#: reference gait's largest swing: a swing that needs more ends the gait
#: with :class:`SolverBudgetError` instead of spinning.
MAX_NFEV_PER_SWING = 200_000


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled time history of one swing phase.

    The last sample is the exact switching event; the first is the
    post-impact state.  ``u``/``eta`` are recomputed from the sampled states
    by the fused kernel, and so is ``zdelta``, the distance to the
    zero-dynamics manifold that :func:`triped.control.zeta_distance` defines.
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
    zero-dynamics manifold (``z_delta_at_impact <= delta``).  ``nfev``,
    ``n_accepted`` and ``n_rejected`` are the swing integrator's right-hand
    side evaluations and accepted and rejected steps, all 0 when the swing
    starts on the switching surface.  Aborted records keep whatever was
    known at the failure; their ``within_delta`` and solver counts are None.
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
    nfev: int | None = None
    n_accepted: int | None = None
    n_rejected: int | None = None
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


def _sample_grid(t0: float, dt: float, t_stop: float) -> Iterator[float]:
    """``np.arange(t0, ..., dt)`` up to ``t_stop``, one time at a time, by
    numpy's own fill rule ``t0 + k * ((t0 + dt) - t0)``."""
    delta = (t0 + dt) - t0
    return takewhile(t_stop.__ge__, (t0 + k * delta for k in count()))


def _sample_swing(y_eval: np.ndarray, step_index: int, t0: float,
                  t_end: float, y_end: np.ndarray, cfg: SimConfig,
                  control) -> Trajectory:
    """The states ``y_eval`` on :func:`_sample_grid` up to ``t_end`` as the
    swing's uniform samples, ending with the exact event state.

    The controller outputs at each sample come from ``control``, which
    enters the closed-loop body the integrator ran and returns after its
    control law (:func:`triped.kernel.closed_loop`), so a sample's torques
    and integrator rates are the ones that were integrated.
    """
    ts = np.arange(t0, t_end, cfg.sample_dt)
    ts = ts[ts < t_end - 1e-12]
    rows = y_eval[:, :len(ts)].T.tolist()
    rows.append(y_end.tolist())
    ts = np.append(ts, t_end)
    out = np.array([control(*state) for state in rows])
    ys = np.array(rows).T
    # Distance to the zero-dynamics manifold, as zeta_distance measures it.
    zd = np.hypot(np.hypot(out[:, 7], out[:, 8]), np.hypot(ys[5], ys[3] + ys[4]))
    return Trajectory(step_index=step_index, t=ts, q=ys[:3].T, dq=ys[3:6].T,
                      u=out[:, 0:2], eta=out[:, 4:6], omega_I=ys[6:8].T,
                      zdelta=zd, det_input=out[:, 6])


def integrate_swing(x0: np.ndarray, t0: float, cfg: SimConfig,
                    step_index: int = 0,
                    ) -> tuple[Trajectory, tuple[int, int, int]]:
    """Integrate one swing phase from an 8-dim post-impact state.

    Returns the sampled trajectory, whose last sample is the exact event
    state (on the switching surface to :data:`EVENT_TOL`), and the
    integrator's effort ``(nfev, n_accepted, n_rejected)``.

    Raises:
        FellOverError: a leg angle left ``(-pi/2, pi/2)``.
        StepTimeoutError: no switching event within ``cfg.max_step_time``.
        SolverBudgetError: the swing needed more than
            :data:`MAX_NFEV_PER_SWING` right-hand side evaluations.
        NonFiniteStateError: the solver failed or produced non-finite values.
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise NonFiniteStateError("non-finite state at swing start")
    q1_switch = cfg.controller.targets.q1_switch
    kernel = closed_loop(cfg)

    # Already past the surface and moving forward: the crossing is immediate.
    if x0[0] >= q1_switch and x0[3] > 0.0:
        return (_sample_swing(np.empty((len(x0), 0)), step_index, t0, t0, x0,
                              cfg, kernel.control), (0, 0, 0))

    def switch(t, y):
        return y[0] - q1_switch

    def fall(t, y):
        return FALL_GUARD - max(abs(y[0]), abs(y[1]))

    switch.direction, fall.direction = 1.0, -1.0
    t_bound = t0 + cfg.max_step_time
    sol = solve_ivp(kernel.rhs, (t0, t_bound), x0, rtol=cfg.rel_tol,
                    atol=cfg.abs_tol, events=(switch, fall),
                    max_nfev=MAX_NFEV_PER_SWING,
                    t_eval=_sample_grid(t0, cfg.sample_dt, t_bound))
    if sol.message == NFEV_BUDGET_SPENT:
        raise SolverBudgetError(
            f"swing integration spent its {MAX_NFEV_PER_SWING} right-hand side "
            f"evaluations by t = {float(sol.t[-1]):.4f} s")
    if sol.status < 0:
        raise NonFiniteStateError(f"swing integration failed: {sol.message}")
    t_end, y_end = float(sol.t[-1]), sol.y[:, -1]
    if sol.event == 1:
        raise FellOverError(
            f"leg angle reached +/-90 deg at t = {t_end:.4f} s")
    if sol.event is None:
        raise StepTimeoutError(
            f"no switching event within {cfg.max_step_time} s of swing")
    if abs(y_end[0] - q1_switch) > EVENT_TOL:
        raise WalkerError(
            "event localization failed: surface residual "
            f"{abs(y_end[0] - q1_switch):.3e} rad")
    return (_sample_swing(sol.y_eval, step_index, t0, t_end, y_end, cfg,
                          kernel.control),
            (sol.nfev, sol.n_accepted, sol.n_rejected))


def step(x_pre: np.ndarray, omega_I: np.ndarray, t_start: float,
         cfg: SimConfig, step_index: int = 0,
         ) -> tuple[StepRecord, Trajectory]:
    """One impact followed by one swing phase.

    Args:
        x_pre: pre-impact mechanical state, shape ``(6,)``.
        omega_I: controller integrator state entering the impact, ``(2,)``.
        t_start: gait time at the impact (s).

    Returns:
        ``(record, trajectory)``.  The record's ``t_end``, ``x_pre_impact``
        and ``z_delta_at_impact`` are the trajectory's last sample; the next
        8-dim state is ``(record.x_pre_impact, trajectory.omega_I[-1])``.

    Raises:
        ValueError: ``x_pre`` or ``omega_I`` has the wrong shape.
        WalkerError subclasses on any failure (see :func:`integrate_swing`,
        :func:`triped.impact.reset_map`); strict scuff mode raises
        GaitAbortError when the swing foot digs in deeper than
        ``cfg.scuff_tol``.
    """
    x_pre = np.asarray(x_pre, dtype=float)
    omega_I = np.asarray(omega_I, dtype=float)
    if x_pre.shape != (6,) or omega_I.shape != (2,):
        raise ValueError("step needs x_pre of shape (6,) and omega_I of shape "
                         f"(2,), got {x_pre.shape} and {omega_I.shape}")
    res: ImpactResult = reset_map(x_pre[:3], x_pre[3:], cfg.plant)
    if cfg.controller.integrator_reset == "zero":
        omega_I = np.zeros(2)
    y0 = np.concatenate([res.q_plus, res.dq_plus, omega_I])

    traj, (nfev, n_accepted, n_rejected) = integrate_swing(
        y0, t_start, cfg, step_index)

    clearance = swing_foot_height(traj.q, cfg.plant)
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

    z_delta = float(traj.zdelta[-1])
    record = StepRecord(
        step_index=step_index,
        t_start=t_start,
        t_end=float(traj.t[-1]),
        x_post_impact=y0[:6].copy(),
        x_pre_impact=np.concatenate([traj.q[-1], traj.dq[-1]]),
        z_delta_at_impact=z_delta,
        within_delta=z_delta <= cfg.delta,
        min_foot_clearance=min_clear,
        impulse=res.impulse,
        liftoff_normal_velocity=float(res.liftoff_velocity[1]),
        impact_energy_loss=res.kinetic_energy_loss,
        min_abs_det_input=float(np.min(np.abs(traj.det_input))),
        nfev=nfev,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        scuffed=scuffed,
        aborted=False,
    )
    return record, traj


def strides(cfg: SimConfig) -> Iterator[tuple[StepRecord, Trajectory | None]]:
    """Iterate :func:`step` from ``cfg.initial_state`` at gait time 0 with a
    zero integrator, each stride starting from the last one's
    ``(record.x_pre_impact, trajectory.omega_I[-1], record.t_end)``.

    Yields ``(record, trajectory)``; a failed stride is yielded as its
    aborted record with trajectory None and ends the iteration.  The call
    itself validates ``cfg``, before any stride is taken.
    """
    cfg.validate()
    return _strides(cfg, np.array(cfg.initial_state, dtype=float))


def _strides(cfg: SimConfig, x: np.ndarray):
    omega_i, t = np.zeros(2), 0.0
    for k in count():
        try:
            record, traj = step(x, omega_i, t, cfg, step_index=k)
        except WalkerError as exc:
            yield StepRecord(step_index=k, t_start=t, aborted=True,
                             abort_reason=f"{type(exc).__name__}: {exc}"), None
            return
        yield record, traj
        x, omega_i, t = record.x_pre_impact, traj.omega_I[-1], record.t_end


def run_gait(cfg: SimConfig) -> GaitSummary:
    """Run the first ``cfg.n_steps`` strides from ``cfg.initial_state``;
    aborts are records, not raised.  The summary's ``config`` is ``cfg``."""
    run = list(islice(strides(cfg), cfg.n_steps))
    return GaitSummary(
        config=cfg, records=[record for record, _ in run],
        trajectories=[traj for _, traj in run if traj is not None])
