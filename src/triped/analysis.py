"""Periodic orbits, contraction estimates and sweeps.

The walker's steady gait is a fixed point of the *stride map*, which takes
one pre-impact state and integrator state to the next: :func:`step` on the
8-dim state.  The controller makes that map contractive near the orbit, so
iterating it as a gait does (:func:`~triped.simulate.strides`) both finds
the fixed point and certifies its stability: the empirical contraction
ratio ``rho_hat`` (median of successive distance ratios) below one is the
numerical stability certificate.  No Jacobian or eigenvalue analysis is
attempted; the certificate is deliberately the same evidence a batch of
simulations provides.

Distances between pre-impact states use the plain Euclidean norm over the
six mechanical coordinates — radians and radians per second with unit
weights.

:func:`run_sweep` runs independent perturbed copies of a base configuration
(plant perturbed, controller model held fixed) one after the other and
returns the rows in sample order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import GaitAbortError, NoConvergenceError
from .params import SimConfig, SweepSpec
from .simulate import GaitSummary, run_gait, strides

#: A gait's step times count as converged when the last five span less than
#: this range (s) — an order of magnitude looser than a settled orbit's
#: spread, an order tighter than step-to-step transient variation.
STEP_TIME_CONVERGENCE_RANGE = 5e-3

#: Distances below this are roundoff noise; ratios across them are dropped.
_DISTANCE_FLOOR = 1e-13


def contraction_ratio(distances) -> float:
    """Median of successive distance ratios; below one means contracting.

    NaN when fewer than two usable distances exist (nothing to certify).
    """
    d = np.asarray(distances, dtype=float)
    if len(d) < 2:
        return float("nan")
    num, den = d[1:], d[:-1]
    keep = den > _DISTANCE_FLOOR
    if not np.any(keep):
        return float("nan")
    return float(np.median(num[keep] / den[keep]))


@dataclass(frozen=True)
class PeriodicOrbit:
    """A converged fixed point of the stride map.

    Attributes:
        x_star: pre-impact state of the periodic gait (6 values).
        omega_I_star: settled integrator state at the impact.
        step_time: swing duration of the periodic step (s).
        rho_hat: empirical contraction ratio of the approach (< 1 = stable).
        iterations: stride-map applications used.
        distances: successive pre-impact distances of the iteration.
        tol: the distance below which the iteration was accepted.
    """

    x_star: np.ndarray
    omega_I_star: np.ndarray
    step_time: float
    rho_hat: float
    iterations: int
    distances: np.ndarray
    tol: float


def find_periodic_orbit(cfg: SimConfig, tol: float = 1e-6,
                        max_iters: int = 200) -> PeriodicOrbit:
    """Iterate the stride map to a fixed point and certify contraction.

    The iteration is the gait's own :func:`~triped.simulate.strides` from
    ``cfg.initial_state``, so ``x_star`` after ``iterations`` strides is the
    pre-impact state of ``run_gait`` with that many steps.  Success is
    ``|x_{k+1} - x_k| < tol``.

    Raises:
        ValueError: ``max_iters`` < 1, or ``tol`` not positive and finite.
        ConfigValidationError: ``cfg`` is invalid, ``initial_state`` included.
        NoConvergenceError: ``max_iters`` applications without convergence.
        GaitAbortError: a step failed during the iteration.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    run = strides(cfg)
    x = np.array(cfg.initial_state, dtype=float)
    distances: list[float] = []
    for record, traj in islice(run, max_iters):
        if traj is None:
            raise GaitAbortError(
                f"gait aborted at stride-map iterate {record.step_index}: "
                f"{record.abort_reason}")
        distances.append(float(np.linalg.norm(record.x_pre_impact - x)))
        x = record.x_pre_impact
        if distances[-1] < tol:
            return PeriodicOrbit(
                x_star=x, omega_I_star=traj.omega_I[-1],
                step_time=float(record.step_time),
                rho_hat=contraction_ratio(distances),
                iterations=len(distances), distances=np.array(distances),
                tol=tol)
    raise NoConvergenceError(
        f"stride map not converged after {max_iters} iterations; "
        f"last distance {distances[-1]:.3e} (tol {tol:.3e})")


@dataclass(frozen=True)
class SweepSample:
    """Outcome of one sweep sample.

    ``converged`` means: every step completed, the contraction ratio is
    below one, and the last five step times span less than
    :data:`STEP_TIME_CONVERGENCE_RANGE`.
    """

    index: int
    axis: str
    value: float
    completed_steps: int
    aborted: bool
    abort_reason: str | None
    converged: bool
    step_time: float
    rho_hat: float
    worst_z_delta: float


def summarize_gait(summary: GaitSummary, index: int = 0, axis: str = "",
                   value: float = float("nan")) -> SweepSample:
    """Collapse a gait run into the sweep-table row for it."""
    times = summary.step_times
    rho = contraction_ratio(summary.convergence_distances())
    z = summary.z_deltas
    settled = bool(len(times) >= 5
                   and float(np.ptp(times[-5:])) < STEP_TIME_CONVERGENCE_RANGE)
    converged = bool(not summary.aborted
                     and summary.completed_steps == summary.config.n_steps
                     and np.isfinite(rho) and rho < 1.0 and settled)
    return SweepSample(
        index=index, axis=axis, value=value,
        completed_steps=summary.completed_steps,
        aborted=summary.aborted,
        abort_reason=summary.abort_reason,
        converged=converged,
        step_time=float(times[-1]) if len(times) else float("nan"),
        rho_hat=rho,
        worst_z_delta=float(np.max(z[1:])) if len(z) > 1 else float("nan"),
    )


def run_sweep(spec: SweepSpec, max_workers: int | None = None) -> list[SweepSample]:
    """Run every sweep sample in this process and return rows in sample order.

    ``max_workers`` is accepted for compatibility and ignored.  A simulation
    holds the interpreter lock, so threads do not overlap, and on a 2-core
    box worker processes lost to this loop: each costs about an
    ``import triped`` to start, and two concurrent samples each ran about
    1.3x slower.
    """
    spec.validate()
    values = spec.sample_values()
    return [summarize_gait(run_gait(spec.sample_config(index)), index=index,
                           axis=spec.axis, value=values[index])
            for index in range(spec.n_samples)]
