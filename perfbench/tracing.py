"""Spans and counts around the calls between the package's layers.

The benchmark never edits the program.  It wraps the module attributes
through which one layer calls the next (``triped.simulate.solve_ivp``,
``triped.simulate.control_action``, ``triped.verification._oracle`` ...),
so the wrapped name is what the caller looks up at call time.  Each wrapped call
adds to per-thread totals: a call count, its inclusive time and its self
time (inclusive minus the timed calls nested inside it).  Per-thread totals
keep the counts exact when ``run_sweep`` runs samples on a thread pool.

:class:`Hooks` in its light form only sums the simulated time the
integrator covered (one wrapper call per swing); the per-layer figures
need the full form, which the traced run uses.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

import triped as T
from triped import simulate, verification

#: (module, attribute, key, timed): the layer boundaries the full form wraps.
BOUNDARIES = (
    (simulate, "step", "step", True),
    (simulate, "integrate_swing", "integrate_swing", True),
    (simulate, "reset_map", "reset_map", True),
    (simulate, "control_action", "control_action", False),
    (simulate, "swing_accel", "dynamics", False),
    (simulate, "swing_foot_height", "dynamics", False),
    (verification, "_oracle", "oracle", True),
    (verification, "certify_swing_terms", "swing_terms", True),
    (verification, "certify_energy_conservation", "energy", True),
    (verification, "certify_reduced_consistency", "reduced", True),
    (verification, "certify_impact", "impact", True),
    (verification, "certify_closed_loop", "closed_loop", True),
    (verification, "certify_integrator_transport", "transport", True),
    (verification, "certify_skew", "skew", True),
    (verification, "transcription_report", "transcription", True),
)

#: Battery checks in report order, as they are named in the metrics.
CHECK_KEYS = ("swing_terms", "energy", "reduced", "impact", "closed_loop",
              "transport", "skew")


class _Totals:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self = defaultdict(float)
        self.stack: list[float] = []


class Hooks:
    """Installs the wrappers; :meth:`restore` puts the originals back."""

    def __init__(self, full: bool):
        self.full = full
        self._local = threading.local()
        self._all: list[_Totals] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _totals(self) -> _Totals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = _Totals()
            with self._lock:
                self._all.append(totals)
        return totals

    def _wrap(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> "Hooks":
        # The integrator wrapper is always on: it sums the simulated time.
        for module in (simulate, verification):
            self._wrap(module, "solve_ivp", self._integrator(
                module.solve_ivp, "solve_ivp" if module is simulate else None))
        if self.full:
            for module, attr, key, timed in BOUNDARIES:
                fn = getattr(module, attr)
                self._wrap(module, attr, self._timed(fn, key) if timed
                           else self._counted(fn, key))
        return self

    def after_operations(self, workload: str, fn) -> None:
        """Call ``fn()`` after every operation of ``workload``: each step,
        or each battery check and the transcription report."""
        if workload in ("gait", "sweep"):
            points = [(simulate, "step")]
        else:
            points = [(module, attr) for module, attr, _, _ in BOUNDARIES
                      if module is verification and attr != "_oracle"]
        for module, attr in points:
            self._wrap(module, attr, self._then(getattr(module, attr), fn))

    @staticmethod
    def _then(op, fn):
        def then(*args, **kwargs):
            result = op(*args, **kwargs)
            fn()
            return result
        return then

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _integrator(self, fn, key):
        timed = self._timed(fn, key) if (self.full and key) else fn

        def solve_ivp(*args, **kwargs):
            sol = timed(*args, **kwargs)
            totals = self._totals()
            totals.incl["simulated"] += float(sol.t[-1] - sol.t[0])
            if key:
                totals.calls["nfev"] += int(sol.nfev)
                totals.calls["solver_steps"] += len(sol.t) - 1
            return sol
        return solve_ivp

    def _counted(self, fn, key):
        def counted(*args, **kwargs):
            self._totals().calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _timed(self, fn, key):
        def timed(*args, **kwargs):
            totals = self._totals()
            totals.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                nested = totals.stack.pop()
                totals.calls[key] += 1
                totals.incl[key] += elapsed
                totals.self[key] += elapsed - nested
                if totals.stack:
                    totals.stack[-1] += elapsed
        return timed

    def summed(self) -> _Totals:
        out = _Totals()
        for t in self._all:
            for name in ("calls", "incl", "self"):
                for k, v in getattr(t, name).items():
                    getattr(out, name)[k] += v
        return out

    def simulated_seconds(self) -> float:
        return self.summed().incl["simulated"]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything the hooks saw."""
        t = self.summed()
        steps = t.calls["step"]

        def per_step(value: float) -> float:
            return value / steps if steps else 0.0

        nfev = t.calls["nfev"]
        metrics = {
            "simulate.nfev_per_step": per_step(nfev),
            "simulate.solver_steps_per_step": per_step(t.calls["solver_steps"]),
            "simulate.us_per_rhs": t.incl["solve_ivp"] / nfev * 1e6 if nfev else 0.0,
            "simulate.integrate_ms_per_step": per_step(t.incl["solve_ivp"]) * 1e3,
            "simulate.swing_self_ms_per_step": per_step(t.self["integrate_swing"]) * 1e3,
            "simulate.step_self_ms_per_step": per_step(t.self["step"]) * 1e3,
            "control.calls_per_step": per_step(t.calls["control_action"]),
            "dynamics.calls_per_step": per_step(t.calls["dynamics"]),
            "verification.oracle_build_s": t.incl["oracle"],
            "verification.transcription_s": t.incl["transcription"],
        }
        for key in CHECK_KEYS:
            metrics[f"verification.{key}_s"] = t.self[key]
        return metrics


def _per_call_us(fn, args_list, passes: int = 5) -> float:
    """Median over passes of the mean cost of one call, in microseconds."""
    costs = []
    for _ in range(passes):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        costs.append((time.perf_counter() - t0) / len(args_list))
    return float(np.median(costs)) * 1e6


def isolated_costs(seed: int, n_states: int = 200) -> dict[str, float]:
    """µs per call of the hot functions at seeded reference-gait states.

    The states are drawn from the sampled trajectory of the first two steps
    of the reference gait.  ``run.py`` calls this in an interpreter that has
    run nothing else, so the figures compare across workloads.
    """
    cfg = T.SimConfig()
    ref = T.run_gait(replace(cfg, n_steps=2))
    states = np.concatenate([np.column_stack([tr.q, tr.dq, tr.omega_I])
                             for tr in ref.trajectories])
    rng = np.random.default_rng(seed)
    picked = states[rng.choice(len(states), size=n_states, replace=False)]
    ctrl, plant = cfg.controller, cfg.plant
    qs, dqs, ws = picked[:, :3], picked[:, 3:6], picked[:, 6:8]
    torques = [T.control_action(q, dq, w, ctrl).u for q, dq, w in zip(qs, dqs, ws)]
    reduced = [T.to_reduced(q, dq, ctrl.targets) for q, dq in zip(qs, dqs)]
    return {
        "control.control_action_us": _per_call_us(
            T.control_action, [(q, dq, w, ctrl) for q, dq, w in zip(qs, dqs, ws)]),
        "dynamics.swing_accel_us": _per_call_us(
            T.swing_accel, [(q, dq, u, plant, cfg.incline_true)
                            for q, dq, u in zip(qs, dqs, torques)]),
        "reduced.reduced_forces_us": _per_call_us(
            T.reduced_forces, [(rs, ctrl.model, ctrl.incline_assumed) for rs in reduced]),
        "impact.reset_map_us": _per_call_us(
            T.reset_map, [(q, dq, plant) for q, dq in zip(qs, dqs)]),
    }


def pool_against_alone(spec: T.SweepSpec) -> dict[str, float]:
    """The sweep on ``run_sweep``'s default pool against its samples run
    alone one after another, tracing off."""
    t0 = time.perf_counter()
    T.run_sweep(spec)
    pool = time.perf_counter() - t0
    times = []
    for index in range(spec.n_samples):
        t0 = time.perf_counter()
        T.run_gait(spec.sample_config(index))
        times.append(time.perf_counter() - t0)
    return {"analysis.sample_s_sum": sum(times), "analysis.sample_s_max": max(times),
            "analysis.sweep_speedup": sum(times) / pool}
