"""Independent certification of the implemented model.

Everything numeric in this package that could hide a transcription slip —
inertia matrix, gravity torque, velocity forces, the impact mass matrix, the
reduced-model terms — is re-derived here from scratch with a symbolic
Lagrangian oracle (:mod:`sympy`): write down the four point-mass positions;
build the pinned chain's and the free chain's mass matrices as the sum of
``m J^T J`` over the masses' position Jacobians ``J``, each entry expanded;
take the velocity forces from the Christoffel symbols of the pinned one and
gravity from the potential's gradient; and lambdify onto :mod:`numpy`, so
that one call evaluates a whole batch of states.  The oracle shares no code
with :mod:`triped.dynamics`; agreement between the two is therefore
meaningful evidence, and the certification battery
(:func:`run_certification`) turns that evidence plus the model's structural
invariants into pass/fail checks:

a. hand-coded inertia/gravity/velocity terms match the oracle;
b. unforced swing conserves total energy through the integrator;
c. the reduced (output/zero channel) model is equivalent to the full model;
d. the impact map zeroes the landing-foot velocity, conserves angular
   momentum about the impact point, and only ever dissipates energy;
e. the regularized matched-model closed loop reduces the output error
   dynamics exactly to the commanded PID system;
f. the covariant integrator parallel-transports: zero forcing preserves the
   error-metric norm of the integral state;
g. compatibility of both connections (full and error-space): the
   inertia-rate minus twice the velocity-force bracket is skew-symmetric.

:func:`transcription_report` additionally compares the closed-form reduced
force expressions that accompany this model's original derivation against
the certified pushforward; several of those printed expressions carry
transcription errors, which is why the simulator never evaluates them.

Each sampled check draws its random states one by one, in a fixed order per
state, and evaluates them in batches of :data:`BATCH_STATES` through the
batched reference functions (see :mod:`triped.dynamics`).  Its worst residual
is NaN when any state's is: a check with a NaN residual fails.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np
import sympy as sp

from .control import control_action
from .dynamics import (coriolis_matrix, float_if_scalar, gravity_torque,
                       inertia_matrix, matvec, stack_matrix, stack_vector,
                       swing_accel, swing_foot_position, total_energy, unstack)
from .errors import ActuationSingularityError, DegenerateContactError
from .impact import (angular_momentum_about, chain_angular_momentum,
                     free_mass_matrix, pinned_reduction_residual, reset_map)
from .ode import solve_ivp
from .params import ControllerConfig, GaitTargets, RobotParams
from .reduced import (OUTPUT_MAP, ReducedState, consistency_check,
                      input_matrix_e, pushforward_input_matrix,
                      quadratic_bracket, reduced_forces, reduced_inertias,
                      to_reduced)

#: Sampled states per batched evaluation: a check draws and evaluates its
#: states this many at a time, which bounds the memory of a large battery.
BATCH_STATES = 1000


def _oracle_matrix(rows) -> np.ndarray:
    """A lambdified matrix over a batch: the entries (scalars or arrays)
    broadcast together into one ``(..., rows, cols)`` array."""
    entries = np.broadcast_arrays(
        *(np.asarray(entry, dtype=float) for row in rows for entry in row))
    return np.stack(entries, axis=-1).reshape(
        entries[0].shape + (len(rows), len(rows[0])))


@functools.lru_cache(maxsize=1)
def _oracle():
    """Build and lambdify the symbolic model once per process."""
    q = sp.symbols("q1 q2 q3")
    dq = sp.symbols("dq1 dq2 dq3")
    m, mh, mt, l, r, g = sp.symbols("m mh mt l r g", positive=True)
    lam = sp.Symbol("lam", real=True)

    def unit(theta):
        return sp.Matrix([sp.sin(theta), sp.cos(theta)])

    hip = r * unit(q[0])
    masses = [m, m, mh, mt]
    positions = [
        hip - r / 2 * unit(q[0]),
        hip - r / 2 * unit(q[1]),
        hip,
        hip + l * unit(q[2]),
    ]

    def mass_matrix(points, coords):
        """Sum of m J^T J over the point masses, each entry expanded."""
        total = sp.zeros(len(coords))
        for mass, pos in points:
            jac = pos.jacobian(sp.Matrix(coords))
            total += mass * jac.T * jac
        return total.applyfunc(sp.expand)

    inertia = mass_matrix(zip(masses, positions), q)
    mass_rate = sum((inertia.diff(qk) * dk for qk, dk in zip(q, dq)),
                    sp.zeros(3, 3))
    coriolis = sp.zeros(3, 3)
    for i in range(3):
        for j in range(3):
            coriolis[i, j] = sum(
                sp.Rational(1, 2)
                * (inertia[i, j].diff(q[k]) + inertia[i, k].diff(q[j])
                   - inertia[j, k].diff(q[i])) * dq[k]
                for k in range(3))
    height = sp.Matrix([sp.sin(lam), sp.cos(lam)])
    potential = sum(mass * g * (pos.T * height)[0, 0]
                    for mass, pos in zip(masses, positions))
    gravity = -sp.Matrix([potential.diff(qk) for qk in q])

    # Unpinned chain for the impact-phase mass matrix: hip position as base.
    px, py = sp.symbols("px py")
    base = sp.Matrix([px, py])
    free_positions = [
        base - r / 2 * unit(q[0]),
        base - r / 2 * unit(q[1]),
        base,
        base + l * unit(q[2]),
    ]
    free_mass = mass_matrix(zip(masses, free_positions), (*q, px, py))

    params = (m, mh, mt, l, r, g)
    # Onto numpy's sin and cos, so every argument may be a batch; a matrix
    # comes back as one array with the batch axes leading.  The namespace is
    # named in full: lambdify's "numpy" module would import numpy's lazy
    # submodules (testing, f2py ...), which costs more than the whole build.
    lamb = functools.partial(sp.lambdify, modules=[{
        "ImmutableDenseMatrix": _oracle_matrix, "sin": np.sin, "cos": np.cos}])
    return {
        "mass": lamb((*q, *params), inertia),
        "mass_rate": lamb((*q, *dq, *params), mass_rate),
        "coriolis": lamb((*q, *dq, *params), coriolis),
        "gravity": lamb((*q, *params, lam), gravity),
        "free_mass": lamb((*q, *params), free_mass),
    }


def _pvals(p: RobotParams) -> tuple:
    return (p.leg_mass, p.hip_mass, p.torso_mass, p.torso_length,
            p.leg_length, p.gravity)


def _coords(x) -> np.ndarray:
    """The components of one state or a batch, last axis first."""
    return np.moveaxis(np.asarray(x, dtype=float), -1, 0)


def oracle_inertia(q, p: RobotParams) -> np.ndarray:
    """Swing-phase mass matrix from the symbolic oracle."""
    return _oracle()["mass"](*_coords(q), *_pvals(p))


def oracle_inertia_rate(q, dq, p: RobotParams) -> np.ndarray:
    """Time derivative of the mass matrix along ``dq`` (symbolic)."""
    return _oracle()["mass_rate"](*_coords(q), *_coords(dq), *_pvals(p))


def oracle_coriolis(q, dq, p: RobotParams) -> np.ndarray:
    """Velocity-force matrix from the symbolic Christoffel symbols."""
    return _oracle()["coriolis"](*_coords(q), *_coords(dq), *_pvals(p))


def oracle_gravity(q, p: RobotParams, incline) -> np.ndarray:
    """Gravity torque from the symbolic potential."""
    return _oracle()["gravity"](*_coords(q), *_pvals(p), incline)[..., 0]


def oracle_free_mass_matrix(q, p: RobotParams) -> np.ndarray:
    """Unpinned-chain mass matrix from the symbolic oracle (5x5)."""
    return _oracle()["free_mass"](*_coords(q), *_pvals(p))


# --------------------------------------------------------------------------
# Certification battery
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One certification check: worst residual against its tolerance."""

    name: str
    max_residual: float
    tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.max_residual)
                    and self.max_residual <= self.tolerance)


@dataclass(frozen=True)
class CertificationReport:
    """Battery outcome; ``ok`` only when every check passed."""

    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_text(self) -> str:
        lines = ["certification battery:"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"  [{status}] {c.name:34s} residual "
                         f"{c.max_residual:10.3e} <= {c.tolerance:.1e}{note}")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _random_states(rng: np.random.Generator, n: int):
    q = rng.uniform(-np.pi, np.pi, size=(n, 3))
    dq = rng.uniform(-5.0, 5.0, size=(n, 3))
    return q, dq


def _random_params(rng: np.random.Generator) -> RobotParams:
    # One call draws the five scales that five scalar calls would.
    leg_m, hip_m, torso_m, leg_l, torso_l = rng.uniform(0.5, 1.5, size=5).tolist()
    return RobotParams(leg_mass=1.0 * leg_m, hip_mass=1.0 * hip_m,
                       torso_mass=3.0 * torso_m, leg_length=1.0 * leg_l,
                       torso_length=0.75 * torso_l)


def _robot(rng: np.random.Generator, index: int) -> RobotParams:
    """The nominal robot at even state indices, a random one at odd."""
    return RobotParams() if index % 2 == 0 else _random_params(rng)


def stack_params(robots) -> RobotParams:
    """One :class:`RobotParams` whose fields are ``(n,)`` arrays, entry
    ``i`` from robot ``i``: the parameters of a batch of states."""
    return RobotParams(**{f.name: np.array([getattr(p, f.name) for p in robots])
                          for f in fields(RobotParams)})


def _take(batch, index):
    """The states ``index`` of a batch: an array's leading axis, or each
    field of a stacked :class:`RobotParams`."""
    if isinstance(batch, RobotParams):
        return RobotParams(**{f.name: getattr(batch, f.name)[index]
                              for f in fields(RobotParams)})
    return batch[index]


def _slices(n_states: int) -> list[range]:
    """Consecutive state indices, at most :data:`BATCH_STATES` at a time."""
    return [range(i, min(i + BATCH_STATES, n_states))
            for i in range(0, n_states, BATCH_STATES)]


def _draw(indices: range, draw) -> list:
    """``draw(i)`` for each state index in order, each of the values it
    returns stacked over the states (robots with :func:`stack_params`)."""
    columns = list(zip(*(draw(i) for i in indices)))
    return [stack_params(c) if isinstance(c[0], RobotParams) else np.array(c)
            for c in columns]


def _without_bad(call, error: type, batch: tuple):
    """``call(*batch)``; when it raises ``error`` for some states, the call
    on the others.  Returns the result (``None`` when no state is left),
    the batch it ran on, and how many states were dropped."""
    try:
        return call(*batch), batch, 0
    except error as err:
        keep = ~err.bad
        kept = tuple(_take(x, keep) for x in batch)
        result = call(*kept) if keep.any() else None
        return result, kept, int(np.count_nonzero(err.bad))


def _worst(*residuals) -> float:
    """Largest entry of the residual arrays, or 0 for none; NaN when any
    entry is NaN, which Python's ``max`` would silently pass over."""
    return float(np.max([np.max(r, initial=0.0) for r in residuals],
                        initial=0.0))


def certify_swing_terms(n_states: int = 1000, seed: int = 0) -> CheckResult:
    """(a) Hand-coded inertia/gravity/velocity terms vs the oracle."""
    rng = np.random.default_rng(seed)
    qs, dqs = _random_states(rng, n_states)
    worst = []
    for states in _slices(n_states):
        p, incline = _draw(states, lambda i: (_robot(rng, i),
                                              rng.uniform(-0.6, 0.6)))
        q, dq = qs[states.start:states.stop], dqs[states.start:states.stop]
        worst.append(_worst(
            np.abs(inertia_matrix(q, p) - oracle_inertia(q, p)),
            np.abs(gravity_torque(q, p, incline) - oracle_gravity(q, p, incline)),
            np.abs(coriolis_matrix(q, dq, p) - oracle_coriolis(q, dq, p)),
            np.abs(free_mass_matrix(q, p) - oracle_free_mass_matrix(q, p)),
        ))
    return CheckResult("swing terms vs symbolic oracle", _worst(worst), 1e-8,
                       note=f"{n_states} states")


def certify_energy_conservation(duration: float = 1.0) -> CheckResult:
    """(b) Unforced swing keeps total energy to integrator accuracy."""
    p = RobotParams()
    incline = np.radians(25.0)
    y0 = np.array([0.15, -0.3, 1.6, 0.6, -0.4, 0.3])
    u = np.zeros(2)

    def rhs(_t, y):
        return np.concatenate([y[3:6], swing_accel(y[:3], y[3:6], u, p, incline)])

    sol = solve_ivp(rhs, (0.0, duration), y0, rtol=1e-11, atol=1e-13)
    ts = np.linspace(0.0, duration, 101)
    ys = np.array(sol.sol.values(ts.tolist()))
    e0 = total_energy(y0[:3], y0[3:6], p, incline)
    drift = _worst(np.abs(total_energy(ys[:, :3], ys[:, 3:6], p, incline) - e0))
    return CheckResult("unforced-swing energy drift",
                       float(drift / max(1.0, abs(e0))), 1e-8,
                       note=f"{duration:.1f} s horizon")


def certify_reduced_consistency(n_states: int = 1000, seed: int = 1) -> CheckResult:
    """(c) Reduced two-channel model is the full model in new coordinates."""
    rng = np.random.default_rng(seed)
    qs, dqs = _random_states(rng, n_states)
    targets = GaitTargets()
    worst = []
    for states in _slices(n_states):
        p, u, incline = _draw(states, lambda i: (
            _robot(rng, i), rng.uniform(-50.0, 50.0, size=2),
            rng.uniform(-0.6, 0.6)))
        q, dq = qs[states.start:states.stop], dqs[states.start:states.stop]
        worst.append(_worst(consistency_check(q, dq, u, p, incline, targets)))
    return CheckResult("reduced-vs-full consistency", _worst(worst), 1e-6,
                       note=f"{n_states} states")


def certify_impact(n_states: int = 1000, seed: int = 2) -> CheckResult:
    """(d) Plastic impact: sticks, conserves momentum, dissipates energy."""
    rng = np.random.default_rng(seed)
    worst = []
    skipped = 0
    for states in _slices(n_states):
        drawn = _draw(states, lambda i: (
            _robot(rng, i), rng.uniform(-1.2, 1.2, size=3),
            rng.uniform(-4.0, 4.0, size=3)))
        res, (p, q, dq), dropped = _without_bad(
            lambda p, q, dq: reset_map(q, dq, p), DegenerateContactError,
            tuple(drawn))
        skipped += dropped
        if res is None:
            continue
        foot = swing_foot_position(q, p)
        l_pre = angular_momentum_about(q, dq, p, foot)
        # Post-impact, pre-relabel: joint rates revert to the old labels via
        # the (involutive) relabel, and the hip velocity is recovered from
        # the released foot's velocity plus its lever term.
        rates_old = res.dq_plus[..., [1, 0, 2]]
        q1, rate1 = q[..., 0], rates_old[..., 0]
        arm = stack_vector(p.leg_length * np.cos(q1) * rate1,
                           p.leg_length * -np.sin(q1) * rate1)
        hip_vel = res.liftoff_velocity + arm
        l_post = chain_angular_momentum(q, rates_old, hip_vel, p, foot)
        # Impulse is linear in the pre-impact rates.
        doubled = reset_map(q, 2.0 * dq, p)
        worst.append(_worst(
            np.abs(res.contact_velocity),
            np.abs(l_post - l_pre) / np.maximum(1.0, np.abs(l_pre)),
            np.maximum(0.0, -res.kinetic_energy_loss),
            pinned_reduction_residual(q, p),
            np.abs(doubled.impulse - 2.0 * res.impulse),
        ))
    note = f"{n_states - skipped} states"
    if skipped:
        note += f", {skipped} degenerate skipped"
    return CheckResult("impact stick/momentum/dissipation", _worst(worst),
                       1e-6, note=note)


def certify_closed_loop(n_states: int = 1000, seed: int = 3) -> CheckResult:
    """(e) Matched model: regularized loop equals the commanded PID system."""
    rng = np.random.default_rng(seed)
    cfg = ControllerConfig()
    p = cfg.model
    worst = []
    skipped = 0
    for states in _slices(n_states):
        drawn = _draw(states, lambda _: (
            rng.uniform(-1.0, 1.0, size=3) + np.array([0.0, 0.0, np.pi / 2]),
            rng.uniform(-3.0, 3.0, size=3), rng.uniform(-0.5, 0.5, size=2)))
        act, (q, dq, _), dropped = _without_bad(
            lambda q, dq, omega_i: control_action(q, dq, omega_i, cfg),
            ActuationSingularityError, tuple(drawn))
        skipped += dropped
        if act is None:
            continue
        qdd = swing_accel(q, dq, act.u, p, cfg.incline_assumed)
        rs = to_reduced(q, dq, cfg.targets)
        i_e, _ = reduced_inertias(rs, p)
        res = (matvec(i_e, matvec(OUTPUT_MAP, qdd))
               + matvec(quadratic_bracket(rs, p), rs.omega_e) - act.tau_tilde)
        worst.append(_worst(np.abs(res)))
    note = f"{n_states - skipped} states"
    if skipped:
        note += f", {skipped} singular skipped"
    return CheckResult("matched-model closed-loop reduction", _worst(worst),
                       1e-6, note=note)


def certify_integrator_transport(seed: int = 4) -> CheckResult:
    """(f) Zero forcing: the integrator's error-metric norm is invariant."""
    rng = np.random.default_rng(seed)
    p = RobotParams()
    targets = GaitTargets()
    q0 = rng.uniform(-0.8, 0.8, size=3)
    q1 = rng.uniform(-0.8, 0.8, size=3)
    w0 = rng.uniform(-1.0, 1.0, size=2)

    def path(t):
        s = t * t * (3.0 - 2.0 * t)
        ds = 6.0 * t * (1.0 - t)
        return q0 + s * (q1 - q0), ds * (q1 - q0)

    def norm_sq(t, w):
        q, dq = path(t)
        i_e, _ = reduced_inertias(to_reduced(q, dq, targets), p)
        return float(w @ i_e @ w)

    def rhs(t, w):
        q, dq = path(t)
        rs = to_reduced(q, dq, targets)
        i_e, _ = reduced_inertias(rs, p)
        return -np.linalg.solve(i_e, quadratic_bracket(rs, p) @ w)

    sol = solve_ivp(rhs, (0.0, 1.0), w0, rtol=1e-12, atol=1e-14)
    n0 = norm_sq(0.0, w0)
    n1 = norm_sq(1.0, sol.y[:, -1])
    return CheckResult("covariant-integrator norm transport",
                       abs(n1 - n0) / max(1.0, abs(n0)), 1e-6)


def _error_inertia_rate(rs: ReducedState, p: RobotParams) -> np.ndarray:
    rate_alpha, rate_beta = unstack(rs.omega_s)
    k_rate = (2.0 * p.torso_mass * np.sin(rs.alpha) * rate_alpha
              + 2.0 * p.leg_mass * np.sin(rs.beta) * rate_beta)
    l, r = p.torso_length, p.leg_length
    return stack_matrix([[l * l * k_rate, 0.0], [0.0, r * r * k_rate]])


def certify_skew(n_states: int = 1000, seed: int = 5) -> CheckResult:
    """(g) Inertia-rate minus twice the bracket is skew, both models."""
    rng = np.random.default_rng(seed)
    qs, dqs = _random_states(rng, n_states)
    targets = GaitTargets()
    worst = []
    for states in _slices(n_states):
        (p,) = _draw(states, lambda i: (_robot(rng, i),))
        q, dq = qs[states.start:states.stop], dqs[states.start:states.stop]
        s_full = (oracle_inertia_rate(q, dq, p)
                  - 2.0 * coriolis_matrix(q, dq, p))
        rs = to_reduced(q, dq, targets)
        s_err = _error_inertia_rate(rs, p) - 2.0 * quadratic_bracket(rs, p)
        worst.append(_worst(np.abs(s_full + s_full.swapaxes(-1, -2)),
                            np.abs(s_err + s_err.swapaxes(-1, -2))))
    return CheckResult("connection compatibility (skew)", _worst(worst), 1e-8,
                       note=f"{n_states} states")


def run_certification(n_states: int = 1000, seed: int = 0) -> CertificationReport:
    """Run the full battery; ``n_states`` scales every sampled check and
    must be at least 1, or each sampled check would pass on no evidence."""
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    _oracle()  # shared by the swing-term and skew checks: built before both
    return CertificationReport(checks=[
        certify_swing_terms(n_states, seed),
        certify_energy_conservation(),
        certify_reduced_consistency(n_states, seed + 1),
        certify_impact(n_states, seed + 2),
        certify_closed_loop(n_states, seed + 3),
        certify_integrator_transport(seed + 4),
        certify_skew(n_states, seed + 5),
    ])


# --------------------------------------------------------------------------
# Transcription report for the documented closed-form reduced forces
# --------------------------------------------------------------------------

def documented_reduced_forces(rs: ReducedState, p: RobotParams, incline: float):
    """The closed-form reduced force expressions from the original derivation.

    Reproduced verbatim for auditing only: several terms disagree with the
    certified model (see :func:`transcription_report`), so nothing in the
    simulator evaluates these.
    """
    m, mh, mt = p.leg_mass, p.hip_mass, p.torso_mass
    l, r, g = p.torso_length, p.leg_length, p.gravity
    a, b = rs.alpha, rs.beta
    we1, we2 = unstack(rs.omega_e)
    d1 = rs.omega1
    lam = incline
    q1 = rs.q1
    sin = np.sin

    tau_e = stack_vector(
        -l * ((4 * mh * d1**2 * r + m * we2**2 * r + 3 * m * d1**2 * r)
              * sin(a / 2)
              + 2 * m * d1**2 * r * sin(b - a / 2)
              + (m * d1**2 * r - 2 * m * we2 * d1 * r) * sin((a - b) / 2)
              + 2 * mt * l * we1**2 * sin(a)
              + (2 * m * we2 * d1 * r - m * we2**2 * r - m * d1**2 * r)
              * sin((a + b) / 2)),
        4 * mt * l * r * (sin(a / 2) + sin((a - b) / 2) + sin((a + b) / 2))
        * we1**2
        + r**2 * ((8 * mh * d1**2 + 4 * mt * d1**2 - 2 * m * we2**2
                   + 8 * m * d1**2 + 4 * m * we2 * d1) * sin(b / 2)
                  + (4 * m * we2 * d1 - 2 * m * we2**2) * sin(b)
                  + 2 * mt * d1**2 * sin(a)
                  + 4 * mt * d1**2 * sin(a - b / 2)),
    )
    tau_z = (mt * l * r * sin(a / 2) * we1**2
             + r**2 / 2 * (-(m * we2**2 - m * d1**2 + 2 * m * we2 * d1)
                           * sin(b / 2)
                           + m * d1**2 * sin(b) + mt * d1**2 * sin(a)))
    tau_g_e = stack_vector(
        g * l * (2 * (mh + mt + m) * sin(q1 + a / 2 - lam)
                 - m * sin(q1 + a / 2 - b - lam)
                 + m * sin(q1 - a / 2 + b - lam)
                 - (2 * mh + 2 * mt + m) * sin(q1 - a / 2 - lam)),
        -2 * g * r * ((mt + mt) * sin(a - q1 - lam)
                      + m * sin(b - q1 - lam)
                      + (2 * mh + mt + 3 * m) * sin(q1 + b / 2 - lam)
                      + (2 * mh + mt + 2 * m) * sin(q1 - lam)
                      - 2 * (mh + mt + m) * sin(q1 - b / 2 - lam)
                      + mt * sin(q1 + a - b / 2 - lam)),
    )
    tau_g_z = (-g * r / 2 * ((2 * mh + mt + 2 * m) * sin(q1 - lam)
                             + mt * sin(a - q1 - lam)
                             + m * sin(b - q1 - lam)))
    return tau_e, float_if_scalar(tau_z), tau_g_e, float_if_scalar(tau_g_z)


@dataclass(frozen=True)
class TranscriptionReport:
    """Per-term worst deviation of the documented closed forms."""

    residuals: dict[str, float]
    tolerance: float = 1e-6

    @property
    def faithful_terms(self) -> list[str]:
        return [k for k, v in self.residuals.items() if v <= self.tolerance]

    @property
    def corrupted_terms(self) -> list[str]:
        """Every term not faithful, a NaN residual included."""
        return [k for k, v in self.residuals.items() if not v <= self.tolerance]

    def as_text(self) -> str:
        lines = ["documented closed forms vs certified model:"]
        for name, res in self.residuals.items():
            verdict = "matches" if res <= self.tolerance else "TRANSCRIPTION ERROR"
            lines.append(f"  {name:22s} max |residual| {res:10.3e}  {verdict}")
        lines.append("the simulator evaluates only the certified terms.")
        return "\n".join(lines)


def transcription_report(n_states: int = 300, seed: int = 7) -> TranscriptionReport:
    """Measure each documented closed-form term against the certified model."""
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    rng = np.random.default_rng(seed)
    targets = GaitTargets()
    p = RobotParams()
    names = ("velocity force (output)", "velocity force (zero)",
             "gravity force (output)", "gravity force (zero)",
             "input matrix (output)", "input matrix (zero)")
    worst = {name: [] for name in names}
    for states in _slices(n_states):
        q, dq, incline = _draw(states, lambda _: (
            rng.uniform(-1.2, 1.2, size=3), rng.uniform(-3.0, 3.0, size=3),
            rng.uniform(-0.6, 0.6)))
        rs = to_reduced(q, dq, targets)
        cert = reduced_forces(rs, p, incline)
        doc = documented_reduced_forces(rs, p, incline)
        closed = input_matrix_e(rs, p)
        pushed = pushforward_input_matrix(rs, p)
        for name, got, want in zip(names, (*doc, *closed), (*cert, *pushed)):
            worst[name].append(_worst(np.abs(got - want)))
    return TranscriptionReport(residuals={name: _worst(values)
                                          for name, values in worst.items()})
