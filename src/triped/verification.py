"""Independent certification of the implemented model.

Everything numeric in this package that could hide a transcription slip —
inertia matrix, gravity torque, velocity forces, the impact mass matrix, the
reduced-model terms — is re-derived here from scratch with a symbolic
Lagrangian oracle (:mod:`sympy`): write down the four point-mass positions;
build the pinned chain's and the free chain's mass matrices as the sum of
``m J^T J`` over the masses' position Jacobians ``J``, each entry expanded;
take the velocity forces from the Christoffel symbols of the pinned one and
gravity from the potential's gradient; and lambdify them all as one
function onto :mod:`numpy`, so that one call evaluates a whole batch of
states.  The derivation (:func:`_oracle_sources`) always gives the same
generated source, so ``tools/derive_oracle.py`` commits that source as
:mod:`triped._oracle_source`; the battery compiles it at first use and
never imports sympy.  ``tests/test_verification.py`` holds the committed
oracle to a fresh derivation, value for value.  The oracle shares no code
with :mod:`triped.dynamics`; agreement
between the two is therefore meaningful evidence, and the certification
battery (:func:`run_certification`) turns that evidence plus the model's
structural invariants into pass/fail checks:

a. hand-coded inertia/gravity/velocity terms match the oracle;
b. along an integrated closed-loop swing, total energy changes by exactly
   the work of the hip torques;
c. the reduced (output/zero channel) model is equivalent to the full model;
d. the impact map zeroes the landing-foot velocity, conserves angular
   momentum about the impact point, and only ever dissipates energy;
e. the regularized matched-model closed loop reduces the output error
   dynamics exactly to the commanded PID system;
f. the covariant integrator parallel-transports: along the same swing, the
   error-metric norm of the integral state changes by exactly the work of
   the error sines, so the bracket term neither adds nor removes any;
g. compatibility of both connections (full and error-space): the
   inertia-rate minus twice the velocity-force bracket is skew-symmetric;
h. the simulator's fused kernel (:func:`triped.kernel.closed_loop`) is the
   reference control law followed by the reference plant, at random plants,
   controller models, slopes, gains and both error weightings; each kernel
   it builds serves about :data:`KERNEL_STATES` states in a row, so an
   answer carried from one call to the next shows too.

Checks (b) and (f) integrate the fused kernel itself, the function every
gait integrates, on :data:`BALANCE_CONFIG`, and hold it to the reference
energy and error-space inertia.  Both identities are exact, so along the
one trajectory they check the kernel's plant half, its torque routing, its
firewall (the plant half reads only ``cfg.plant`` and ``cfg.incline_true``)
and its bracket.  Their residual is NaN unless the integration reached the
end of its interval.

:func:`transcription_report` additionally compares the closed-form reduced
force expressions that accompany this model's original derivation against
the certified pushforward; several of those printed expressions carry
transcription errors, which is why the simulator never evaluates them.

Each sampled check is a draw and a residual function run by one driver,
:func:`_sampled`.  It draws the check's random states a batch of at most
:data:`BATCH_STATES` at a time, one array per quantity, evaluates each
batch through the batched reference functions (see :mod:`triped.dynamics`)
and skips, and counts in the note, the states they find degenerate or
singular.  The worst residual is NaN when any state's is, or when the
check skipped every state: a check with a NaN residual fails.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from array import array
from dataclasses import dataclass, field, fields

import numpy as np

from ._oracle_source import SOURCE
from .control import control_action
from .dynamics import (INPUT_MATRIX, coriolis_matrix, dot, float_if_scalar,
                       gravity_torque, inertia_matrix, matvec, quadratic,
                       stack_matrix, stack_vector, swing_accel,
                       swing_foot_position, total_energy, unstack)
from .errors import ActuationSingularityError, DegenerateContactError
from .impact import (RELABEL, chain_angular_momentum, free_mass_matrix,
                     pinned_embedding, reset_map)
from .kernel import closed_loop
from .ode import solve_ivp
from .params import (ERROR_WEIGHTINGS, ControllerConfig, ControllerGains,
                     GaitTargets, RobotParams, SimConfig, _COUNT, _require)
from .reduced import (OUTPUT_MAP, ReducedState, input_matrix_e, pushforward,
                      quadratic_bracket, reduced_forces, reduced_inertias,
                      to_reduced)

#: Sampled states per batched evaluation: a check draws and evaluates its
#: states this many at a time, which bounds the memory of a large battery.
BATCH_STATES = 1000


def _oracle_matrix(rows) -> np.ndarray:
    """A lambdified matrix over a batch: the entries (scalars or arrays)
    broadcast together into one ``(..., rows, cols)`` array.  It stays a
    copy of :func:`triped.dynamics.stack_matrix`, so the oracle shares no
    code with :mod:`triped.dynamics`: a layout slip in a shared helper would
    transpose the non-symmetric ``C`` on both sides of check (a)."""
    entries = np.broadcast_arrays(
        *(np.asarray(entry, dtype=float) for row in rows for entry in row))
    return np.stack(entries, axis=-1).reshape(
        entries[0].shape + (len(rows), len(rows[0])))


#: What the oracle's generated source runs against: numpy's ``sin`` and
#: ``cos``, so every argument may be a batch, and :func:`_oracle_matrix`,
#: so a matrix comes back as one array with the batch axes leading.  The
#: namespace is named in full: lambdify's "numpy" module would import
#: numpy's lazy submodules (testing, f2py ...), which costs more than the
#: whole build.
_ORACLE_NAMESPACE = {"ImmutableDenseMatrix": _oracle_matrix,
                     "sin": np.sin, "cos": np.cos}


def _oracle_sources() -> str:
    """Derive the symbolic model and lambdify it: the Python source of one
    function of ``(q, dq, params, incline)`` that returns the oracle's five
    matrices (see :func:`oracle_terms`).  The only code here that loads
    sympy; ``tools/derive_oracle.py`` commits its result."""
    import sympy as sp

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
    return inspect.getsource(sp.lambdify(
        (q, dq, params, lam), [inertia, mass_rate, coriolis, gravity, free_mass],
        modules=[_ORACLE_NAMESPACE]))


def _compile_oracle(source: str):
    """The oracle's function: its source run in the namespace that lambdify
    generated it for."""
    namespace = dict(_ORACLE_NAMESPACE)
    exec(compile(source, "<oracle>", "exec"), namespace)
    return namespace["_lambdifygenerated"]  # lambdify's name


@functools.cache
def _oracle():
    """The oracle's function, compiled once per process from the committed
    source that ``tools/derive_oracle.py`` writes from
    :func:`_oracle_sources`."""
    return _compile_oracle(SOURCE)


def oracle_terms(q, dq, p: RobotParams, incline):
    """The symbolic oracle at one state or a batch: the swing-phase mass
    matrix, its time derivative along ``dq``, the velocity-force matrix
    from the Christoffel symbols, the gravity torque from the potential,
    and the unpinned chain's 5x5 mass matrix."""
    mass, mass_rate, coriolis, gravity, free_mass = _oracle()(
        np.moveaxis(q, -1, 0), np.moveaxis(dq, -1, 0),
        (p.leg_mass, p.hip_mass, p.torso_mass, p.torso_length, p.leg_length,
         p.gravity),
        incline)
    return mass, mass_rate, coriolis, gravity[..., 0], free_mass


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
    """Battery outcome; ``ok`` only when checks ran and every one passed."""

    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

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


def _gait_states(rng: np.random.Generator, n: int):
    """``n`` closed-loop states near the gait: ``(q, dq, omega_I)``."""
    q = rng.uniform(-1.0, 1.0, size=(n, 3)) + [0.0, 0.0, np.pi / 2]
    dq = rng.uniform(-3.0, 3.0, size=(n, 3))
    return q, dq, rng.uniform(-0.5, 0.5, size=(n, 2))


def _robots(rng: np.random.Generator, n: int) -> RobotParams:
    """The robots of ``n`` states, each field an ``(n,)`` array: the nominal
    robot at even indices; at odd ones each mass and length scaled by
    U(0.5, 1.5), and gravity nominal."""
    nominal = RobotParams()
    scale = np.ones((n, 5))
    scale[1::2] = rng.uniform(0.5, 1.5, size=(n // 2, 5))
    leg_m, hip_m, torso_m, leg_l, torso_l = scale.T
    return RobotParams(leg_mass=nominal.leg_mass * leg_m,
                       hip_mass=nominal.hip_mass * hip_m,
                       torso_mass=nominal.torso_mass * torso_m,
                       leg_length=nominal.leg_length * leg_l,
                       torso_length=nominal.torso_length * torso_l,
                       gravity=np.full(n, nominal.gravity))


def _take(batch, index):
    """The states ``index`` of a batch: an array's leading axis, or each
    field of a stacked :class:`RobotParams`."""
    if isinstance(batch, RobotParams):
        return RobotParams(**{f.name: getattr(batch, f.name)[index]
                              for f in fields(RobotParams)})
    return batch[index]


def _batches(n_states: int) -> list[int]:
    """The sizes of a check's batches, at most :data:`BATCH_STATES` each.
    A check needs at least one state, or it would pass on no evidence."""
    _require("n_states", n_states, _COUNT)
    return [min(BATCH_STATES, n_states - start)
            for start in range(0, n_states, BATCH_STATES)]


def _worst(*residuals) -> float:
    """Largest entry of the residual arrays, or 0 for none; NaN when any
    entry is NaN, which Python's ``max`` would silently pass over."""
    return float(np.max([np.max(r, initial=0.0) for r in residuals],
                        initial=0.0))


def _sampled(name: str, tolerance: float, n_states: int, seed: int, draw,
             residuals, skip=(), why: str = "singular",
             paired: bool = False) -> CheckResult:
    """A sampled check, batch by batch on one seeded generator.

    ``draw(rng, n)`` draws ``n`` states, a tuple of arrays (or stacked
    :class:`RobotParams`) with the states on the leading axis, and
    ``residuals(*drawn)`` returns their residual arrays.  The states it
    raises ``skip`` for (``()`` catches nothing) are dropped, noted as
    ``why`` skipped, and the rest evaluated again.  With ``paired``, the
    draw's first array marks the states the checked code found singular,
    and a state singular on one path only is noted and makes the residual
    NaN, as skipping every state does."""
    rng = np.random.default_rng(seed)
    worst = []
    skipped = unmatched = 0
    for n in _batches(n_states):
        drawn = draw(rng, n)
        try:
            found, dropped = residuals(*drawn), False
        except skip as err:
            dropped = err.bad
            found = (residuals(*(_take(x, ~dropped) for x in drawn))
                     if not dropped.all() else ())
        skipped += np.count_nonzero(dropped)
        if paired:
            unmatched += np.count_nonzero(drawn[0] != dropped)
        worst.append(_worst(*found))
    note = f"{n_states - skipped} states"
    if skipped:
        note += f", {skipped} {why} skipped"
    if unmatched:
        note += f", {unmatched} singular on one path only"
    return CheckResult(name, np.nan if skipped == n_states or unmatched
                       else _worst(worst), tolerance, note=note)


def certify_swing_terms(n_states: int = 1000, seed: int = 0) -> CheckResult:
    """(a) Hand-coded inertia/gravity/velocity terms vs the oracle."""
    def draw(rng, n):
        return (*_random_states(rng, n), _robots(rng, n),
                rng.uniform(-0.6, 0.6, size=n))

    def residuals(q, dq, p, incline):
        mass, _, coriolis, gravity, free_mass = oracle_terms(q, dq, p, incline)
        return (np.abs(inertia_matrix(q, p) - mass),
                np.abs(gravity_torque(q, p, incline) - gravity),
                np.abs(coriolis_matrix(q, dq, p) - coriolis),
                np.abs(free_mass_matrix(q, p) - free_mass))

    return _sampled("swing terms vs symbolic oracle", 1e-8, n_states, seed,
                    draw, residuals)


#: The closed loop that checks (b) and (f) integrate, and its start: the
#: nominal robot on 25 deg under a controller whose model and assumed slope
#: are both wrong, so that each half of the kernel reads its own
#: parameters.  The soft gains keep the loop non-stiff (the default gains
#: need about 13 times the evaluations); ``ki = 0`` keeps the integrator
#: state out of the torques; the inertia-weighted error makes the rate of
#: the integrator's norm exactly ``omega_I . sin(q_e)`` (see check (f)).
BALANCE_CONFIG = SimConfig(
    plant=RobotParams(), incline_true=math.radians(25.0),
    controller=ControllerConfig(
        gains=ControllerGains(kp=10.0, kd=5.0, ki=0.0),
        model=RobotParams(leg_mass=1.1, hip_mass=0.9, torso_mass=3.3,
                          leg_length=1.05, torso_length=0.7),
        incline_assumed=math.radians(20.0), error_weighting="inertia"),
    initial_state=(0.15, -0.3, 1.6, 0.6, -0.4, 0.3))
#: How long (s) checks (b) and (f) integrate :data:`BALANCE_CONFIG`.
_BALANCE_HORIZON = 1.0


def _balance_run(rate, omega_i, rtol: float, atol: float):
    """Integrate the kernel of :data:`BALANCE_CONFIG` for
    :data:`_BALANCE_HORIZON` from its start with integrator state
    ``omega_i``, plus a ninth state from 0 whose rate is ``rate(loop, t, x)``
    at the closed-loop state ``x``; sampled at 101 times.  Returns the
    solution and the start."""
    loop = closed_loop(BALANCE_CONFIG)

    def rhs(t, y):
        x = y[:8]
        return (*loop(t, x), rate(loop, t, x))

    y0 = [*BALANCE_CONFIG.initial_state, *omega_i, 0.0]
    sol = solve_ivp(rhs, (0.0, _BALANCE_HORIZON), y0, rtol=rtol, atol=atol,
                    t_eval=np.linspace(0.0, _BALANCE_HORIZON, 101))
    return sol, np.array(y0)


def _balance_check(name: str, sol, residual, tolerance: float) -> CheckResult:
    """The check whose residual is the worst of ``residual``, or NaN unless
    the integration reached the end of its interval: a truncated run
    certifies nothing."""
    return CheckResult(name, _worst(residual) if sol.status == 0 else np.nan,
                       tolerance, note=f"{_BALANCE_HORIZON:.1f} s horizon, "
                                       f"{sol.nfev} evaluations")


def certify_energy_conservation() -> CheckResult:
    """(b) The closed loop's energy changes by exactly the hips' work."""
    def hip_power(loop, t, x):
        u1, u2 = loop(t, x, True)[:2]
        return u1 * (x[5] - x[3]) + u2 * (x[5] - x[4])

    sol, y0 = _balance_run(hip_power, (0.0, 0.0), 1e-11, 1e-13)
    p, incline = BALANCE_CONFIG.plant, BALANCE_CONFIG.incline_true
    ys = sol.y_eval
    e0 = total_energy(y0[:3], y0[3:6], p, incline)
    drift = np.abs(total_energy(ys[:, :3], ys[:, 3:6], p, incline) - e0
                   - ys[:, 8])
    return _balance_check("powered-swing energy drift", sol,
                          drift / max(1.0, abs(e0)), 1e-8)


def certify_reduced_consistency(n_states: int = 1000, seed: int = 1) -> CheckResult:
    """(c) Reduced two-channel model is the full model in new coordinates:
    the full model's acceleration satisfies the decoupled equations."""
    targets = GaitTargets()

    def draw(rng, n):
        return (*_random_states(rng, n), _robots(rng, n),
                rng.uniform(-50.0, 50.0, size=(n, 2)),
                rng.uniform(-0.6, 0.6, size=n))

    def residuals(q, dq, p, u, incline):
        qdd = swing_accel(q, dq, u, p, incline)
        rs = to_reduced(q, dq, targets)
        i_e, i_z = reduced_inertias(rs, p)
        tau_e, tau_z, tau_g_e, tau_g_z = reduced_forces(rs, p, incline)
        b_e, b_z = input_matrix_e(rs, p)
        res_e = (matvec(i_e, matvec(OUTPUT_MAP, qdd)) + tau_e + tau_g_e
                 - matvec(b_e, u))
        res_z = i_z * qdd[..., 0] + tau_z + tau_g_z - dot(b_z, u)
        return np.abs(res_e), np.abs(res_z)

    return _sampled("reduced-vs-full consistency", 1e-6, n_states, seed, draw,
                    residuals)


def certify_impact(n_states: int = 1000, seed: int = 2) -> CheckResult:
    """(d) Plastic impact: sticks, conserves momentum, dissipates energy."""
    def draw(rng, n):
        return (_robots(rng, n), rng.uniform(-1.2, 1.2, size=(n, 3)),
                rng.uniform(-4.0, 4.0, size=(n, 3)))

    def residuals(p, q, dq):
        res = reset_map(q, dq, p)
        foot = swing_foot_position(q, p)
        # The impulse acts at the landing foot, so momentum about it is
        # conserved across the jump, before the relabel.  Pinned, the hip
        # moves by the stance leg's lever, the embedding's hip rows; after,
        # the rates revert to the old labels and the hip moves as the
        # released foot plus that lever: all read off what step uses.
        emb = pinned_embedding(q, p)
        lever = emb[..., 3:, :]
        rates_old = matvec(RELABEL, res.dq_plus)
        hip_post = res.liftoff_velocity + matvec(lever, rates_old)
        l_pre = chain_angular_momentum(q, dq, matvec(lever, dq), p, foot)
        l_post = chain_angular_momentum(q, rates_old, hip_post, p, foot)
        # emb^T D emb is exactly the pinned inertia; the impulse is linear in dq.
        reduced = emb.swapaxes(-1, -2) @ free_mass_matrix(q, p) @ emb
        doubled = reset_map(q, 2.0 * dq, p)
        return (np.abs(res.contact_velocity),
                np.abs(l_post - l_pre) / np.maximum(1.0, np.abs(l_pre)),
                np.maximum(0.0, -res.kinetic_energy_loss),
                np.abs(reduced - inertia_matrix(q, p)),
                np.abs(doubled.impulse - 2.0 * res.impulse))

    return _sampled("impact stick/momentum/dissipation", 1e-6, n_states, seed,
                    draw, residuals, skip=DegenerateContactError,
                    why="degenerate")


def certify_closed_loop(n_states: int = 1000, seed: int = 3) -> CheckResult:
    """(e) Matched model: regularized loop equals the commanded PID system."""
    cfg = ControllerConfig()

    def residuals(q, dq, omega_i):
        act = control_action(q, dq, omega_i, cfg)
        qdd = swing_accel(q, dq, act.u, cfg.model, cfg.incline_assumed)
        rs = to_reduced(q, dq, cfg.targets)
        i_e, _ = reduced_inertias(rs, cfg.model)
        return (np.abs(matvec(i_e, matvec(OUTPUT_MAP, qdd))
                       + matvec(quadratic_bracket(rs, cfg.model), rs.omega_e)
                       - act.tau_tilde),)

    return _sampled("matched-model closed-loop reduction", 1e-6, n_states,
                    seed, _gait_states, residuals,
                    skip=ActuationSingularityError)


def certify_integrator_transport(seed: int = 4) -> CheckResult:
    """(f) The integrator's error-metric norm changes by exactly the work
    of the error sines: the bracket transports it.

    The residual is absolute, in the norm's own units.  Each component of
    the drawn ``omega_I(0)`` is 1 to 2 in size, so the norm is of order 10
    and a relative slip of 1e-6 in either integrator rate exceeds the
    tolerance."""
    rng = np.random.default_rng(seed)
    omega_i0 = rng.uniform(1.0, 2.0, size=2) * rng.choice((-1.0, 1.0), size=2)
    ctrl = BALANCE_CONFIG.controller
    q3_ref = ctrl.targets.q3_ref

    def sine_power(loop, t, x):
        return x[6] * math.sin(x[2] - q3_ref) + x[7] * math.sin(x[0] + x[1])

    def norm(y):
        i_e, _ = reduced_inertias(to_reduced(y[..., :3], y[..., 3:6],
                                             ctrl.targets), ctrl.model)
        return 0.5 * quadratic(y[..., 6:8], i_e, y[..., 6:8])

    sol, y0 = _balance_run(sine_power, omega_i0.tolist(), 1e-12, 1e-14)
    drift = np.abs(norm(sol.y_eval) - norm(y0) - sol.y_eval[:, 8])
    return _balance_check("covariant-integrator norm transport", sol, drift,
                          1e-6)


def _error_inertia_rate(rs: ReducedState, p: RobotParams) -> np.ndarray:
    rate_alpha, rate_beta = unstack(rs.omega_s)
    k_rate = (2.0 * p.torso_mass * np.sin(rs.alpha) * rate_alpha
              + 2.0 * p.leg_mass * np.sin(rs.beta) * rate_beta)
    l, r = p.torso_length, p.leg_length
    return stack_matrix([[l * l * k_rate, 0.0], [0.0, r * r * k_rate]])


def certify_skew(n_states: int = 1000, seed: int = 5) -> CheckResult:
    """(g) Inertia-rate minus twice the bracket is skew, both models."""
    targets = GaitTargets()

    def draw(rng, n):
        return (*_random_states(rng, n), _robots(rng, n))

    def residuals(q, dq, p):
        _, mass_rate, *_ = oracle_terms(q, dq, p, 0.0)
        s_full = mass_rate - 2.0 * coriolis_matrix(q, dq, p)
        rs = to_reduced(q, dq, targets)
        s_err = _error_inertia_rate(rs, p) - 2.0 * quadratic_bracket(rs, p)
        return (np.abs(s_full + s_full.swapaxes(-1, -2)),
                np.abs(s_err + s_err.swapaxes(-1, -2)))

    return _sampled("connection compatibility (skew)", 1e-8, n_states, seed,
                    draw, residuals)


def _rows(batch: RobotParams):
    """The fields of each robot of a stacked :class:`RobotParams`, one
    tuple of Python floats per robot, in field order."""
    return zip(*(getattr(batch, f.name).tolist() for f in fields(RobotParams)))


#: States per drawn controller in check (h): each built kernel serves about
#: this many states in a row, so a kernel that carries state from one call
#: to the next shows, and the check builds a quarter of the kernels.
KERNEL_STATES = 4

#: What check (h) records for a state the kernel finds singular: its five
#: outputs and eight rates, all NaN.
_SINGULAR = (math.nan,) * 13


def certify_kernel(n_states: int = 1000, seed: int = 6) -> CheckResult:
    """(h) The simulator's fused kernel is the reference law it fuses.

    Each batch of ``n`` states draws ``ceil(n / KERNEL_STATES)`` controllers,
    at least two when ``n >= 2``: a plant, a controller model, a true and an
    assumed slope, three gains, and the raw error at controllers 0, 3, 4,
    7, 8 ..., the inertia-weighted at 1, 2, 5, 6 ..., so that each meets
    nominal and scaled robots (:func:`_robots`).  Each controller serves
    one contiguous run of states.  Its kernel is built once and called on
    each in turn, ``outputs=True`` then the full derivative."""
    def draw(rng, n):
        k = max(-(-n // KERNEL_STATES), min(n, 2))
        plant, model = _robots(rng, k), _robots(rng, k)
        incline_true, incline_assumed = rng.uniform(-0.6, 0.6, size=(2, k))
        gains = np.exp(rng.uniform(np.log(0.1), np.log(1e4), size=(3, k)))
        q, dq, omega_i = _gait_states(rng, n)
        weighting = np.array([(j + j // 2) % 2 for j in range(k)])
        owner = np.arange(n) * k // n
        states = map(np.ndarray.tolist, np.hstack([q, dq, omega_i]))

        # The kernel, built once per controller and called on its states
        # in turn, as a swing calls it.  Each state's outputs and rates go
        # into one buffer of doubles, read as one array per batch.
        answers, singular = array("d"), []
        for p, m, lam_t, lam_a, g, w, size in zip(
                _rows(plant), _rows(model), incline_true.tolist(),
                incline_assumed.tolist(), gains.T.tolist(), weighting.tolist(),
                np.bincount(owner).tolist()):
            rhs = closed_loop(SimConfig(
                plant=RobotParams(*p), incline_true=lam_t,
                controller=ControllerConfig(
                    gains=ControllerGains(*g), model=RobotParams(*m),
                    incline_assumed=lam_a,
                    error_weighting=ERROR_WEIGHTINGS[w])))
            for y in itertools.islice(states, size):
                try:
                    answer = (*rhs(0.0, y, True), *rhs(0.0, y))
                except ActuationSingularityError:
                    answer = _SINGULAR
                answers.extend(answer)
                singular.append(answer is _SINGULAR)
        # Each state with its controller's draws.
        return (np.array(singular), weighting[owner], q, dq, omega_i,
                np.frombuffer(answers).reshape(n, 13), _take(plant, owner),
                incline_true[owner], _take(model, owner),
                incline_assumed[owner], gains.T[owner])

    def residuals(singular, weighting, *states):
        # One reference batch per error weighting; the states it finds
        # singular under either weighting are dropped together.
        found, bad = [], np.zeros(weighting.shape, dtype=bool)
        for w, name in enumerate(ERROR_WEIGHTINGS):
            at = weighting == w
            if not at.any():
                continue
            try:
                found.append(reference(name, *(_take(x, at) for x in states)))
            except ActuationSingularityError as err:
                bad[at] = err.bad
        if bad.any():
            raise ActuationSingularityError("reference law singular", bad)
        return found

    def reference(weighting, q, dq, omega_i, answers, plant, incline_true,
                  model, incline_assumed, gains):
        ctrl = ControllerConfig(
            gains=ControllerGains(*gains.T[..., None]), model=model,
            incline_assumed=incline_assumed, error_weighting=weighting)
        act = control_action(q, dq, omega_i, ctrl)
        qdd = swing_accel(q, dq, act.u, plant, incline_true)
        want = np.column_stack([act.u, act.eta, act.det_input, dq, qdd,
                                act.omega_I_rate])
        return np.abs(answers - want) / np.maximum(1.0, np.abs(want))

    return _sampled("fused kernel vs reference law", 1e-10, n_states, seed,
                    draw, residuals, skip=ActuationSingularityError,
                    paired=True)


def run_certification(n_states: int = 1000, seed: int = 0) -> CertificationReport:
    """Run the full battery; ``n_states`` scales every sampled check and
    must be an integer >= 1 (each check's :func:`_batches` refuses others)."""
    return CertificationReport(checks=[
        certify_swing_terms(n_states, seed), certify_energy_conservation(),
        certify_reduced_consistency(n_states, seed + 1),
        certify_impact(n_states, seed + 2),
        certify_closed_loop(n_states, seed + 3),
        certify_integrator_transport(seed + 4),
        certify_skew(n_states, seed + 5),
        certify_kernel(n_states, seed + 6),
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
    d1 = rs.dq[..., 0]
    lam = incline
    q1 = rs.q[..., 0]
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
    rng = np.random.default_rng(seed)
    targets = GaitTargets()
    p = RobotParams()
    names = ("velocity force (output)", "velocity force (zero)",
             "gravity force (output)", "gravity force (zero)",
             "input matrix (output)", "input matrix (zero)")
    worst = {name: [] for name in names}
    for n in _batches(n_states):
        q = rng.uniform(-1.2, 1.2, size=(n, 3))
        dq = rng.uniform(-3.0, 3.0, size=(n, 3))
        incline = rng.uniform(-0.6, 0.6, size=n)
        rs = to_reduced(q, dq, targets)
        cert = reduced_forces(rs, p, incline)
        doc = documented_reduced_forces(rs, p, incline)
        closed = input_matrix_e(rs, p)
        inertia = inertia_matrix(q, p)
        pushed = pushforward(rs, p, inertia, np.broadcast_to(
            INPUT_MATRIX, inertia.shape[:-1] + (2,)))
        for name, got, want in zip(names, (*doc, *closed), (*cert, *pushed)):
            worst[name].append(_worst(np.abs(got - want)))
    return TranscriptionReport(residuals={name: _worst(values)
                                          for name, values in worst.items()})
