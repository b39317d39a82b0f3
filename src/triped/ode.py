"""Explicit Runge–Kutta 5(4) integration over plain floats.

:func:`solve_ivp` integrates ``y' = fun(t, y)`` forward in time with the
Dormand–Prince 5(4) pair (Dormand & Prince, *J. Comput. Appl. Math.* 6(1),
1980; Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.4–II.6).  It is
``scipy.integrate.solve_ivp(method="RK45")`` restated over Python floats,
so that it takes the same steps:

* the same tableau, first-same-as-last stage, initial-step rule and RMS
  error norm over ``atol + max(|y|, |y_new|) rtol``;
* the same step controller: safety 0.9, factors 0.2–10, exponent -1/5 and
  no growth right after a rejection;
* the same quartic interpolant (Shampine's optimum ``c6``), evaluated at
  the ``t_eval`` times each accepted step covers, cut at the event if one
  fired, as soon as the step is taken: no step's state is kept;
* the same refusal of a ``t_eval`` outside ``t_span`` or not rising, with
  scipy's messages, before the first step;
* the same event semantics for direction-filtered events, except that every
  event is terminal and is localised by bisection on the step's interpolant
  to ``4 eps (1 + |t|)``.

On a system of eight equations the per-stage cost of numpy calls on
8-vectors is most of an RK45 step, so the step runs over floats.  Loops
over the components (``zip`` and list comprehensions) would then cost about
as much as the right-hand side itself, so the step attempt, the dense
coefficients and the interpolant are straight-line code: generated from a
template once per state dimension, on first use, compiled with ``exec``
(as :mod:`dataclasses` and :func:`collections.namedtuple` build their
methods) and cached.  Every expression keeps the textbook loop's operands,
order and parentheses, so the steps are bit for bit those of the loop; the
source is registered with :mod:`linecache` under ``<triped.ode dp5 n=N>``,
so a traceback through it shows its lines.

The driver loop around the generated step runs once per attempt, so it is
kept short too: the functions it calls are bound to locals, the step
controller's bounds are comparisons that pick the operand ``min`` would,
and the events' direction rule is one comprehension over the step's
values.  It computes what scipy's loop computes, in the same order, so it
adds no rounding of its own.

``fun`` and the events receive ``y`` as a list of floats, ``fun`` returns
any sequence of ``len(y)`` numbers (a ``ValueError`` otherwise); of each
step the result keeps only its end time.  ``max_nfev`` bounds the work: the
integration stops, with status -1, before an attempt would pass it.

Three deliberate differences from scipy: a NaN step size fails as a step
below ``10 ulp(t)`` does (scipy loops forever on it), ``atol`` must be
positive (numpy divides by a zero error scale, Python raises) and
``t_span`` finite (no step reaches an infinite end).
``tests/test_ode.py`` holds the steps, the event times and the ``t_eval``
states to scipy's.
"""

from __future__ import annotations

import functools
import linecache
import math
import sys
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

EPS = sys.float_info.epsilon

#: scipy's messages, so callers can report either integrator the same way.
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
#: Why :func:`solve_ivp` stopped at its ``max_nfev`` (scipy has no budget).
NFEV_BUDGET_SPENT = "The budget of right-hand side evaluations (max_nfev) is spent."
MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
#: Minus one over (error estimator order + 1).
EXPONENT = -1.0 / 5.0

# Dormand–Prince 5(4) in scipy's RK45 layout.  C: the nodes of stages 2..6;
# A: each of those stages' weights over the stages before it; B and E: the
# solution and error weights over the stages, the seventh being
# f(t + h, y_new); P: per stage, the weights of the dense output's x², x³ and
# x⁴ coefficients (stage 1 alone gives the x coefficient).
C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
A = ((1 / 5,),
     (3 / 40, 9 / 40),
     (44 / 45, -56 / 15, 32 / 9),
     (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
     (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
     1 / 40)
P = ((-8048581381 / 2820520608, 8663915743 / 2820520608,
      -12715105075 / 11282082432),
     (0.0, 0.0, 0.0),
     (131558114200 / 32700410799, -68118460800 / 10900136933,
      87487479700 / 32700410799),
     (-1754552775 / 470086768, 14199869525 / 1410260304,
      -10690763975 / 1880347072),
     (127303824393 / 49829197408, -318862633887 / 49829197408,
      701980252875 / 199316789632),
     (-282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
     (40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))


#: Letters naming the components of the stages k1..k7 in generated code.
_K = "abcdefg"


def _dp5_source(n: int) -> str:
    """The straight-line Dormand–Prince step and dense output for ``n``
    equations: the textbook loop over components written out once per
    component, each expression with its operands, order and parentheses.

    The tableau enters as exact float literals (``repr`` round-trips), which
    Python loads faster than module globals; zero weights are left out.
    """
    def names(prefix: str) -> str:
        return ", ".join(f"{prefix}{i}" for i in range(n)) + ("," if n == 1 else "")

    def combination(weights, i: int) -> str:
        return " + ".join(f"{w!r} * {_K[j]}{i}" for j, w in enumerate(weights) if w)

    def listing(items) -> list[str]:
        return [f"        {item}," for item in items]

    lines = ["def step(fun, t, h, y, k1, atol, rtol):",
             f"    {names('v')} = y",
             f"    {names('a')} = k1"]
    for s, (node, weights) in enumerate(zip(C, A), start=2):
        at = "h" if node == 1 else f"{node!r} * h"
        lines += [f"    k{s} = fun(t + {at}, ["]
        lines += listing(f"v{i} + ({combination(weights, i)}) * h" for i in range(n))
        lines += ["    ])", f"    {names(_K[s - 1])} = k{s}"]
    lines += [f"    w{i} = v{i} + h * ({combination(B, i)})" for i in range(n)]
    lines += [f"    y_new = [{names('w')}]",
              "    k7 = fun(t + h, y_new)",
              f"    {names('g')} = k7"]
    lines += [f"    r{i} = (({combination(E, i)}) * h"
              f" / (atol + max(abs(v{i}), abs(w{i})) * rtol))" for i in range(n)]
    # The textbook loop sums from 0.0; adding to 0.0 first changes no bit.
    lines += ["    return ((k1, k2, k3, k4, k5, k6, k7), y_new,",
              "            " + " + ".join(f"r{i} * r{i}" for i in range(n)) + ")",
              "",
              "",
              "def coefficients(stages):",
              "    k1, _, k3, k4, k5, k6, k7 = stages"]
    lines += [f"    {names(_K[j])} = k{j + 1}" for j in (0, 2, 3, 4, 5, 6)]
    lines += ["    return ("]
    lines += listing(combination(column, i) for i in range(n) for column in zip(*P))
    lines += ["    )",
              "",
              "",
              "def interpolate(t_old, h, y_old, k1, q, t):",
              f"    {names('v')} = y_old",
              f"    {names('a')} = k1",
              "    " + ", ".join(f"q{i}_{p}" for i in range(n) for p in (2, 3, 4))
              + " = q",
              "    x = (t - t_old) / h",
              "    x2 = x * x",
              "    x3 = x2 * x",
              "    x4 = x3 * x",
              "    return ["]
    lines += listing(f"v{i} + h * (a{i} * x + q{i}_2 * x2 + q{i}_3 * x3 + q{i}_4 * x4)"
                     for i in range(n))
    lines += ["    ]", ""]
    return "\n".join(lines)


class _Dp5(NamedTuple):
    """The generated functions for one state dimension.

    ``step(fun, t, h, y, k1, atol, rtol)`` returns the seven stages, the
    fifth-order solution and the squared error sum of one attempt;
    ``coefficients(stages)`` the x², x³ and x⁴ coefficients of the quartic,
    three per component; ``interpolate(t_old, h, y_old, k1, q, t)`` its
    value at ``t``, the step's interpolant once the rest are bound.
    """

    step: Callable
    coefficients: Callable
    interpolate: Callable


@functools.cache
def _dp5(n: int) -> _Dp5:
    """Compile :func:`_dp5_source` for ``n`` equations, once per ``n``.

    The source is registered with :mod:`linecache`, so a traceback through
    it shows its lines.
    """
    source = _dp5_source(n)
    filename = f"<triped.ode dp5 n={n}>"
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return _Dp5(namespace["step"], namespace["coefficients"], namespace["interpolate"])


@dataclass(frozen=True)
class OdeResult:
    """What :func:`solve_ivp` returns.

    ``status`` is 0 at the end of the interval, 1 on an event and -1 when
    the step size collapsed.  ``t`` holds the start and the end of every
    accepted step (the last one cut at the event), ``y_end`` the state at
    ``t[-1]`` as an ``(n,)`` array, and ``y_eval`` the states at the ``k``
    times of ``t_eval`` it reached as ``(k, n)``, one per row.  ``event`` is
    the index of the event that ended the integration, None if none did; its
    time and state are ``t[-1]`` and ``y_end``.
    """

    t: np.ndarray
    y_end: np.ndarray
    y_eval: np.ndarray
    event: int | None
    nfev: int
    n_accepted: int
    n_rejected: int
    status: int
    message: str


def _rms(values) -> float:
    """scipy's error norm: the Euclidean norm over the square root of n."""
    return math.sqrt(sum(v * v for v in values)) / len(values) ** 0.5


def _initial_step(fun, t0: float, y0: list, f0, t_bound: float, rtol: float,
                  atol: float) -> float:
    """Hairer, Nørsett & Wanner's starting step (§II.4), as scipy takes it."""
    scale = [atol + abs(y) * rtol for y in y0]
    d0 = _rms([y / s for y, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    interval = t_bound - t0
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, [y + h0 * f for y, f in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    d_max = max(d1, d2)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        # numpy divides 0.01 by a zero d_max to inf; Python would raise.
        h1 = (0.01 / d_max) ** (1 / 5) if d_max > 0 else math.inf
    return min(100 * h0, h1, interval)


def _root(event, dense: Callable[[float], list[float]], t_old: float,
          t_new: float, g_old: float) -> float:
    """Bisect ``event(t, dense(t))`` on the step's interpolant to 4 eps."""
    if g_old == 0:
        return t_old
    lo, hi = t_old, t_new
    while hi - lo > 4 * EPS * (1.0 + abs(hi)):
        mid = 0.5 * (lo + hi)
        g_mid = event(mid, dense(mid))
        if g_mid == 0:
            return mid
        if (g_mid < 0) == (g_old < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_ivp(fun: Callable, t_span: tuple[float, float], y0, rtol: float = 1e-3,
              atol: float = 1e-6, events: Sequence[Callable] = (),
              max_nfev: int | None = None,
              t_eval: Sequence[float] | np.ndarray | None = None) -> OdeResult:
    """Integrate ``y' = fun(t, y)`` from ``t_span[0]`` towards ``t_span[1]``.

    Each event ``g(t, y)`` may carry a ``direction`` attribute (scipy's
    meaning: > 0 fires only on a rising zero, < 0 only on a falling one);
    every event is terminal.  See the module docstring for what matches
    scipy's RK45.

    ``max_nfev`` bounds the evaluations of ``fun``: the start takes two and
    each step attempt six, and an attempt that would pass the budget is not
    made; the result then has status -1 and the message
    :data:`NFEV_BUDGET_SPENT`.  None sets no bound.

    ``t_span`` must be finite and rising, and ``t_eval`` an array-like of
    times rising strictly inside it (scipy's ``ValueError`` otherwise), before
    ``fun`` is called; ``y_eval`` reports the solution at those times: as in
    scipy, on the step that contains each, the earlier one on a node.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t) and math.isfinite(t_bound)):
        raise ValueError("t_span must be finite")
    if not t_bound > t:
        raise ValueError("solve_ivp integrates forward: t_span must increase")
    if not atol > 0:
        raise ValueError("atol must be positive")
    rtol = max(rtol, 100 * EPS)   # scipy's floor on rtol
    if max_nfev is not None and not max_nfev >= 2:
        raise ValueError("max_nfev must be at least 2: the start takes two evaluations")
    budget = math.inf if max_nfev is None else max_nfev
    t_eval = np.asarray(() if t_eval is None else t_eval, dtype=float)
    if t_eval.ndim != 1:
        raise ValueError("`t_eval` must be 1-dimensional.")
    if not np.all((t <= t_eval) & (t_eval <= t_bound)):
        raise ValueError("Values in `t_eval` are not within `t_span`.")
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("Values in `t_eval` are not properly sorted.")
    # math.inf ends the walk: no step reaches it.
    times = [*t_eval.tolist(), math.inf]
    y = np.asarray(y0, dtype=float).tolist()
    n = len(y)
    if n == 0:
        raise ValueError("y0 must hold at least one value")
    sqrt_n = n ** 0.5
    attempt, coefficients, interpolate = _dp5(n)
    nextafter, sqrt, inf = math.nextafter, math.sqrt, math.inf
    directions = [float(getattr(e, "direction", 0.0)) for e in events]
    # scipy's three-way rule: an event fires on a rise unless its direction
    # is negative, and on a fall unless it is positive.
    signs = [(d >= 0, d <= 0) for d in directions]
    g = [e(t, y) for e in events]
    event = None

    f = fun(t, y)
    if len(f) != n:
        raise ValueError(f"fun returned {len(f)} values for a state of {n}")
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev, n_rejected = 2, 0
    ts, y_eval = array("d", [t]), array("d")  # n doubles per t_eval time
    t_next = times[0]
    status, message = None, None
    while status is None:
        min_step = 10 * (nextafter(t, inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                status, message = -1, TOO_SMALL_STEP
                break
            if nfev + 6 > budget:
                status, message = -1, NFEV_BUDGET_SPENT
                break
            # The comparisons below pick the operand builtin min would.
            t_new = t + h_abs
            if t_bound < t_new:
                t_new = t_bound
            h = t_new - t
            h_abs = h
            stages, y_new, err = attempt(fun, t, h, y, f, atol, rtol)
            nfev += 6
            error_norm = sqrt(err) / sqrt_n
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = SAFETY * error_norm ** EXPONENT
                    if not factor < MAX_FACTOR:
                        factor = MAX_FACTOR
                if rejected and not factor < 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** EXPONENT)
            rejected = True
            n_rejected += 1
        if status is not None:
            break

        t_old, y_old = t, y
        t, y, f = t_new, y_new, stages[6]
        if t >= t_bound:
            status = 0
        g_old, g = g, [e(t, y) for e in events]
        active = [i for i, (a, b, (rise, fall))
                  in enumerate(zip(g_old, g, signs))
                  if (rise and a <= 0 <= b) or (fall and a >= 0 >= b)]
        if active or t_next <= t:
            dense = functools.partial(interpolate, t_old, h, y_old, stages[0],
                                      coefficients(stages))
        if active:
            roots = [_root(events[i], dense, t_old, t, g_old[i]) for i in active]
            first = min(range(len(active)), key=roots.__getitem__)
            t = roots[first]
            y = dense(t)
            event, status = active[first], 1
        while t_next <= t:
            y_eval.extend(dense(t_next))
            t_next = times[len(y_eval) // n]
        ts.append(t)

    return OdeResult(
        t=np.frombuffer(ts), y_end=np.array(y),
        y_eval=np.frombuffer(y_eval).reshape(-1, n), event=event, nfev=nfev,
        n_accepted=len(ts) - 1, n_rejected=n_rejected,
        status=status, message=MESSAGES.get(status, message))
