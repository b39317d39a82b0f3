"""Explicit Runge–Kutta 5(4) integration over plain floats.

:func:`solve_ivp` integrates ``y' = fun(t, y)`` forward in time with the
Dormand–Prince 5(4) pair (Dormand & Prince, *J. Comput. Appl. Math.* 6(1),
1980; Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.4–II.6).  It is
``scipy.integrate.solve_ivp(method="RK45", dense_output=True)`` restated
over Python floats, so that it takes the same steps:

* the same tableau, first-same-as-last stage, initial-step rule and RMS
  error norm over ``atol + max(|y|, |y_new|) rtol``;
* the same step controller: safety 0.9, factors 0.2–10, exponent -1/5 and
  no growth right after a rejection;
* the same quartic dense output (Shampine's optimum ``c6``), here with each
  step's coefficients computed only when that step is evaluated;
* the same event semantics for direction-filtered events, except that every
  event is terminal and is localised by bisection on the step's interpolant
  to ``4 eps (1 + |t|)``.

On a system of eight equations the per-stage cost of numpy calls on
8-vectors is most of an RK45 step; over floats it is a few list
comprehensions.  ``fun`` and the events receive ``y`` as a list of floats,
``fun`` returns any sequence of ``len(y)`` numbers.  The result's ``t``
and ``y`` are numpy arrays; an event that fires is their last node.

Two deliberate differences from scipy: a NaN step size fails as a step
below ``10 ulp(t)`` does (scipy loops forever on it), and ``atol`` must be
positive (numpy divides by a zero error scale, Python raises).
``tests/test_ode.py`` holds the steps, the event times and the dense output
to scipy's.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

EPS = sys.float_info.epsilon

#: scipy's messages, so callers can report either integrator the same way.
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
#: Minus one over (error estimator order + 1).
EXPONENT = -1.0 / 5.0

# Dormand–Prince 5(4): nodes, stage weights, solution weights (b2 = 0) and
# the error weights of the seven stages, the last being f(t + h, y_new).
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                          17253 / 339200, -22 / 525, 1 / 40)
# Dense output: column j of P weighs the stages into the x^(j+1)
# coefficient; column 0 is stage 1 alone and stage 2 never enters.
P1 = (-8048581381 / 2820520608, 8663915743 / 2820520608,
      -12715105075 / 11282082432)
P3 = (131558114200 / 32700410799, -68118460800 / 10900136933,
      87487479700 / 32700410799)
P4 = (-1754552775 / 470086768, 14199869525 / 1410260304,
      -10690763975 / 1880347072)
P5 = (127303824393 / 49829197408, -318862633887 / 49829197408,
      701980252875 / 199316789632)
P6 = (-282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844)
P7 = (40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)


class _Step:
    """The quartic interpolant of one accepted step."""

    __slots__ = ("t_old", "h", "y_old", "stages", "_q")

    def __init__(self, t_old: float, h: float, y_old: list, stages: tuple):
        self.t_old, self.h, self.y_old, self.stages = t_old, h, y_old, stages
        self._q = None

    def __call__(self, t: float) -> list[float]:
        q = self._q
        if q is None:
            q = self._q = [
                (a, P1[0] * a + P3[0] * c + P4[0] * d + P5[0] * e + P6[0] * f + P7[0] * g,
                 P1[1] * a + P3[1] * c + P4[1] * d + P5[1] * e + P6[1] * f + P7[1] * g,
                 P1[2] * a + P3[2] * c + P4[2] * d + P5[2] * e + P6[2] * f + P7[2] * g)
                for a, _, c, d, e, f, g in zip(*self.stages)]
        h = self.h
        x = (t - self.t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return [y + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4)
                for y, (q1, q2, q3, q4) in zip(self.y_old, q)]


class DenseSolution:
    """The piecewise-quartic solution over all accepted steps.

    A time on a step boundary is evaluated on the earlier step.
    """

    def __init__(self, ts: list[float], steps: list[_Step]):
        self.ts = ts
        self.steps = steps

    def values(self, times: Sequence[float]) -> list[list[float]]:
        """The solution at ascending ``times``, in one forward pass over
        the steps."""
        out = []
        ends, steps = self.ts, self.steps
        last = len(steps) - 1
        index = 0
        for t in times:
            while index < last and t > ends[index + 1]:
                index += 1
            out.append(steps[index](t))
        return out


@dataclass(frozen=True)
class OdeResult:
    """What :func:`solve_ivp` returns.

    ``status`` is 0 at the end of the interval, 1 on an event and -1 when
    the step size collapsed.  ``t`` holds the start and the end of every
    accepted step (the last one cut at the event), ``y`` the states there
    as an ``(n, len(t))`` array.  ``event`` is the index of the event that
    ended the integration, None if none did; its time and state are
    ``t[-1]`` and ``y[:, -1]``.
    """

    t: np.ndarray
    y: np.ndarray
    sol: DenseSolution
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


def _active(g_old: list, g_new: list, directions: list) -> list[int]:
    """Indices of the events whose sign change matches their direction."""
    active = []
    for i, (a, b, d) in enumerate(zip(g_old, g_new, directions)):
        up = a <= 0 <= b
        down = a >= 0 >= b
        if (up and d > 0) or (down and d < 0) or ((up or down) and d == 0):
            active.append(i)
    return active


def _root(event, step: _Step, t_old: float, t_new: float, g_old: float) -> float:
    """Bisect ``event(t, y(t))`` on the step's interpolant to 4 eps."""
    if g_old == 0:
        return t_old
    lo, hi = t_old, t_new
    while hi - lo > 4 * EPS * (1.0 + abs(hi)):
        mid = 0.5 * (lo + hi)
        g_mid = event(mid, step(mid))
        if g_mid == 0:
            return mid
        if (g_mid < 0) == (g_old < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_ivp(fun: Callable, t_span: tuple[float, float], y0, rtol: float = 1e-3,
              atol: float = 1e-6, events: Sequence[Callable] = ()) -> OdeResult:
    """Integrate ``y' = fun(t, y)`` from ``t_span[0]`` towards ``t_span[1]``.

    Each event ``g(t, y)`` may carry a ``direction`` attribute (scipy's
    meaning: > 0 fires only on a rising zero, < 0 only on a falling one);
    every event is terminal.  See the module docstring for what matches
    scipy's RK45.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t:
        raise ValueError("solve_ivp integrates forward: t_span must increase")
    if not atol > 0:
        raise ValueError("atol must be positive")
    rtol = max(rtol, 100 * EPS)   # scipy's floor on rtol
    y = np.asarray(y0, dtype=float).tolist()
    n = len(y)
    sqrt_n = n ** 0.5
    directions = [float(getattr(e, "direction", 0.0)) for e in events]
    g = [e(t, y) for e in events]
    event = None

    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev, n_rejected = 2, 0
    ts, ys, steps = [t], [y], []
    status, message = None, None
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                status, message = -1, TOO_SMALL_STEP
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h
            k1 = f
            k2 = fun(t + C2 * h, [v + (A21 * a) * h for v, a in zip(y, k1)])
            k3 = fun(t + C3 * h, [v + (A31 * a + A32 * b) * h
                                  for v, a, b in zip(y, k1, k2)])
            k4 = fun(t + C4 * h, [v + (A41 * a + A42 * b + A43 * c) * h
                                  for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = fun(t + C5 * h, [v + (A51 * a + A52 * b + A53 * c + A54 * d) * h
                                  for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = fun(t + h, [v + (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e) * h
                             for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * f6)
                     for v, a, c, d, e, f6 in zip(y, k1, k3, k4, k5, k6)]
            k7 = fun(t + h, y_new)
            nfev += 6
            err = 0.0
            for v, y1, a, c, d, e, f6, g7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                r = ((E1 * a + E3 * c + E4 * d + E5 * e + E6 * f6 + E7 * g7) * h
                     / (atol + max(abs(v), abs(y1)) * rtol))
                err += r * r
            error_norm = math.sqrt(err) / sqrt_n
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** EXPONENT)
            rejected = True
            n_rejected += 1
        if status is not None:
            break

        step = _Step(t, h, y, (k1, k2, k3, k4, k5, k6, k7))
        steps.append(step)
        t_old, t, y, f = t, t_new, y_new, k7
        if t >= t_bound:
            status = 0
        if events:
            g_new = [e(t, y) for e in events]
            active = _active(g, g_new, directions)
            if active:
                roots = [_root(events[i], step, t_old, t, g[i]) for i in active]
                first = min(range(len(active)), key=roots.__getitem__)
                t = roots[first]
                y = step(t)
                event, status = active[first], 1
            g = g_new
        ts.append(t)
        ys.append(y)

    return OdeResult(
        t=np.array(ts), y=np.array(ys).T, sol=DenseSolution(ts, steps),
        event=event, nfev=nfev, n_accepted=len(steps), n_rejected=n_rejected,
        status=status, message=MESSAGES.get(status, message))
