"""A fixed reference computation that measures how fast the box runs now.

The benchmark's box is shared, and its speed changes by up to two times
over seconds to minutes.  A plain pure-Python loop hardly feels those
swings; the package's simulations, which are ``solve_ivp`` driving a numpy
right-hand side, feel them fully (which points at memory and cache traffic
from other guests).  So the reference computation is the same kind of work, written
here and never changed with the program: ``solve_ivp`` integrating a small
mechanical system whose right-hand side builds and solves a 3x3 mass matrix
with numpy.

Run alongside a workload, the reference's time over :data:`REF_S` is the
box's slowdown at that moment, and a workload time divided by it is the
time the workload would take at the reference speed.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import solve_ivp

#: Seconds one :func:`chunk` takes at the reference speed (the box's fast
#: phases).  The end-to-end times are scaled to this speed.
REF_S = 0.1

_RNG = np.random.default_rng(20171006)
_M0 = _RNG.standard_normal((3, 3))
_M0 = _M0 @ _M0.T + 3.0 * np.eye(3)
_K = _RNG.standard_normal((3, 3))
_Y0 = np.array([0.3, -0.2, 0.5, 0.0, 0.1, -0.1])
#: Evaluations of the right-hand side in one chunk; fixed by the inputs.
NFEV = 2234


def _rhs(t: float, y: np.ndarray) -> np.ndarray:
    q, dq = y[:3], y[3:]
    s, c = np.sin(q), np.cos(q)
    mass = _M0 + np.outer(c, c)
    force = -_K @ s - 0.3 * dq * np.abs(dq) + np.array([c[0] * s[1], c[1] * s[2], c[2] * s[0]])
    return np.concatenate([dq, np.linalg.solve(mass, force)])


def _solve(t_end: float):
    return solve_ivp(_rhs, (0.0, t_end), _Y0, rtol=1e-9, atol=1e-11)


def warm() -> None:
    """Pay the first-call costs once, so that no chunk carries them."""
    _solve(1.0)


def chunk() -> tuple[float, float]:
    """Run the reference computation once; return its (wall, cpu) seconds."""
    w0, c0 = time.perf_counter(), time.process_time()
    sol = _solve(30.0)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if sol.nfev != NFEV:
        raise RuntimeError(f"reference computation took {sol.nfev} evaluations, not {NFEV}")
    return wall, cpu


class Meter:
    """Sums the reference chunks run in one process."""

    def __init__(self):
        self.n = 0
        self.wall = 0.0
        self.cpu = 0.0

    def run(self, n: int = 1) -> None:
        """Run ``n`` chunks."""
        for _ in range(n):
            wall, cpu = chunk()
            self.n += 1
            self.wall += wall
            self.cpu += cpu

    def as_dict(self) -> dict[str, float]:
        return {"n": self.n, "wall": self.wall, "cpu": self.cpu}
