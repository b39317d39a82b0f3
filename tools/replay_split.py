"""Split the reference gait's integration time into the integrator's own
work and the right-hand side's.

    PYTHONPATH=src python3 tools/replay_split.py --rounds 5

Runs the 20-step reference gait once, recording every swing's call of
``simulate.solve_ivp`` and every right-hand side evaluation in it.  Each
round then times, over all swings:

* ``integrator_s``: ``triped.ode.solve_ivp`` driven by a replay of the
  recorded right-hand side outputs, in order, so that it takes the same
  steps while the right-hand side costs only a list lookup;
* ``rhs_s``: the closed-loop right-hand side called alone on the recorded
  inputs;
* ``integrate_s``: ``solve_ivp`` on the real right-hand side, for reference.

Prints one JSON object: each time's median and range over the rounds (in
seconds per gait) and the evaluation count.  Only the package's public
modules are used, so the script runs against any version that has
``triped.ode``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time

import triped as T
from triped import ode, simulate


def record_swings(cfg):
    """The gait's ``solve_ivp`` calls with their evaluations' inputs and
    outputs, and the right-hand side each call integrated."""
    swings, real = [], simulate.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        calls = []

        def recorded(t, y):
            out = fun(t, y)
            calls.append((t, list(y), out))
            return out
        swings.append((fun, t_span, y0, kwargs, calls))
        return real(recorded, t_span, y0, **kwargs)

    simulate.solve_ivp = recording
    try:
        summary = T.run_gait(cfg)
    finally:
        simulate.solve_ivp = real
    assert not any(r.aborted for r in summary.records)
    return swings


def time_round(swings) -> dict[str, float]:
    integrator = rhs = integrate = 0.0
    for fun, t_span, y0, kwargs, calls in swings:
        outputs = iter([out for _, _, out in calls])

        def replay(t, y):
            return next(outputs)
        start = time.perf_counter()
        sol = ode.solve_ivp(replay, t_span, y0, **kwargs)
        integrator += time.perf_counter() - start
        assert sol.nfev == len(calls) and next(outputs, None) is None

        start = time.perf_counter()
        for t, y, _ in calls:
            fun(t, y)
        rhs += time.perf_counter() - start

        start = time.perf_counter()
        ode.solve_ivp(fun, t_span, y0, **kwargs)
        integrate += time.perf_counter() - start
    return {"integrator_s": integrator, "rhs_s": rhs, "integrate_s": integrate}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    swings = record_swings(T.SimConfig())
    # The recording is about 170,000 objects that a gait does not hold:
    # keep the collector from walking them during the timed rounds.
    gc.freeze()
    time_round(swings)   # warm-up
    rounds = [time_round(swings) for _ in range(args.rounds)]
    print(json.dumps({
        "nfev": sum(len(calls) for *_, calls in swings),
        "rounds": args.rounds,
        **{key: {"median": round(statistics.median(r[key] for r in rounds), 4),
                 "min": round(min(r[key] for r in rounds), 4),
                 "max": round(max(r[key] for r in rounds), 4)}
           for key in rounds[0]},
    }))


if __name__ == "__main__":
    main()
