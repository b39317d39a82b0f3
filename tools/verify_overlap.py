"""Time the certification battery with and without its forked oracle child.

    PYTHONPATH=src python3 tools/verify_overlap.py --pairs 10

``run_certification`` derives the symbolic oracle in a forked child while
it runs the checks that do not need it, whenever the process has one
Python thread.  Each pair runs the battery once that way ("forked") and
once with an extra thread held alive during the call, which makes it build
the oracle in-process ("in-process"); the two alternate which goes first,
and each run is a fresh interpreter that has imported
``triped.verification`` and done nothing else.  Each run times
``run_certification`` alone:

* ``wall_s``: its wall time, the gain a ``triped verify`` user sees;
* ``cpu_s``: the CPU time of the process and its reaped children;
* ``oracle_s``: the time spent in ``verification._oracle``: the wait for
  the child plus the compile when forked, the whole derivation in-process.

Prints one JSON object: each figure's median per mode, and in how many
pairs the forked run had the lower wall time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import threading
import time

MODES = ("forked", "in-process")
FIGURES = ("wall_s", "cpu_s", "oracle_s")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def one_run(mode: str, n_states: int, seed: int) -> dict[str, float]:
    """One battery in this interpreter, timed."""
    from triped import verification

    oracle, spent = verification._oracle, []

    def timed_oracle(*args):
        start = time.perf_counter()
        try:
            return oracle(*args)
        finally:
            spent.append(time.perf_counter() - start)

    verification._oracle = timed_oracle
    release = threading.Event()
    holder = threading.Thread(target=release.wait)
    if mode == "in-process":
        holder.start()
    try:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        report = verification.run_certification(n_states=n_states, seed=seed)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    finally:
        release.set()
        if holder.is_alive():
            holder.join()
    assert report.ok
    return {"wall_s": wall, "cpu_s": cpu, "oracle_s": sum(spent)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--states", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--one", choices=MODES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(one_run(args.one, args.states, args.seed)))
        return
    runs = {mode: [] for mode in MODES}
    for pair in range(args.pairs):
        for mode in (MODES if pair % 2 == 0 else MODES[::-1]):
            out = subprocess.run(
                [sys.executable, __file__, "--one", mode, "--states",
                 str(args.states), "--seed", str(args.seed)],
                check=True, capture_output=True, text=True).stdout
            runs[mode].append(json.loads(out.splitlines()[-1]))
    print(json.dumps({
        "pairs": args.pairs,
        "states": args.states,
        **{mode: {key: round(statistics.median(r[key] for r in runs[mode]), 4)
                  for key in FIGURES} for mode in MODES},
        "forked_faster": sum(f["wall_s"] < i["wall_s"] for f, i in
                             zip(runs["forked"], runs["in-process"])),
    }))


if __name__ == "__main__":
    main()
