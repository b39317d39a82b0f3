"""Time check (h) of the certification battery, the fused kernel against
the reference law, in-process.

    PYTHONPATH=src python3 tools/time_kernel_check.py --states 100000 --rounds 3

Runs ``triped.verification.certify_kernel(n_states)`` once per round at its
default seed, after one untimed call on one state.  Prints one JSON object:
the best and the median wall time in seconds over the rounds, and the
check's residual, note and verdict from the last round.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time

from triped.cli import count_flag
from triped.verification import certify_kernel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=count_flag, default=1000)
    parser.add_argument("--rounds", type=count_flag, default=5)
    args = parser.parse_args()
    certify_kernel(n_states=1)
    times = []
    for _ in range(args.rounds):
        gc.collect()
        start = time.perf_counter()
        result = certify_kernel(n_states=args.states)
        times.append(time.perf_counter() - start)
    print(json.dumps({
        "states": args.states, "rounds": args.rounds, "best_s": min(times),
        "median_s": statistics.median(times),
        "max_residual": result.max_residual, "note": result.note,
        "passed": result.passed}))


if __name__ == "__main__":
    main()
