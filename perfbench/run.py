"""Benchmark command: time one workload of triped end to end or layer by layer.

    python3 perfbench/run.py --workload gait --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each round runs in a fresh interpreter
(``child.py``), so import and cold costs are paid as a user pays them.  With
``--trace 0`` rounds repeat while the next one is expected to end within
``--seconds`` of the start (at least two, so the data files can be compared
across repeats; three for the sweep, four for the short verify).  With ``--trace 1`` one
untraced round and one traced round run, and the per-layer metrics come
from the traced one; the tracing overhead is the difference between the
two.  A third interpreter times isolated calls of the hot functions.
The end-to-end times are medians over rounds.

The box's speed changes by up to two times within minutes, so every round
also times a fixed reference computation (``reference.py``) around its timed
span and between the workload's operations.  The end-to-end times are the
measured times divided by the slowdown the reference read in the same
round: seconds at the reference speed.  The measured times are printed as
well.

The first round checks its outputs after its timed span; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without the package source (``src/triped``)
the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("gait", "sweep", "verify")
#: Rounds per untraced run, at the least.  Two let the data files be compared
#: across repeats.  Three sweep rounds fit a run, and their median drops one
#: round that the box's speed reference misjudged; a verify round is short,
#: so verify makes four.
MIN_ROUNDS = {"gait": 2, "sweep": 3, "verify": 4}
#: Set-up is sampled at least this often per run (extra set-up-only rounds).
MIN_SETUPS = 3
#: A single round may not take longer than this (s).
ROUND_TIMEOUT = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "sim_rate": "sim_s/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "package.import_s": "s",
    "simulate.nfev_per_step": "count",
    "simulate.solver_steps_per_step": "count",
    "simulate.us_per_rhs": "us",
    "simulate.integrate_ms_per_step": "ms",
    "simulate.swing_self_ms_per_step": "ms",
    "simulate.step_self_ms_per_step": "ms",
    "control.calls_per_step": "count",
    "dynamics.calls_per_step": "count",
    "control.control_action_us": "us",
    "dynamics.swing_accel_us": "us",
    "reduced.reduced_forces_us": "us",
    "impact.reset_map_us": "us",
    "analysis.sample_s_sum": "s",
    "analysis.sample_s_max": "s",
    "analysis.sweep_speedup": "x",
    "config_io.emit_ms": "ms",
    "config_io.bytes_written": "B",
    "verification.oracle_build_s": "s",
    "verification.swing_terms_s": "s",
    "verification.energy_s": "s",
    "verification.reduced_s": "s",
    "verification.impact_s": "s",
    "verification.closed_loop_s": "s",
    "verification.transport_s": "s",
    "verification.skew_s": "s",
    "verification.transcription_s": "s",
    "trace.overhead_pct": "%",
    "host.slowdown": "x",
}


def run_child(workload: str, seed: int, mode: str, out: Path, check: bool = False) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--out", str(out), "--t0", repr(t0)]
        + ["--check"] * check,
        cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} {mode} round failed with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """The timed (and, when tracing, traced) rounds, each in its own directory.

    The first round also checks its outputs.  Without tracing, another round
    starts while it is expected, from the last round's length, to end within
    ``seconds`` of the first round's start.
    """
    start = time.monotonic()
    modes = ("time", "trace") if trace else ("time",) * MIN_ROUNDS[workload]
    rounds = [run_child(workload, seed, mode, OUT / workload / f"round{k}", check=k == 0)
              for k, mode in enumerate(modes)]
    while not trace and time.monotonic() - start + rounds[-1]["elapsed_s"] <= seconds:
        rounds.append(run_child(workload, seed, "time",
                                OUT / workload / f"round{len(rounds)}"))
    return rounds


def slowdown(ref: dict, clock: str = "wall") -> float:
    """Mean reference chunk time over its time at the reference speed."""
    return ref[clock] / ref["n"] / reference.REF_S


def scaled(r: dict, key: str = "wall_s") -> float:
    """A round's time at the reference speed."""
    return r[key] / slowdown(r["ref"], "cpu" if key == "cpu_s" else "wall")


def end_to_end(rounds: list[dict], setups: list[dict]) -> dict[str, float]:
    """Medians over rounds (and set-up samples).

    Each time is first scaled to the reference speed by the reference
    chunks of its own round.
    """
    wall = statistics.median(scaled(r) for r in rounds)
    return {
        "setup_s": statistics.median(s["setup_s"] / slowdown(s["setup_ref"]) for s in setups),
        "wall_s": wall,
        "cpu_s": statistics.median(scaled(r, "cpu_s") for r in rounds),
        "sim_rate": rounds[0]["simulated_s"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(rounds: list[dict], calls: dict) -> dict[str, float]:
    plain, traced = rounds
    layers = dict.fromkeys(LAYER_UNITS, 0.0)
    layers.update(traced["layers"])
    layers.update(calls["layers"])
    layers["package.import_s"] = statistics.median(r["import_s"] for r in rounds)
    layers["trace.overhead_pct"] = 100.0 * (scaled(traced) / scaled(plain) - 1.0)
    layers["host.slowdown"] = slowdown(plain["ref"])
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "triped" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    shutil.rmtree(OUT / args.workload, ignore_errors=True)

    rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    setups = list(rounds)
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(run_child(args.workload, args.seed, "setup",
                                OUT / args.workload / "setup"))

    problems = rounds[0]["problems"] + checks.check_repeats([r["digests"] for r in rounds])
    for k, r in enumerate(rounds):
        print(f"{args.workload} round {k}: measured wall {r['wall_s']:.3f} s, "
              f"cpu {r['cpu_s']:.3f} s; box slowdown {slowdown(r['ref']):.3f}, "
              f"so {scaled(r):.3f} s at the reference speed; "
              f"{r['attempted']} operations, {r['failed']} failed")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload} checks: {'passed' if not problems else 'FAILED'}")

    if args.trace:
        calls = run_child(args.workload, args.seed, "calls", OUT / args.workload / "calls")
        values, units = per_layer(rounds, calls), LAYER_UNITS
    else:
        values, units = end_to_end(rounds, setups), END_TO_END_UNITS
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems and all(math.isfinite(v) for v in values.values()),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
