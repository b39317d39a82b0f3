"""One round of one workload in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last line.  Modes:

* ``setup``: import the package and build the configuration, nothing more;
* ``time``: also run the workload and emit its files, timed with tracing off;
* ``trace``: the same run with every layer boundary wrapped (and, for the
  sweep, the sweep on its default pool and each sample alone afterwards);
* ``calls``: only the isolated per-call costs of the hot functions, in an
  interpreter that has done nothing else, so they compare across workloads.

With ``--check`` the outputs are checked after all of that.

``--t0`` is the parent's monotonic clock just before it started this
interpreter, so ``setup_s`` covers interpreter start, ``import triped`` and
building the configuration.

Every mode but ``calls`` runs the reference computation of
``reference.py`` to measure the box's speed: twice right after set-up, and
in ``time`` and ``trace`` mode three times before and three times after
the timed span.  In ``time`` and ``trace`` mode it also runs once after
every operation (each step of the gait and the sweep, each battery check of
verify), inside the span but outside every traced span, so that the speed
is read while the workload runs; its time is taken out of the span.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Reference chunks after set-up, and on each side of the timed span.
SETUP_CHUNKS, BRACKET_CHUNKS = 2, 3


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace", "calls"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--check", action="store_true",
                        help="check the outputs after the timed span")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    import triped
    import_s = time.perf_counter() - t_import
    if Path(triped.__file__).resolve().parent != SRC / "triped":
        raise SystemExit(f"imported {triped.__file__}, not the package under {SRC}")
    import workloads
    config = workloads.resolve(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "import_s": import_s}

    import checks
    import reference
    import tracing
    if args.mode == "calls":
        out["layers"] = tracing.isolated_costs(args.seed)
        print(json.dumps(out))
        return 0
    reference.warm()
    at_setup = reference.Meter()
    at_setup.run(SETUP_CHUNKS)
    out["setup_ref"] = at_setup.as_dict()
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    meter = reference.Meter()
    meter.run(BRACKET_CHUNKS)
    hooks = tracing.Hooks(full=args.mode == "trace").install()
    hooks.after_operations(args.workload, meter.run)
    before = meter.as_dict()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    outcome = workloads.run(args.workload, config)
    t1 = time.perf_counter()
    files = workloads.emit(args.workload, config, outcome.result, args.out, args.seed)
    t2 = time.perf_counter()
    cpu1 = _cpu_s()
    hooks.restore()
    inside = {k: v - before[k] for k, v in meter.as_dict().items()}
    meter.run(BRACKET_CHUNKS)
    out.update(
        run_s=t1 - t0 - inside["wall"], emit_s=t2 - t1,
        wall_s=t2 - t0 - inside["wall"], cpu_s=cpu1 - cpu0 - inside["cpu"],
        ref=meter.as_dict(), peak_rss_mb=_peak_rss_mb(),
        simulated_s=hooks.simulated_seconds(),
        attempted=outcome.attempted, failed=outcome.failed,
        digests=checks.digests(args.out),
        bytes_written=sum(p.stat().st_size for p in files.values()))

    if args.mode == "trace":
        layers = hooks.layer_metrics()
        if args.workload != "verify":
            layers["config_io.emit_ms"] = out["emit_s"] * 1e3
            layers["config_io.bytes_written"] = out["bytes_written"]
        if args.workload == "sweep":
            layers.update(tracing.pool_against_alone(config))
        out["layers"] = layers
    if args.check:
        import verdict
        out["problems"] = verdict.check(args.workload, config, args.seed, args.out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
