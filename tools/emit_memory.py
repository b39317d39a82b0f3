"""Memory of running one gait and of writing its run directory, in-process.

    PYTHONPATH=src python3 tools/emit_memory.py --steps 1 --sample-dt 1e-5

Runs the reference gait for ``--steps`` steps, sampled every
``--sample-dt`` seconds (default: the configuration's), with
``max_step_time`` 1.0 s so that a grid down to 1e-5 s stays within
``params.MAX_SAMPLES_PER_SWING``.  It runs the gait twice: once untraced,
which also builds what a first run builds once per process, and once under
``tracemalloc``.  Then it writes the first run's files with
``triped.emit_outputs`` into a temporary directory twice: once timed with
tracing off, once under ``tracemalloc``.  Prints one JSON object: the steps,
the trajectory samples, the traced gait's peak and the bytes its summary
keeps, each per sample, the bytes written (``manifest.json`` included), the
emission's traced peak above what the gait summary already holds, in MB,
and the untraced emission's wall time in seconds.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import triped as T
from triped.cli import count_flag, positive_flag


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=count_flag, default=20)
    parser.add_argument("--sample-dt", type=positive_flag,
                        default=T.SimConfig().sample_dt)
    args = parser.parse_args()
    config = replace(T.SimConfig(), n_steps=args.steps,
                     sample_dt=args.sample_dt, max_step_time=1.0)
    summary = T.run_gait(config)
    samples = sum(len(traj.t) for traj in summary.trajectories)

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    traced = T.run_gait(config)
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del traced

    manifest = T.make_manifest(config)
    with tempfile.TemporaryDirectory() as outdir:
        start = time.perf_counter()
        files = T.emit_outputs(summary, manifest, Path(outdir))
        emit_s = time.perf_counter() - start
        written = sum(path.stat().st_size for path in files.values())
        tracemalloc.start()
        held = tracemalloc.get_traced_memory()[0]
        T.emit_outputs(summary, manifest, Path(outdir))
        emit_peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.stop()
    print(json.dumps({
        "steps": args.steps, "sample_dt": args.sample_dt, "samples": samples,
        "gait_peak_b_per_sample": (peak - before) / samples,
        "gait_kept_b_per_sample": (kept - before) / samples,
        "bytes_written": written, "emit_peak_mb": emit_peak / 1e6,
        "emit_s": emit_s}))


if __name__ == "__main__":
    main()
