"""Memory and time of writing one gait's run directory, in-process.

    PYTHONPATH=src python3 tools/emit_memory.py --steps 20

Runs the reference gait for ``--steps`` steps, then writes its files with
``triped.emit_outputs`` into a temporary directory twice: once timed with
tracing off, once under ``tracemalloc``.  Prints one JSON object: the steps,
the trajectory samples, the bytes written (``manifest.json`` included), the
emission's traced peak above what the gait summary already holds, in MB, and
the untraced emission's wall time in seconds.
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20)
    args = parser.parse_args()
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    config = replace(T.SimConfig(), n_steps=args.steps)
    summary = T.run_gait(config)
    manifest = T.make_manifest(config)
    with tempfile.TemporaryDirectory() as outdir:
        start = time.perf_counter()
        files = T.emit_outputs(summary, manifest, Path(outdir))
        emit_s = time.perf_counter() - start
        written = sum(path.stat().st_size for path in files.values())
        tracemalloc.start()
        held = tracemalloc.get_traced_memory()[0]
        T.emit_outputs(summary, manifest, Path(outdir))
        peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.stop()
    print(json.dumps({
        "steps": args.steps,
        "samples": sum(len(traj.t) for traj in summary.trajectories),
        "bytes_written": written, "emit_peak_mb": peak / 1e6,
        "emit_s": emit_s}))


if __name__ == "__main__":
    main()
