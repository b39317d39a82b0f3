"""Apply the checks of :mod:`checks` to the files a round emitted.

Called by ``child.py`` in the first round, after its timed span.  The data
files of every round must be byte-identical, so the files of the first round
stand for all of them.  The sweep check takes one more sample through the
program.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from pathlib import Path

import triped as T

import checks


def check(workload: str, config, seed: int, first: Path) -> list[str]:
    if workload == "gait":
        ctrl = config.controller
        return checks.check_gait(
            checks.load_json(first / "steps.json"), config.n_steps,
            ctrl.targets.q1_switch, asdict(config.plant), asdict(ctrl.model),
            asdict(ctrl.gains))
    if workload == "sweep":
        grid = checks.incline_grid(config.base.incline_true, config.rel_range,
                                   config.n_samples)
        return checks.check_sweep(checks.load_json(first / "sweep.json"), grid,
                                  config.base.n_steps,
                                  _rerun_sample(config, seed % config.n_samples,
                                                first.parent / "rerun"))
    return checks.check_verify(checks.load_json(first / "certification.json"))


def _rerun_sample(spec: T.SweepSpec, index: int, outdir: Path) -> dict:
    """Sample ``index`` re-run alone, as a one-sample sweep, as its table row."""
    lo, hi = spec.rel_range
    rel = lo + index * (hi - lo) / (spec.n_samples - 1)
    alone = replace(spec, rel_range=(rel, rel), n_samples=1)
    T.emit_sweep_outputs(T.run_sweep(alone), T.make_manifest(alone), outdir)
    row = checks.load_json(outdir / "sweep.json")["samples"][0]
    row["index"] = index
    return row
