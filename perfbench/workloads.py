"""The three workloads, each run as a user meets it: resolve the
configuration, run it through the package's public API, emit its files.

``resolve`` and ``run`` take the benchmark seed; only the certification
battery consumes it; the simulations are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import triped as T
from triped import verification

#: The sweep: the plant walks 20, 22, 24 and 26 deg while the controller
#: keeps its assumed 25 deg; each sample takes a few steps from the
#: reference start.  The samples run on one worker: on two threads they
#: contend for the interpreter lock, and the sweep's wall time then swings
#: by a fifth from run to run on a shared 2-core box.  The traced run times
#: the default pool against the samples run alone.
SWEEP_REL_RANGE = (-0.2, 0.04)
SWEEP_SAMPLES = 4
SWEEP_STEPS = 3
SWEEP_WORKERS = 1
#: Random states per sampled battery check, as ``triped verify`` runs it.
VERIFY_STATES = 1000


@dataclass(frozen=True)
class Outcome:
    """What a run produced: the result object and its operation counts."""

    result: object
    attempted: int
    failed: int


def sweep_spec() -> T.SweepSpec:
    return T.SweepSpec(axis="incline_true", rel_range=SWEEP_REL_RANGE,
                       n_samples=SWEEP_SAMPLES,
                       base=replace(T.SimConfig(), n_steps=SWEEP_STEPS))


def resolve(name: str, seed: int):
    """The workload's validated configuration."""
    if name == "gait":
        config = T.SimConfig()
    elif name == "sweep":
        config = sweep_spec()
    elif name == "verify":
        return {"n_states": VERIFY_STATES, "seed": seed}
    else:
        raise ValueError(f"unknown workload {name!r}")
    config.validate()
    return config


def run(name: str, config) -> Outcome:
    """Run the workload; failed operations are counted, not raised."""
    if name == "gait":
        summary = T.run_gait(config)
        aborted = sum(r.aborted for r in summary.records)
        return Outcome(summary, len(summary.records), aborted)
    if name == "sweep":
        rows = T.run_sweep(config, max_workers=SWEEP_WORKERS)
        return Outcome(rows, sum(r.completed_steps + r.aborted for r in rows),
                       sum(r.aborted for r in rows))
    # Through the module attributes, so that a traced run sees the calls.
    report = verification.run_certification(**config)
    transcription = verification.transcription_report()
    checks = len(report.checks) + 1
    return Outcome((report, transcription), checks,
                   sum(not c.passed for c in report.checks))


def emit(name: str, config, result, outdir: Path, seed: int) -> dict[str, Path]:
    """Write the workload's output files; returns name -> path."""
    if name == "verify":
        return _emit_verify(*result, outdir)
    manifest = T.make_manifest(config, seed=seed)
    emitter = {"gait": T.emit_outputs, "sweep": T.emit_sweep_outputs}[name]
    return emitter(result, manifest, outdir)


def _emit_verify(report, transcription, outdir: Path) -> dict[str, Path]:
    """The text ``triped verify`` prints, plus the residuals as JSON."""
    outdir.mkdir(parents=True, exist_ok=True)
    text = outdir / "verify.txt"
    text.write_text(f"{report.as_text()}\n\n{transcription.as_text()}\n",
                    encoding="utf-8")
    table = outdir / "certification.json"
    table.write_text(json.dumps({
        "checks": [{"name": c.name, "max_residual": c.max_residual,
                    "tolerance": c.tolerance, "passed": c.passed}
                   for c in report.checks],
        "transcription": transcription.residuals,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"verify.txt": text, "certification.json": table}
