"""Command-line interface.

Verbs::

    triped simulate [--config FILE] [--out DIR] [--steps N] [--strict-scuff]
    triped orbit    [--config FILE] [--out DIR]
    triped sweep    [--config FILE] [--out DIR]
    triped verify   [--checks N]
    triped version

Exit codes: 0 success, 1 gait aborted / no convergence, 2 configuration
error or an output directory that cannot be written, 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .analysis import find_periodic_orbit, run_sweep
from .config_io import (emit_orbit_outputs, emit_outputs, emit_sweep_outputs,
                        make_manifest, parse_config_text)
from .errors import ConfigError, WalkerError
from .params import SimConfig, SweepSpec
from .simulate import run_gait
from .verification import run_certification, transcription_report

EXIT_OK = 0
EXIT_GAIT = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3


class _Unwritable(Exception):
    """A command's output directory could not be written."""


@contextmanager
def _writing(outdir: Path):
    """An ``OSError`` raised inside, as :class:`_Unwritable`."""
    try:
        yield
    except OSError as exc:
        raise _Unwritable(f"cannot write {outdir}: {exc.strerror or exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triped",
        description="Simulate and analyze a torque-controlled three-link "
                    "biped walking down an incline.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser, out_default: str) -> None:
        p.add_argument("--config", type=Path, default=None,
                       help="config file (omit for the default setup)")
        p.add_argument("--out", type=Path, default=Path(out_default),
                       help=f"output directory (default: {out_default})")
        p.add_argument("--seed", type=int, default=None,
                       help="recorded in the manifest for provenance; the "
                            "simulation itself is deterministic")

    p_sim = sub.add_parser("simulate", help="run a multi-step gait")
    add_common(p_sim, "out/simulate")
    p_sim.add_argument("--steps", type=int, default=None,
                       help="override the number of steps")
    p_sim.add_argument("--strict-scuff", action="store_true",
                       help="abort the gait when the swing foot scuffs")

    p_orbit = sub.add_parser("orbit", help="locate the periodic gait")
    add_common(p_orbit, "out/orbit")
    p_orbit.add_argument("--tol", type=float, default=1e-6,
                         help="stride-map convergence tolerance")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    add_common(p_sweep, "out/sweep")

    p_verify = sub.add_parser("verify", help="run the self-check battery")
    p_verify.add_argument("--checks", type=int, default=1000,
                          help="random states per structural check")

    sub.add_parser("version", help="print the package version")
    return parser


def _load(args: argparse.Namespace) -> SimConfig | SweepSpec:
    if args.config is None:
        config: SimConfig | SweepSpec = SimConfig()
        input_text = None
    else:
        try:
            input_text = Path(args.config).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        # A config warning names the file that set the value, not the
        # line of this module that parsed it.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = parse_config_text(input_text, source=str(args.config))
        for warning in caught:
            print(f"triped: warning: {args.config}: {warning.message}",
                  file=sys.stderr)
    args.input_text = input_text
    # Made before the run, so that an --out that cannot be written costs no
    # run; a run that fails later leaves it without manifest.json (incomplete).
    with _writing(args.out):
        args.out.mkdir(parents=True, exist_ok=True)
    return config


def _sim_config(config: SimConfig | SweepSpec) -> SimConfig:
    return config.base if isinstance(config, SweepSpec) else config


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _sim_config(_load(args))
    if args.steps is not None:
        cfg = replace(cfg, n_steps=args.steps)
    if args.strict_scuff:
        cfg = replace(cfg, strict_scuff=True)
    summary = run_gait(cfg)
    manifest = make_manifest(cfg, input_text=args.input_text, seed=args.seed)
    with _writing(args.out):
        files = emit_outputs(summary, manifest, args.out)
    done = summary.completed_steps
    print(f"run {manifest.run_id}: {done}/{cfg.n_steps} steps", end="")
    if done:
        last = summary.records[done - 1]
        print(f", last step {last.step_time:.4f} s, "
              f"z_delta {last.z_delta_at_impact:.3e}", end="")
    print(f"\noutputs: {files['manifest.json'].parent}")
    if summary.aborted:
        print(f"aborted: {summary.abort_reason}", file=sys.stderr)
        return EXIT_GAIT
    return EXIT_OK


def _cmd_orbit(args: argparse.Namespace) -> int:
    cfg = _sim_config(_load(args))
    orbit = find_periodic_orbit(cfg, tol=args.tol)
    manifest = make_manifest(cfg, input_text=args.input_text, seed=args.seed)
    with _writing(args.out):
        files = emit_orbit_outputs(orbit, manifest, args.out)
    q_deg = ", ".join(f"{math.degrees(v):.3f}" for v in orbit.x_star[:3])
    print(f"run {manifest.run_id}: periodic gait after {orbit.iterations} "
          f"strides\n  posture ({q_deg}) deg, step time "
          f"{orbit.step_time:.4f} s, contraction {orbit.rho_hat:.3f}")
    print(f"outputs: {files['manifest.json'].parent}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    spec = config if isinstance(config, SweepSpec) else SweepSpec(base=config)
    samples = run_sweep(spec)
    manifest = make_manifest(spec, input_text=args.input_text, seed=args.seed)
    with _writing(args.out):
        files = emit_sweep_outputs(samples, manifest, args.out)
    ok = sum(1 for s in samples if s.converged)
    print(f"run {manifest.run_id}: swept {spec.axis}, "
          f"{ok}/{len(samples)} samples converged")
    for s in samples:
        status = "converged" if s.converged else (
            f"aborted ({s.abort_reason})" if s.aborted else "not converged")
        print(f"  {s.axis} = {s.value:.6g}: {s.completed_steps} steps, "
              f"{status}")
    print(f"outputs: {files['manifest.json'].parent}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_certification(n_states=args.checks)
    print(report.as_text())
    print()
    print(transcription_report().as_text())
    return EXIT_OK if report.ok else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verb == "verify" and args.checks < 1:
        parser.error(f"argument --checks: must be >= 1, got {args.checks}")
    if args.verb == "simulate" and args.steps is not None and args.steps < 1:
        parser.error(f"argument --steps: must be >= 1, got {args.steps}")
    if args.verb == "orbit" and not 0.0 < args.tol < math.inf:
        parser.error(f"argument --tol: must be positive and finite, "
                     f"got {args.tol}")
    if args.verb == "version":
        from . import __version__
        print(__version__)
        return EXIT_OK
    command = {"simulate": _cmd_simulate, "orbit": _cmd_orbit,
               "sweep": _cmd_sweep, "verify": _cmd_verify}[args.verb]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _Unwritable as exc:
        print(f"triped: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WalkerError as exc:
        print(f"gait failed: {exc}", file=sys.stderr)
        return EXIT_GAIT


if __name__ == "__main__":
    sys.exit(main())
