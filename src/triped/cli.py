"""Command-line interface.

Verbs::

    triped simulate [--config FILE] [--out DIR] [--seed N] [--steps N] [--strict-scuff]
    triped orbit    [--config FILE] [--out DIR] [--seed N] [--tol TOL]
    triped sweep    [--config FILE] [--out DIR] [--seed N]
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
from dataclasses import replace
from pathlib import Path

from . import __version__
from .analysis import find_periodic_orbit, run_sweep
from .config_io import (emit_orbit_outputs, emit_outputs, emit_sweep_outputs,
                        make_manifest, parse_config_text)
from .errors import ConfigError, WalkerError
from .params import _COUNT, _POSITIVE, SimConfig, SweepSpec
from .simulate import run_gait
from .verification import run_certification, transcription_report

EXIT_OK = 0
EXIT_GAIT = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3


def _flag(rule: tuple, cast: type):
    """A numeric flag's argparse ``type``: ``cast``, then a params rule."""
    def read(text: str):
        if rule[0](value := cast(text)):
            return value
        raise argparse.ArgumentTypeError(f"must be {rule[1]}, got {value}")
    read.__name__ = cast.__name__  # a typo reads "invalid int value: 'x'"
    return read


count_flag, positive_flag = _flag(_COUNT, int), _flag(_POSITIVE, float)


def _simulate(args: argparse.Namespace, config: SimConfig | SweepSpec):
    cfg = config.base if isinstance(config, SweepSpec) else config
    cfg = replace(cfg, n_steps=args.steps or cfg.n_steps,
                  strict_scuff=args.strict_scuff or cfg.strict_scuff)
    summary = run_gait(cfg)
    done = summary.completed_steps
    text = f"{done}/{cfg.n_steps} steps"
    if done:
        last = summary.records[done - 1]
        text += (f", last step {last.step_time:.4f} s, "
                 f"z_delta {last.z_delta_at_impact:.3e}")
    return (cfg, summary, emit_outputs, text,
            EXIT_GAIT if summary.aborted else EXIT_OK)


def _orbit(args: argparse.Namespace, config: SimConfig | SweepSpec):
    cfg = config.base if isinstance(config, SweepSpec) else config
    orbit = find_periodic_orbit(cfg, tol=args.tol)
    q_deg = ", ".join(f"{math.degrees(v):.3f}" for v in orbit.x_star[:3])
    text = (f"periodic gait after {orbit.iterations} strides\n  posture "
            f"({q_deg}) deg, step time {orbit.step_time:.4f} s, contraction "
            f"{orbit.rho_hat:.3f}")
    return cfg, orbit, emit_orbit_outputs, text, EXIT_OK


def _sweep(args: argparse.Namespace, config: SimConfig | SweepSpec):
    spec = config if isinstance(config, SweepSpec) else SweepSpec(base=config)
    samples = run_sweep(spec)
    ok = sum(1 for s in samples if s.converged)
    lines = [f"swept {spec.axis}, {ok}/{len(samples)} samples converged"]
    for s in samples:
        status = "converged" if s.converged else (
            f"aborted ({s.abort_reason})" if s.aborted else "not converged")
        lines.append(f"  {s.axis} = {s.value:.6g}: {s.completed_steps} steps, "
                     f"{status}")
    return spec, samples, emit_sweep_outputs, "\n".join(lines), EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triped",
        description="Simulate and analyze a torque-controlled three-link "
                    "biped walking down an incline.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_run(verb: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(verb, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--config", type=Path, default=None,
                       help="config file (omit for the default setup)")
        p.add_argument("--out", type=Path, default=Path(f"out/{verb}"),
                       help=f"output directory (default: out/{verb})")
        p.add_argument("--seed", type=int, default=None,
                       help="recorded in the manifest for provenance; the "
                            "simulation itself is deterministic")
        return p

    p_sim = add_run("simulate", _simulate, "run a multi-step gait")
    p_sim.add_argument("--steps", type=count_flag, default=None,
                       help="override the number of steps")
    p_sim.add_argument("--strict-scuff", action="store_true",
                       help="abort the gait when the swing foot scuffs")

    p_orbit = add_run("orbit", _orbit, "locate the periodic gait")
    p_orbit.add_argument("--tol", type=positive_flag, default=1e-6,
                         help="stride-map convergence tolerance")

    add_run("sweep", _sweep, "run a parameter sweep")

    p_verify = sub.add_parser("verify", help="run the self-check battery")
    p_verify.add_argument("--checks", type=count_flag, default=1000,
                          help="random states per structural check")

    sub.add_parser("version", help="print the package version")
    return parser


def _load(path: Path | None) -> tuple[SimConfig | SweepSpec, str | None]:
    """The config at ``path`` (the default setup if None) and its text as
    read; any failure to read it is a :class:`ConfigError`."""
    if path is None:
        return SimConfig(), None
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    # A config warning names the file that set the value, not the line of
    # this module that parsed it.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = parse_config_text(text, source=str(path))
    for warning in caught:
        print(f"triped: warning: {path}: {warning.message}", file=sys.stderr)
    return config, text


def _run(args: argparse.Namespace) -> int:
    """Load, make ``--out``, run, write, print: each run verb maps ``(args,
    config)`` to ``(resolved config, result, emitter, summary, exit code)``."""
    config, text = _load(args.config)
    # Made before the run, so that an --out that cannot be written costs no
    # run; a run that fails later leaves it without manifest.json (incomplete).
    args.out.mkdir(parents=True, exist_ok=True)
    config, result, emit, summary, code = args.run(args, config)
    manifest = make_manifest(config, text, seed=args.seed)
    emit(result, manifest, args.out)
    print(f"run {manifest.run_id}: {summary}\noutputs: {args.out}")
    if code == EXIT_GAIT:  # an aborted gait: its reason follows the outputs
        print(f"aborted: {result.abort_reason}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verb == "version":
        print(__version__)
        return EXIT_OK
    if args.verb == "verify":
        report = run_certification(n_states=args.checks)
        print(f"{report.as_text()}\n\n{transcription_report().as_text()}")
        return EXIT_OK if report.ok else EXIT_VERIFY
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WalkerError as exc:
        print(f"gait failed: {exc}", file=sys.stderr)
        return EXIT_GAIT
    except OSError as exc:
        # _load turns every read error into ConfigError and the runs do no
        # I/O, so an OSError here is a write under --out that failed.
        print(f"triped: cannot write {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
