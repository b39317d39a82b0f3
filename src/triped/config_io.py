"""Config files, run manifests, and bit-stable output serialization.

Config files are flat ``key = value`` text under ``[section]`` headers —
diff-friendly for sweep studies.  ``#`` starts a comment.  All angles in
files are **degrees** (keys end in ``_deg``); everything internal is
radians.  An empty file is the fully documented default configuration: the
reference gait on the 25-degree slope.  A ``[sweep]`` section turns the file
into a sweep specification whose other sections form the base
configuration.

The key table ``_SCHEMA`` is the format's single source: it lists every
section and key, the kind of its value and the dataclass field it sets.
Parsing starts from ``SimConfig()`` (and ``SweepSpec()`` for ``[sweep]``)
and replaces only the fields a file names, so every default is the
dataclasses' own, in :mod:`triped.params`; writing walks the same table.

Serialization writes every float with 17 significant digits, so parsing the
emitted text reproduces the exact double.  Degrees are chosen per angle so
that converting back to radians is bit-exact whenever such a degree value
exists — it always does for configs that came from a file, making
``parse(emit(config)) == config`` on the file-expressible space.

Every run directory gets a ``manifest.json`` naming the tool version, the
resolved configuration (canonical text + digest), and the digests of every
output file; the data files are keyed to their manifest by the shared run
directory and by the run id embedded in the JSON outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analysis import PeriodicOrbit, SweepSample
from .control import max_static_incline
from .errors import ConfigParseError
from .params import (ControllerGains, RobotParams, SimConfig, SweepSpec,
                     get_path, set_path)
from .simulate import GaitSummary

#: Exact column contract of the trajectory file.
TRAJECTORY_HEADER = "t,q1,q2,q3,dq1,dq2,dq3,u1,u2,eta1,eta2,wI1,wI2,zdelta,step"


class StaticStabilityWarning(UserWarning):
    """A configured slope exceeds the static-stability bound (walking may
    still succeed dynamically; the configuration is accepted)."""


def _degrees_exact(radians_value: float) -> float:
    """Degrees whose conversion back to radians is bit-exact when possible.

    ``degrees`` and ``radians`` are not exact inverses in floating point;
    searching a few neighboring degree doubles recovers the one that maps
    back exactly whenever the radian value is expressible from degrees at
    all (always true for values that were parsed from a file).
    """
    d = math.degrees(radians_value)
    if math.radians(d) == radians_value:
        return d
    up = down = d
    for _ in range(4):
        up = math.nextafter(up, math.inf)
        if math.radians(up) == radians_value:
            return up
        down = math.nextafter(down, -math.inf)
        if math.radians(down) == radians_value:
            return down
    return d


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


#: Value kinds: (parse the text after ``=``, format the field's value).
_FLOAT = (float, "{:.17g}".format)
_ANGLE = (lambda text: math.radians(float(text)),
          lambda value: f"{_degrees_exact(value):.17g}")
_INT = (lambda text: int(text.strip(), 10), str)
_BOOL = (_parse_bool, lambda value: "true" if value else "false")
_STR = (str.strip, str)

_PLANT_KEYS = [f.name for f in fields(RobotParams)]

#: section -> key -> (kind, path of the field it sets).  The single source
#: of the format, in the order of the canonical text.  A path is a
#: :func:`~triped.params.get_path` path from the SimConfig (from the
#: SweepSpec for [sweep]), spelled as a sweep axis spells it.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "plant": {k: (_FLOAT, f"plant.{k}") for k in _PLANT_KEYS},
    "controller": {
        **{f.name: (_FLOAT, f"controller.gains.{f.name}")
           for f in fields(ControllerGains)},
        "lambda_assumed_deg": (_ANGLE, "controller.incline_assumed"),
        "error_weighting": (_STR, "controller.error_weighting"),
        "integrator_reset": (_STR, "controller.integrator_reset"),
        "det_floor": (_FLOAT, "controller.det_floor"),
        # The controller's model defaults to the nominal robot, not to the
        # configured plant: mismatch studies perturb the plant only.
        **{f"model_{k}": (_FLOAT, f"controller.model.{k}") for k in _PLANT_KEYS},
    },
    "targets": {"q1_switch_deg": (_ANGLE, "controller.targets.q1_switch"),
                "q3_ref_deg": (_ANGLE, "controller.targets.q3_ref")},
    "sim": {
        "lambda_true_deg": (_ANGLE, "incline_true"),
        "n_steps": (_INT, "n_steps"),
        **{k: (_FLOAT, k) for k in ("rel_tol", "abs_tol", "max_step_time",
                                    "delta", "scuff_tol", "sample_dt")},
        "strict_scuff": (_BOOL, "strict_scuff"),
    },
    "initial": {
        **{f"q{i + 1}_deg": (_ANGLE, f"initial_state.{i}") for i in range(3)},
        **{f"dq{i + 1}": (_FLOAT, f"initial_state.{i + 3}") for i in range(3)},
    },
    "sweep": {"axis": (_STR, "axis"), "rel_min": (_FLOAT, "rel_range.0"),
              "rel_max": (_FLOAT, "rel_range.1"), "n_samples": (_INT, "n_samples")},
}


def parse_config_text(text: str, source: str = "<string>"):
    """Parse config text into a :class:`SimConfig` or :class:`SweepSpec`.

    Raises:
        ConfigParseError: malformed line, unknown section/key, bad value,
            duplicate key.
        ConfigValidationError: well-formed but violates an invariant.
    """
    return _checked(_parse(text, source))


def parse_config(path) -> SimConfig | SweepSpec:
    """Parse a config file; empty file = the documented default setup."""
    path = Path(path)
    return _checked(_parse(path.read_text(encoding="utf-8-sig"), str(path)))


def _parse(text: str, source: str) -> SimConfig | SweepSpec:
    cfg, spec = SimConfig(), None
    seen: set[tuple[str, str]] = set()
    section: str | None = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigParseError(
                    f"unknown section [{section}] in {source}",
                    line_no=line_no)
            if section == "sweep" and spec is None:
                spec = SweepSpec()
            continue
        if "=" not in line:
            raise ConfigParseError(
                f"expected 'key = value' in {source}: {line!r}",
                line_no=line_no)
        if section is None:
            raise ConfigParseError(
                f"key outside any [section] in {source}: {line!r}",
                line_no=line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip().lower()
        if key not in _SCHEMA[section]:
            raise ConfigParseError(
                f"unknown key {key!r} in section [{section}] of {source}",
                line_no=line_no, key=key)
        if (section, key) in seen:
            raise ConfigParseError(
                f"duplicate key {key!r} in section [{section}] of {source}",
                line_no=line_no, key=key)
        seen.add((section, key))
        (parse, _), path = _SCHEMA[section][key]
        try:
            value = parse(raw_value)
        except ValueError as exc:
            raise ConfigParseError(
                f"bad value for {key!r} in {source}: {exc}",
                line_no=line_no, key=key) from exc
        if section == "sweep":
            spec = set_path(spec, path, value)
        else:
            cfg = set_path(cfg, path, value)
    return cfg if spec is None else replace(spec, base=cfg)


def _checked(config: SimConfig | SweepSpec) -> SimConfig | SweepSpec:
    """Validate a parsed configuration and warn, once per message, about
    slopes without a standing equilibrium: a sweep's base and its end
    samples, which bound the others (see ``SweepSpec.validate``).  Each
    public parser calls this directly, so ``stacklevel=3`` attributes the
    warning to that parser's caller."""
    config.validate()
    runs = {"": config}
    if isinstance(config, SweepSpec):
        ends = {f"sweep sample {i}: ": config.sample_config(i)
                for i in (0, config.n_samples - 1)}
        runs = {"": config.base, **ends}
    found = {}
    for where, cfg in runs.items():
        for key, incline, bound in (
                ("lambda_true_deg", cfg.incline_true,
                 max_static_incline(cfg.plant)),
                ("lambda_assumed_deg", cfg.controller.incline_assumed,
                 max_static_incline(cfg.controller.model))):
            if abs(incline) > bound:
                found.setdefault(
                    f"{key} = {math.degrees(incline):.2f} deg exceeds the "
                    f"static-stability bound {math.degrees(bound):.2f} deg; "
                    "no standing equilibrium exists there (dynamic walking "
                    "may still succeed)", where)
    for message, where in found.items():
        warnings.warn(where + message, StaticStabilityWarning, stacklevel=3)
    return config


def write_config(config: SimConfig | SweepSpec) -> str:
    """Canonical text for a configuration; inverse of the parser."""
    spec = config if isinstance(config, SweepSpec) else None
    cfg = config if spec is None else spec.base
    lines = []
    for section, keys in _SCHEMA.items():
        root = spec if section == "sweep" else cfg
        if root is not None:
            lines += ["", f"[{section}]"]
            lines += [f"{key} = {fmt(get_path(root, path))}"
                      for key, ((_, fmt), path) in keys.items()]
    return "\n".join(lines[1:]) + "\n"


# --------------------------------------------------------------------------
# Run manifests and output emission
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    """Identity card of one run: version, resolved config, input digest."""

    run_id: str
    version: str
    created: str
    config_text: str
    config_digest: str
    input_digest: str | None = None
    seed: int | None = None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_manifest(config: SimConfig | SweepSpec, source_text: str | None = None,
                  seed: int | None = None) -> RunManifest:
    """Build the manifest for a resolved configuration.

    ``source_text`` is the config file as read, if there was one; the
    manifest keeps its digest.  ``seed`` is recorded for provenance only;
    the dynamics are deterministic and nothing consumes it yet.
    """
    from . import __version__
    config_text = write_config(config)
    digest = _sha256(config_text.encode())
    return RunManifest(
        run_id=digest[:16],
        version=__version__,
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        config_text=config_text,
        config_digest=digest,
        input_digest=(None if source_text is None
                      else _sha256(source_text.encode())),
        seed=seed)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _fields_json(obj) -> dict:
    """A dataclass's fields as JSON values, keyed by field name."""
    return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


#: Rows of a sampled CSV formatted at a time (~1 kB each meanwhile): a default
#: swing is one chunk, and a finer grid costs more chunks, not more memory.
_ROWS_PER_CHUNK = 1024


def _sampled_rows(header: str, trajectories, columns):
    """Chunks of a CSV of sampled swings: the header line, then each swing's
    rows, ``_ROWS_PER_CHUNK`` at a time: the ``columns(traj)`` arrays side
    by side, 17 significant digits, one format call per row, then the step."""
    yield header + "\n"
    for traj in trajectories:
        for start in range(0, len(traj.t), _ROWS_PER_CHUNK):
            rows = slice(start, start + _ROWS_PER_CHUNK)
            table = np.column_stack([a[rows] for a in columns(traj)])
            row = ",".join(["%.17g"] * table.shape[1]) + f",{traj.step_index}\n"
            yield "".join([row % tuple(values) for values in table.tolist()])


def _write_run(outdir, manifest: RunManifest,
               texts: dict[str, str | Iterable[str]]) -> dict[str, Path]:
    """Write each text, or each chunk of it in turn, as UTF-8 bytes under
    its name, then ``manifest.json`` with the digests of those same bytes;
    returns name -> path, in the given order with the manifest last.

    Only one chunk is held at a time, so a gait's sampled files cost one
    swing of text however long the gait.  Bytes, not text, so that no
    platform translates the ``\\n`` line ends.  An old manifest is deleted
    first: a directory without ``manifest.json`` is an incomplete run.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    files, digests = {}, {}
    for name, chunks in texts.items():
        files[name] = outdir / name
        digest = hashlib.sha256()
        with files[name].open("wb") as stream:
            for chunk in [chunks] if isinstance(chunks, str) else chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                stream.write(data)
        digests[name] = digest.hexdigest()
    payload = _fields_json(manifest)
    payload["config"] = payload.pop("config_text").splitlines()
    payload["outputs"] = digests
    manifest_path.write_bytes(_json(payload).encode("utf-8"))
    return {**files, "manifest.json": manifest_path}


def emit_outputs(summary: GaitSummary, manifest: RunManifest,
                 outdir) -> dict[str, Path]:
    """Write the gait run's data files; returns name -> path.

    Files: ``trajectory.csv`` (sampled states, torques, controller
    internals), ``steps.json`` (per-step records), ``step_times.csv`` and
    ``phase.csv`` (plot-ready projections), ``manifest.json``.  Identical
    runs produce byte-identical data files; only the manifest timestamp
    varies.
    """
    return _write_run(outdir, manifest, {
        "trajectory.csv": _sampled_rows(
            TRAJECTORY_HEADER, summary.trajectories,
            lambda tr: (tr.t, tr.q, tr.dq, tr.u, tr.eta, tr.omega_I,
                        tr.zdelta)),
        "steps.json": _json({
            "run_id": manifest.run_id,
            "aborted": summary.aborted,
            "abort_reason": summary.abort_reason,
            "completed_steps": summary.completed_steps,
            "records": [{**_fields_json(r),
                         "step_time": _jsonable(r.step_time)}
                        for r in summary.records],
        }),
        "step_times.csv": _lines(
            ["step,t_start,t_end,step_time,zdelta"]
            + ["%d,%.17g,%.17g,%.17g,%.17g" % (
                r.step_index, r.t_start, r.t_end, r.step_time,
                r.z_delta_at_impact)
               for r in summary.records if not r.aborted]),
        "phase.csv": _sampled_rows(
            "t,q1,dq1,dq3,step", summary.trajectories,
            lambda tr: (tr.t, tr.q[:, 0], tr.dq[:, 0], tr.dq[:, 2])),
    })


def emit_sweep_outputs(samples: list[SweepSample], manifest: RunManifest,
                       outdir) -> dict[str, Path]:
    """Write the sweep table (`sweep.csv`, `sweep.json`, `manifest.json`)."""
    return _write_run(outdir, manifest, {
        "sweep.csv": _lines(
            ["index,axis,value,completed_steps,aborted,converged,"
             "step_time,rho_hat,worst_z_delta"]
            + ["%d,%s,%.17g,%d,%s,%s,%.17g,%.17g,%.17g" % (
                s.index, s.axis, s.value, s.completed_steps,
                str(s.aborted).lower(), str(s.converged).lower(),
                s.step_time, s.rho_hat, s.worst_z_delta) for s in samples]),
        "sweep.json": _json({
            "run_id": manifest.run_id,
            "samples": [_fields_json(s) for s in samples],
        }),
    })


def emit_orbit_outputs(orbit: PeriodicOrbit, manifest: RunManifest,
                       outdir) -> dict[str, Path]:
    """Write the periodic-orbit result (`orbit.json`, `manifest.json`)."""
    return _write_run(outdir, manifest, {"orbit.json": _json(
        {"run_id": manifest.run_id, **_fields_json(orbit)})})
