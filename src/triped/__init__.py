"""Simulation lab for a torque-controlled planar three-link biped.

The robot walks down an incline: two legs hinged at a hip, a torso held
upright by hip torques.  Each stride is a continuous swing phase ended by an
instantaneous plastic impact that swaps the legs.  The package provides the
swing dynamics, the impact/relabel reset, a posture controller (feedback
regularization followed by a geometric PID on the virtual constraints),
multi-step gait simulation, periodic-orbit search, parameter sweeps, and a
self-check battery that re-derives every dynamics term from an independent
symbolic model.

Quick start::

    from triped import SimConfig, run_gait

    summary = run_gait(SimConfig())
    print(summary.step_times[-1])
"""

from .analysis import (PeriodicOrbit, SweepSample, contraction_ratio,
                       find_periodic_orbit, run_sweep,
                       STEP_TIME_CONVERGENCE_RANGE)
from .config_io import (RunManifest, StaticStabilityWarning, TRAJECTORY_HEADER,
                        emit_orbit_outputs, emit_outputs, emit_sweep_outputs,
                        make_manifest, parse_config, parse_config_text,
                        write_config)
from .control import (ControlAction, control_action, max_static_incline,
                      zeta_distance)
from .dynamics import (INPUT_MATRIX, coriolis_matrix, gravity_torque,
                       hip_position, inertia_matrix, kinetic_energy,
                       potential_energy, swing_accel, swing_foot_height,
                       swing_foot_position, total_energy)
from .errors import (ActuationSingularityError, ConfigError, ConfigParseError,
                     ConfigValidationError, DegenerateContactError,
                     FellOverError, GaitAbortError, NoConvergenceError,
                     NonFiniteStateError, SolverBudgetError, StepTimeoutError,
                     WalkerError)
from .impact import ImpactResult, RELABEL, reset_map
from .params import (ControllerConfig, ControllerGains, GaitTargets,
                     RobotParams, SimConfig, SweepSpec, nominal_initial_state)
from .reduced import (ReducedState, input_matrix_e, reduced_forces,
                      reduced_inertias, to_reduced)
from .simulate import GaitSummary, StepRecord, Trajectory, run_gait, step
from .verification import (CertificationReport, CheckResult,
                           TranscriptionReport, run_certification,
                           transcription_report)

__version__ = "0.1.0"

__all__ = [
    "ActuationSingularityError", "CertificationReport", "CheckResult",
    "ConfigError", "ConfigParseError", "ConfigValidationError",
    "ControlAction", "ControllerConfig", "ControllerGains",
    "DegenerateContactError", "FellOverError", "GaitAbortError",
    "GaitSummary", "ImpactResult", "INPUT_MATRIX", "NoConvergenceError",
    "NonFiniteStateError", "PeriodicOrbit", "ReducedState", "RELABEL",
    "RobotParams", "RunManifest", "SimConfig", "SolverBudgetError",
    "StaticStabilityWarning",
    "StepRecord", "StepTimeoutError", "SweepSample", "SweepSpec",
    "STEP_TIME_CONVERGENCE_RANGE", "TRAJECTORY_HEADER",
    "GaitTargets", "Trajectory", "TranscriptionReport", "WalkerError",
    "__version__", "contraction_ratio", "control_action", "coriolis_matrix",
    "emit_orbit_outputs", "emit_outputs", "emit_sweep_outputs",
    "find_periodic_orbit", "gravity_torque", "hip_position",
    "inertia_matrix", "input_matrix_e", "kinetic_energy",
    "make_manifest", "max_static_incline", "nominal_initial_state",
    "parse_config", "parse_config_text", "potential_energy",
    "reduced_forces", "reduced_inertias", "reset_map", "run_certification",
    "run_gait", "run_sweep", "step", "swing_accel",
    "swing_foot_height", "swing_foot_position", "to_reduced", "total_energy",
    "transcription_report", "write_config", "zeta_distance",
]
