"""Exception hierarchy for the walker simulation lab.

Aborts that occur inside a gait run (a single step failing) are recorded in
step records rather than raised, so a sweep over many configurations never
dies on one bad sample.  Everything here ultimately derives from
:class:`WalkerError` so callers can catch the whole family at once.
"""

from __future__ import annotations


class WalkerError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteStateError(WalkerError):
    """A state, torque, or derivative evaluated to NaN or infinity."""


class DegenerateContactError(WalkerError):
    """The impact contact operator is singular (legs aligned with the ground
    in a way that makes the impulse problem ill-posed)."""


class ActuationSingularityError(WalkerError):
    """The torque-allocation matrix is numerically singular; the requested
    generalized force cannot be realized by the two hip torques."""


class SolverBudgetError(WalkerError):
    """The swing integrator spent its budget of right-hand side evaluations
    without reaching an event or the end of the swing."""


class StepTimeoutError(WalkerError):
    """The swing phase exceeded the maximum allowed duration without
    reaching the switching surface."""


class FellOverError(WalkerError):
    """A leg angle left the physically meaningful range; the walker fell."""


class NoConvergenceError(WalkerError):
    """An iterative search (periodic-orbit detection) hit its iteration
    budget before meeting its tolerance."""


class GaitAbortError(WalkerError):
    """A gait run aborted before completing the requested number of steps."""


class ConfigError(WalkerError):
    """Base class for configuration-file problems."""


class ConfigParseError(ConfigError):
    """The configuration file is syntactically malformed.

    Attributes:
        line_no: 1-based line number of the offending line, when known.
        key: offending key, when known.
    """

    def __init__(self, message: str, line_no: int | None = None, key: str | None = None):
        super().__init__(message)
        self.line_no = line_no
        self.key = key


class ConfigValidationError(ConfigError):
    """The configuration parsed but violates an invariant.

    Attributes:
        keys: the offending configuration keys.
    """

    def __init__(self, message: str, keys: list[str] | None = None):
        super().__init__(message)
        self.keys = keys or []
