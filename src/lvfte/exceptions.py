"""Exception hierarchy for the lvfte toolkit.

Two families matter to callers: configuration/validation problems
(:class:`ConfigError`, :class:`InvalidParameter`) and numerical failures
(:class:`NumericalError` and subclasses).  The CLI maps the first family to
exit code 2 and the second to exit code 3.
"""

from __future__ import annotations


class LvfteError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(LvfteError, ValueError):
    """A domain object was constructed with values outside its invariants."""


class ConfigError(LvfteError, ValueError):
    """An experiment configuration file or override could not be used."""


class ExpressionError(ConfigError):
    """A profile expression could not be parsed or evaluated."""


class NumericalError(LvfteError):
    """Base class for runtime numerical failures.

    Failures of an ODE integration carry the partial trajectory computed so
    far in ``trajectory`` (None otherwise).
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class StepSizeUnderflow(NumericalError):
    """Adaptive step control drove the step below the permitted minimum."""


class StepLimitReached(NumericalError):
    """ODE integration used up its max_steps before reaching t_end."""


class NonFiniteState(NumericalError):
    """The ODE state became NaN or infinite; integration aborted."""


class NotASaddle(NumericalError):
    """Separatrix tracing was asked to start from a non-saddle equilibrium."""


class SingularLinearization(NumericalError):
    """The Jacobian is undefined at this point (fractional power at an axis)."""


class CflViolation(NumericalError):
    """PDE time step could not be reduced below pde.DT_MIN while staying stable."""


class NonFiniteField(NumericalError):
    """A PDE field became NaN or infinite; simulation aborted."""


class NonConvergence(NumericalError):
    """Steady-state time marching exceeded its time horizon without settling."""
