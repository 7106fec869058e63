"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ConfigurationError(ValueError):
    """Raised when a run configuration and a strategy (or mode) are incompatible."""


class ExhaustionError(RuntimeError):
    """Raised when a run's first successful round would come after the round cap.

    Distinct from a protocol Abort: exhaustion means the run never completed,
    not that a party was caught cheating.
    """


class PhaseOrderError(RuntimeError):
    """Raised when a strategy reads protocol data before the phase that fixes it."""


class UnknownScenarioError(ParameterError):
    """Raised by the Monte Carlo estimator for an unregistered scenario name."""
