"""Exception types shared across the package.

Two broad families matter to callers: configuration/usage errors (bad input,
bad config file) and numerical breakdowns detected mid-computation. The CLI
maps them to exit codes 1 and 2 respectively.
"""


class KoopmanAdaptError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(KoopmanAdaptError):
    """Invalid or missing configuration (file, section, key, or value)."""


class DimensionMismatch(KoopmanAdaptError, ValueError):
    """Operands have incompatible shapes."""


class TooFewSamples(KoopmanAdaptError, ValueError):
    """Not enough data points to build the requested structure."""


class EmptyTrace(KoopmanAdaptError, ValueError):
    """A record sequence was empty where at least one entry is required."""


class UnknownParameter(KoopmanAdaptError, KeyError):
    """A schedule event names a parameter the plant does not have."""


class NumericalError(KoopmanAdaptError):
    """Base class for numerical breakdowns; the harness aborts the run."""


class RankDeficientRegressor(NumericalError):
    """The stacked regressor lacks full row rank (insufficient excitation)."""

    def __init__(self, message: str, cond: float = float("inf")):
        super().__init__(message)
        self.cond = cond


class CovarianceNotPD(NumericalError):
    """The estimator covariance lost positive definiteness."""


class NonFiniteState(NumericalError):
    """A state went non-finite: plant integration produced NaN or Inf, the
    estimator was fed a sample containing one, or a lifted regressor
    overflowed."""


class IllConditionedHessian(NumericalError):
    """The condensed MPC Hessian is too ill-conditioned to solve reliably."""
