"""Exception types shared across the package."""


class NigtLabError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(NigtLabError):
    """Vector operands have incompatible shapes."""


class _RowError(NigtLabError):
    """A failure confined to some rows (seeds) of a batched step; ``row``
    is the first of them, so the caller can keep running the rows before."""

    def __init__(self, message, row=0):
        super().__init__(message)
        self.row = row


class NonFiniteGradient(_RowError):
    """A gradient sample contained NaN or Inf."""


class Diverged(NigtLabError):
    """A run's gradient samples went non-finite at ``step`` (kept in
    ``args`` too, so it survives pickling from a worker process)."""

    def __init__(self, message, step):
        super().__init__(message, step)
        self.step = step

    def __str__(self):
        return self.args[0]


class InvalidSpectrum(NigtLabError):
    """Eigenvalue list is empty, mismatched, or contains non-positive entries."""


class InvalidProbability(NigtLabError):
    """Flip probability outside (0, 1/2)."""


class InvalidGBound(NigtLabError):
    """Gradient-norm bound must be finite and positive."""


class PartitionMismatch(NigtLabError):
    """Layer ranges do not tile the coordinate index set."""


class InvalidInput(NigtLabError):
    """Scalar argument outside its documented domain."""


class InvalidRate(_RowError, InvalidInput):
    """A step size that is negative or not finite."""


class NonConstantHessian(NigtLabError):
    """Operation requires a problem with identically zero curvature drift."""


class MissingExactOracle(NigtLabError):
    """Trajectory lacks the exact-value logs this check needs."""


class InsufficientGrid(NigtLabError):
    """Not enough grid points (or span) for a meaningful fit."""


class CertificationFailure(NigtLabError):
    """A declared problem constant was contradicted by measurement.

    The offending report is attached as ``.report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(NigtLabError):
    """Experiment file could not be parsed or validated."""


class NoResults(NigtLabError):
    """Results directory contains no readable run output."""
