"""Exception types shared across the package."""


class NigtLabError(Exception):
    """Base class for all package errors. The message is the first
    argument and a subclass's fields follow it, so that an error pickles
    whole (a split run sends its child's error back)."""

    def __str__(self):
        return str(self.args[0]) if self.args else ""


class InvalidInput(NigtLabError):
    """An argument outside its documented domain: a value, shape, layer
    partition, problem or record that the operation does not accept."""


class NonFiniteGradient(NigtLabError):
    """A row (seed) of a batched step went out of range: its gradient
    sample held NaN or Inf, or its step size was not finite and >= 0.
    ``row`` is the first such row."""

    def __init__(self, message, row=0):
        super().__init__(message, row)
        self.row = row


class Diverged(NigtLabError):
    """A run's gradient samples or step sizes went non-finite at ``step``."""

    def __init__(self, message, step):
        super().__init__(message, step)
        self.step = step


class CertificationFailure(NigtLabError):
    """A declared problem constant was contradicted by measurement.

    The offending report is attached as ``.report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message, report)
        self.report = report


class ConstantRefuted(NigtLabError):
    """A declared problem constant that a run's own exact logs contradict."""


class ConfigError(NigtLabError):
    """An experiment file, path or results directory that cannot be used."""
