"""Error taxonomy shared across the package.

All package errors derive from :class:`SpeclocError` so callers (and the CLI)
can distinguish bad input (exit code 2) from failed checks or non-converging
computations (exit code 1).
"""


class SpeclocError(Exception):
    """Base class for all package errors."""


class InputError(SpeclocError):
    """Invalid argument, malformed specification or violated precondition,
    including parameters whose certified radius exceeds the float range."""


class DimensionError(InputError):
    """Operator dimensions are inconsistent or exceed the supported cap."""


class ConvergenceError(SpeclocError):
    """An iterative computation stopped without reaching its tolerance.

    Carries the last ``residual`` so callers can inspect how far off it was.
    """

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class ContourSpectrumError(SpeclocError):
    """A contour passes too close to the spectrum (margin gate failed).

    Carries the measured ``margin`` and, for gap contours, the offending
    ``abscissae`` pair.
    """

    def __init__(self, msg, margin=None, abscissae=None):
        super().__init__(msg)
        self.margin = margin
        self.abscissae = abscissae


class AmbiguousClusterError(SpeclocError):
    """An eigenvalue cluster straddles the region boundary."""
