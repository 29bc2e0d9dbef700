"""Exception types shared across the package."""


class EllPoissonError(Exception):
    """Base class for all package-specific errors."""


class UsageError(EllPoissonError, ValueError):
    """An input outside the domain of the code that takes it; the command
    line exits 2 on it."""


class DegenerateTauError(EllPoissonError):
    """A theta value that must be nonzero vanished for this lattice parameter."""


class DegenerateEtaError(EllPoissonError):
    """A relation denominator vanished at the given translation parameter."""


class ThetaRangeError(EllPoissonError):
    """A theta value at the requested point lies beyond double-precision range."""


class ContourError(EllPoissonError):
    """A quadrature contour produced a non-finite sample (it hit a singularity)."""
