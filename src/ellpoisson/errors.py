"""Exception types shared across the package."""


class EllPoissonError(Exception):
    """Base class for all package-specific errors."""


class DegenerateTauError(EllPoissonError):
    """A theta value that must be nonzero vanished for this lattice parameter."""


class DegenerateEtaError(EllPoissonError):
    """A relation denominator vanished at the given translation parameter."""


class ThetaRangeError(EllPoissonError):
    """A theta value at the requested point lies beyond double-precision range."""


class ContourError(EllPoissonError):
    """A quadrature contour produced a non-finite sample (it hit a singularity)."""


class InvarianceError(EllPoissonError):
    """A bracket failed the Heisenberg-invariance pattern beyond tolerance."""


class ExtrapolationError(EllPoissonError):
    """Richardson extrapolation residuals failed to decrease."""
