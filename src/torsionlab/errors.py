"""Exception types shared across the package.

Every failure of a numerical guarantee (a tail bound, the fit's
conditioning or residual, the large-t decay rate) is a
CertificationError, kept distinct from plain input errors so the CLI maps
that one class to exit code 4.
"""


class TorsionLabError(Exception):
    """Base class for all package-specific errors."""


class IntegrabilityViolation(TorsionLabError):
    """Composition would push forward a non-integrable corner term."""


class CertificationError(TorsionLabError):
    """Base for failures of a numerical guarantee."""


class TailNotCertified(CertificationError):
    """Spectral cutoff too small for the requested time range."""


class IllConditioned(CertificationError):
    """Least-squares fit matrix condition estimate exceeds the limit."""


class InsufficientSamples(TorsionLabError):
    """Fewer samples than the fit basis can support."""


class FitResidualTooLarge(CertificationError):
    """Fitted expansion is not accurate enough to drive the Mellin split."""


class DecayRateUnknown(CertificationError):
    """Large-time integration needs the smallest positive eigenvalue."""


class NegativeBlockEigenvalue(TorsionLabError):
    """A fiber block produced a negative eigenvalue; the operator must be
    nonnegative, so this signals a convention or assembly bug."""


class MismatchedGrids(TorsionLabError):
    """Trace samples with different time grids cannot be combined."""
