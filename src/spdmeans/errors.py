"""Exception types raised by the spdmeans package."""


class SpdMeansError(Exception):
    """Base class for all domain errors."""


class NonHermitianInput(SpdMeansError):
    """Input matrix is not Hermitian within tolerance."""


class NonPositiveSpectrum(SpdMeansError):
    """Matrix has an eigenvalue at or below the relative positivity floor."""


class EigFailure(SpdMeansError):
    """The underlying eigenvalue decomposition did not converge."""


class BadOrder(SpdMeansError):
    """Compound/Ky Fan order k is outside the valid range."""


class DimensionMismatch(SpdMeansError):
    """Operands have incompatible dimensions."""


class LengthMismatch(SpdMeansError):
    """Spectra have different lengths."""


class NegativeEntry(SpdMeansError):
    """A spectrum entry is negative (or too small for log-space work)."""


class NonrealSpectrum(SpdMeansError):
    """Eigenvalues have imaginary parts beyond tolerance."""


class NumericBreakdown(SpdMeansError):
    """An internal factor became numerically singular."""


class SOutOfRange(SpdMeansError):
    """Exponent s exceeds the provable bound 1/max(t, 1-t)."""


class PreconditionNotMet(SpdMeansError):
    """A check's ordering precondition does not hold for the given inputs."""
