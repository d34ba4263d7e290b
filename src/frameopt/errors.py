"""Exception hierarchy shared by all frameopt modules."""


class FrameOptError(Exception):
    """Base class for every error raised by this package."""


class LengthMismatch(FrameOptError):
    """Two vectors that must have equal length do not."""


class ShapeMismatch(FrameOptError):
    """Two matrices/frames that must have matching shape do not."""


class DomainError(FrameOptError):
    """An argument lies outside the domain of the requested function."""


class NotHermitian(FrameOptError):
    """Input matrix fails the Hermitian symmetry check."""


class NotPositiveSemidefinite(FrameOptError):
    """Input matrix has an eigenvalue below the negativity tolerance."""


class RankDeficient(FrameOptError):
    """A matrix does not have the rank required by the operation."""


class IndexOutOfRange(FrameOptError):
    """Row/column index outside the valid range."""


class BadIndex(FrameOptError):
    """Spectral index r outside [0, d-1]."""


class BadTrace(FrameOptError):
    """Trace target t below the trace of the base spectrum."""


class BadM(FrameOptError):
    """Rank-bound parameter m outside its valid range."""


class NotSpanning(FrameOptError):
    """Frame does not span the ambient space (lower frame bound is 0)."""


class SingularFrameOperator(FrameOptError):
    """Frame operator is not invertible where inversion is required."""


class NotMajorized(FrameOptError):
    """Majorization precondition between spectra/norms fails."""


class RankTooLarge(FrameOptError):
    """Operator rank exceeds the number of vectors available to carry it."""


class Infeasible(FrameOptError):
    """Completion problem whose prescribed norms are not majorized."""


class InsufficientCorank(FrameOptError):
    """Null space too small for the requested rank-one perturbation."""
