"""Exception hierarchy shared by all chancert modules."""

from __future__ import annotations


class ChancertError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(ChancertError):
    """Input shape disagrees with the declared layout or dimensions."""


class MatrixFileError(ChancertError):
    """A matrix file failed to parse or violated its schema."""


class NonHermitianError(ChancertError):
    """A Hermitian matrix was required but the input is not Hermitian within tolerance."""


class InputScaleError(ChancertError):
    """Input entries lie outside the magnitudes at which the products formed
    from them stay representable."""


class NotPositiveSemidefiniteError(ChancertError):
    """A PSD matrix was required (for example, the Choi matrix of a CP map)."""


class EigensolverError(ChancertError):
    """The underlying dense eigensolver failed to converge."""


class PurityViolationError(ChancertError):
    """Rank equalities forced by purity failed outside the fragility allowance.

    This signals numerical breakdown of the sample, not a mathematical fact.
    """


class FragileSampleError(ChancertError):
    """A rank decision sits too close to the cutoff to certify anything safely."""


class CounterexampleOrBugError(ChancertError):
    """A proven consistency relation failed at runtime.

    Since the underlying statements are theorems, this can only mean
    numerical failure or an implementation bug. The offending context
    (seed, dimensions) is attached so the sample can be replayed.
    """

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = dict(context) if context else {}
