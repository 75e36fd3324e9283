"""Exception types raised by the library.

Every error the package raises derives from :class:`BinghamxError`, so
callers (and the CLI) can distinguish library failures from programming
errors.  Errors that carry a computed quantity the caller needs for a
diagnostic (an admissibility threshold, a best achievable bound) expose
it as an attribute.
"""

from __future__ import annotations


class BinghamxError(Exception):
    """Base class for all library errors."""


class MatrixFormatError(BinghamxError):
    """Matrix text could not be parsed (bad token, wrong count, bad header)."""


class MatrixValidationError(BinghamxError):
    """Parsed matrix violates an invariant (asymmetry, d < 2, non-finite)."""


class DimensionMismatchError(BinghamxError):
    """Operands describe different ambient dimensions."""


class InsufficientPowersError(BinghamxError):
    """A power-sum table is too short for the requested series order."""


class OrderRangeError(BinghamxError):
    """Requested expansion order is outside the supported range."""


class InadmissibleDimensionError(BinghamxError):
    """Dimension is below the admissible threshold of a tail bound.

    Attributes
    ----------
    threshold : float
        The computed admissibility threshold the dimension failed.
    """

    def __init__(self, message: str, threshold: float):
        super().__init__(message)
        self.threshold = threshold


class RegimeViolationError(BinghamxError):
    """Matrix norm exceeds the growth-regime cap.

    Attributes
    ----------
    norm : float
        Frobenius norm of the offending matrix.
    cap : float
        The regime cap scale * d**(exponent / 2) it exceeded.
    """

    def __init__(self, message: str, norm: float, cap: float):
        super().__init__(message)
        self.norm = norm
        self.cap = cap


class OrderSelectionError(BinghamxError):
    """No order within the supported range meets the requested tolerance.

    Attributes
    ----------
    best_bound : float
        Smallest max(tail bound, gradient tail bound) achievable.
    best_order : int
        Order at which ``best_bound`` is attained.
    """

    def __init__(self, message: str, best_bound: float, best_order: int):
        super().__init__(message)
        self.best_bound = best_bound
        self.best_order = best_order


class SamplingOverflowError(BinghamxError):
    """A sampled matrix, the Monte-Carlo weights or the estimate of Psi is not finite in float64."""


class SeriesOverflowError(BinghamxError):
    """A truncated series value is not finite in float64."""
