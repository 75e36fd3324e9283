"""Certified tail bounds, admissibility thresholds, order selection, and (d, m) grids.

All bounds hold under a growth regime ||Sigma||_F <= scale * d^(exp/2)
with 0 <= exp < 1.  Writing g1 = (1 + sqrt(3))/2, g2 = scale * g1 and
g3 = 2^(3/2) e^(1/2) / g1, the truncation remainders of the series for
the normalizing constant and its gradient satisfy, for admissible d,

    |R_m|      <= g3 * g2^m / sqrt((m+1)!) * d^(-m (1 - exp) / 2),
    ||grad R_m|| <= sqrt(2e) * g2^(m-1) / sqrt((m-1)!)
                    * d^(-(1 + (m-1)(1 - exp)) / 2),

the first for m >= 1 and d >= (2 g2^2)^(1/(1-exp)), the second for
m >= 2.  The inverse normalizing constant adds a geometric-series term
and needs the stricter threshold (6 g2^2)^(1/(1-exp)).

Dividing the two bounds gives B_value / B_gradient =
2 * scale * d^(exp/2) / sqrt(m (m + 1)), so the value bound is the
smaller one exactly when 4 * scale^2 * d^exp <= m (m + 1); that
algebraic criterion is what :func:`compare_bounds` evaluates, and it is
tested to agree with direct comparison of the two bound values.

:func:`tail_bound_table` is the one (d, m) grid: it evaluates both bounds
as row tuples, one row per d, and the ``bounds`` subcommand of the CLI
renders that table as csv or md.  The module imports no numpy; only
:func:`regime_check`, which takes a matrix, loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import TYPE_CHECKING, Sequence

from .errors import (
    DimensionMismatchError,
    InadmissibleDimensionError,
    OrderRangeError,
    OrderSelectionError,
)
from .partitions import MAX_ORDER, check_order

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class GrowthRegime:
    """Norm growth assumption ||Sigma||_F <= scale * d^(exponent/2).

    ``scale`` is the --gamma0 CLI flag, ``exponent`` the --r flag.
    """

    scale: float = 1.0
    exponent: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise OrderRangeError(f"regime scale must be finite and positive, got {self.scale}")
        if not (0.0 <= self.exponent < 1.0):
            raise OrderRangeError(
                f"regime exponent must lie in [0, 1), got {self.exponent}"
            )

    def cap(self, d: float) -> float:
        """The norm cap scale * d^(exponent/2)."""
        return self.scale * d ** (self.exponent / 2.0)


BASE_GROWTH = (1.0 + math.sqrt(3.0)) / 2.0
# g3 = 2^(3/2) e^(1/2) / g1, the prefactor of the value tail bound.
_TAIL_PREFACTOR = 2.0**1.5 * math.exp(0.5) / BASE_GROWTH


def _threshold(factor: float, regime: GrowthRegime) -> float:
    """(factor g2^2)^(1/(1-exp)), or +inf where that power exceeds float64."""
    g2 = regime.scale * BASE_GROWTH
    try:
        return (factor * g2 * g2) ** (1.0 / (1.0 - regime.exponent))
    except OverflowError:
        return math.inf


def admissible_dimension(regime: GrowthRegime) -> float:
    """Smallest d at which the value tail bound holds: (2 g2^2)^(1/(1-exp))."""
    return _threshold(2.0, regime)


def admissible_dimension_inverse(regime: GrowthRegime) -> float:
    """Dimension above which the inverse expansion holds: (6 g2^2)^(1/(1-exp)).

    At this threshold the geometric-series ratio of the inverse bound
    equals 2 e^(1/2) / (g1 sqrt(6)) ~ 0.9855 < 1, so the bound is finite
    for every d strictly above it.
    """
    return _threshold(6.0, regime)


def _require_admissible(d: float, threshold: float, what: str, strict: bool) -> None:
    ok = d > threshold if strict else d >= threshold
    if not ok:
        rel = ">" if strict else ">="
        raise InadmissibleDimensionError(
            f"d = {d:.17g} is below the admissible dimension for {what}: "
            f"need d {rel} {threshold:.17g}",
            threshold=threshold,
        )


def _tail(front, k, n, d, d_power, rest, regime: GrowthRegime) -> float:
    """front * g2^k / sqrt(n!) * d^d_power, the shape of both tail bounds.

    When g2^k alone overflows float64 it returns
    front * (g2 d^(-(1-exp)/2))^k / sqrt(n!) / rest, ``rest`` being the
    part of d^d_power that the k decay factors leave over.  For admissible
    d that factor is at most 1/sqrt(2), so its power cannot overflow.
    """
    g2 = regime.scale * BASE_GROWTH
    root = math.sqrt(float(math.factorial(n)))
    try:
        growth = g2**k
    except OverflowError:
        return front * (g2 * d ** (-(1.0 - regime.exponent) / 2.0)) ** k / root / rest
    return front * growth / root * d**d_power


def norm_const_tail_bound(m: int, d: float, regime: GrowthRegime) -> float:
    """Certified bound on the series remainder after m terms.

    Valid for m >= 1 and d >= admissible_dimension(regime); raises
    InadmissibleDimensionError otherwise.
    """
    check_order("m", m, 1)
    _require_admissible(d, admissible_dimension(regime), "the value tail bound", False)
    power = -m * (1.0 - regime.exponent) / 2.0
    return _tail(_TAIL_PREFACTOR, m, m + 1, d, power, 1.0, regime)


def gradient_tail_bound(m: int, d: float, regime: GrowthRegime) -> float:
    """Certified Frobenius-norm bound on the gradient series remainder.

    Valid for m >= 2 and d >= admissible_dimension(regime).
    """
    check_order("m", m, 2)
    _require_admissible(d, admissible_dimension(regime), "the gradient tail bound", False)
    power = -(1.0 + (m - 1) * (1.0 - regime.exponent)) / 2.0
    return _tail(math.sqrt(2.0 * math.e), m - 1, m - 1, d, power, math.sqrt(d), regime)


def first_order_inverse_ratio(d: float, regime: GrowthRegime) -> float:
    """The ratio b1 = 2 e^(1/2) g2 / g1 * d^(-(1-exp)/2) of the inverse bound.

    b1 < 1 exactly when d is above admissible_dimension_inverse(regime).
    """
    g2 = regime.scale * BASE_GROWTH
    return (
        2.0
        * math.exp(0.5)
        / BASE_GROWTH
        * g2
        * d ** (-(1.0 - regime.exponent) / 2.0)
    )


def inverse_tail_bound(l: int, d: float, regime: GrowthRegime) -> float:
    """Bound on the error of the truncated inverse normalizing constant.

    The inverse expansion drops the remainder after l terms and the
    quadratic-and-higher powers of the first-order remainder, so the
    bound is norm_const_tail_bound(l) + b1^2 / (1 - b1).  Requires
    d strictly above admissible_dimension_inverse(regime).
    """
    check_order("l", l, 2)
    _require_admissible(
        d, admissible_dimension_inverse(regime), "the inverse expansion", True
    )
    b1 = first_order_inverse_ratio(d, regime)
    return norm_const_tail_bound(l, d, regime) + b1 * b1 / (1.0 - b1)


def regime_check(sigma: np.ndarray, regime: GrowthRegime, d: int) -> bool:
    """Whether ||Sigma||_F <= scale * d^(exponent/2)."""
    from .symmat import frobenius_norm

    if sigma.shape[0] != d:
        raise DimensionMismatchError(
            f"matrix has dimension {sigma.shape[0]}, regime check asked for d = {d}"
        )
    return frobenius_norm(sigma) <= regime.cap(d)


def compare_bounds(m: int, d: float, regime: GrowthRegime) -> str:
    """Which tail bound is smaller at (m, d): 'norm_const', 'gradient' or 'tie'.

    Uses the exact algebraic criterion 4 scale^2 d^exp vs m (m + 1)
    obtained by dividing the two bound formulas (see module docstring).
    """
    check_order("m", m, 2)
    lhs = 4.0 * regime.scale * regime.scale * d**regime.exponent
    rhs = float(m * (m + 1))
    if lhs < rhs:
        return "norm_const"
    if lhs > rhs:
        return "gradient"
    return "tie"


def select_order(regime: GrowthRegime, d: float, eps: float) -> int:
    """Smallest m >= 2 with max of both tail bounds <= eps.

    Searches m = 2..MAX_ORDER; raises OrderSelectionError carrying the
    bound at MAX_ORDER when even that order misses eps.  For admissible d,
    g2 d^(-(1-exp)/2) <= 1/sqrt(2), so from m to m + 1 the value bound falls
    by sqrt(2 (m + 2)) or more and the gradient bound by sqrt(2 m) or more:
    the bound at MAX_ORDER is the best achievable.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise OrderRangeError(f"eps must be finite and positive, got {eps}")
    _require_admissible(d, admissible_dimension(regime), "order selection", False)
    for m in range(2, MAX_ORDER + 1):
        worst = max(
            norm_const_tail_bound(m, d, regime), gradient_tail_bound(m, d, regime)
        )
        if worst <= eps:
            return m
    raise OrderSelectionError(
        f"no order up to {MAX_ORDER} reaches eps = {eps:g}; "
        f"best achievable bound is {worst:.6e} at m = {m}",
        best_bound=worst,
        best_order=m,
    )


@dataclass(frozen=True)
class TailBoundTable:
    """Both bound families tabulated over a (d, m) grid, one row per d."""

    regime: GrowthRegime
    d_values: tuple[float, ...]
    m_values: tuple[int, ...]
    norm_const_bounds: tuple[tuple[float, ...], ...]
    gradient_bounds: tuple[tuple[float, ...], ...]


def tail_bound_table(
    regime: GrowthRegime, d_values: Sequence[float], m_values: Sequence[int]
) -> TailBoundTable:
    """Evaluate both tail bounds on the full (d, m) grid, checking every m first."""
    ds = tuple(float(d) for d in d_values)
    ms = tuple(int(m) for m in m_values)
    if not ds or not ms:
        raise OrderRangeError("d and m grids must be non-empty")
    for m in ms:
        check_order("m", m, 2)
    return TailBoundTable(
        regime=regime,
        d_values=ds,
        m_values=ms,
        norm_const_bounds=tuple(
            tuple(norm_const_tail_bound(m, d, regime) for m in ms) for d in ds
        ),
        gradient_bounds=tuple(
            tuple(gradient_tail_bound(m, d, regime) for m in ms) for d in ds
        ),
    )


#: The md cell quantum: 5 decimals.
_MD_QUANTUM = Decimal("0.00001")
#: A float64 has up to 309 integer digits; 309 + 5 digits keep them all.
_MD_CONTEXT = Context(prec=314)


def round_half_up(x: float) -> str:
    """Decimal string with 5 decimals, ties rounded away from zero."""
    value = Decimal(repr(float(x)))
    if value.is_finite():  # "Infinity", "-Infinity" and "NaN" print as they are
        value = value.quantize(_MD_QUANTUM, ROUND_HALF_UP, _MD_CONTEXT)
    return str(value)
