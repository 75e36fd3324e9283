"""Truncated expansions of the normalizing constant of the Bingham family.

For a symmetric d x d matrix Sigma, the normalizing constant of the
density proportional to exp(x' Sigma x) on the unit sphere is the
hypergeometric series

    N(Sigma) = sum_{k>=0} (1/2)_k / (d/2)_k * C_k(Sigma) / k!,

with C_k the order-k zonal polynomial.  This module evaluates the m-term
truncations of N, of 1/N (drop the tail and the quadratic-and-higher
powers of the first-order remainder), and of the gradient of N, plus the
covariance approximation

    Cov(X) ~ [truncated 1/N at order l] * [truncated grad N at order m],

whose error is O(d^-alpha) with alpha = (2 - r)/2 for m = 2 and
(3 - 2r)/2 for m >= 3 under a growth regime with exponent r.  No
explicit constant is known for that covariance remainder; callers get
the symbolic alpha descriptor, and optionally a conservative numeric
bound assembled from the proved inequalities (clearly labeled derived).

Series terms e_k / (d/2)_k, with e_k = (1/2)_k C_k / k!, come from one
O(m^2) pass of the generating-function recurrence over the power sums
(see :mod:`binghamx.zonal`), and the gradient coefficients are a
reduction of those terms.  The Pochhammer division stays inside the
recurrence, so (d/2)_k, e_k and k!, which grow without bound in k and d,
are never formed on their own.  Its Pochhammer-ratio table depends on
the pass order and d alone: one table per (pass order, a = d/2), in a
bounded cache, which the pass and every gradient reduction read.

The terms live with the :class:`~binghamx.symmat.PowerSums` they come
from: every call reads them through :func:`binghamx.zonal._terms`, which
runs one pass per instance, at the highest order its power sums allow,
and keeps it read-only.  A pass to order M >= m holds the order-m terms
bit for bit, so Psi, 1/Psi, grad Psi, the covariance product and the
derived bound share one pass per matrix, each slices the orders it needs,
and every value keeps the bits of a pass at its own order.

The gradient coefficients are one reduction per order as well: a
PowerSums keeps the truncated gradient of each order m it was asked for,
read-only, so grad Psi, the covariance product and the derived bound
share one :func:`~binghamx.zonal._gradient_coeffs` per (matrix, m).  That
:class:`~binghamx.symmat.GradientPolynomial` records nu = max |lambda_i|
(1 + 2^-20) >= ||Sigma||_2 and p_2 of its spectrum, and dense
:func:`~binghamx.symmat.materialize` cuts its top terms at nu.

The gradient G = g(Sigma) is a polynomial in Sigma, so for
Sigma = V diag(lambda) V' it is V diag(g(lambda)) V' and
||G||_F = ||g(lambda)||_2.  A PowerSums is built from lambda, so the
derived bound reads ||G||_F from it in O(d m) and never forms G.  It
evaluates g(lambda) only to the degree whose dropped terms sum, at
|lambda_i| <= nu, to at most 2^-55 |c_0|, and adds sqrt(d) times that
tail, so in exact arithmetic it is never below the full-degree value.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import GrowthRegime, gradient_tail_bound, inverse_tail_bound
from .errors import DimensionMismatchError, MatrixValidationError, OrderRangeError
from .partitions import check_order
from .symmat import (
    _CUT_BITS,
    GradientPolynomial,
    PowerSums,
    _check_sigma,
    _tail_cut,
    frobenius_norm,
    materialize,
    polynomial_values,
)
from .zonal import _gradient_coeffs, _terms


def _check_dims(ps: PowerSums, d: int, order: int, low: int, name: str) -> None:
    if ps.d != d:
        raise DimensionMismatchError(
            f"power sums are for d = {ps.d}, call asked for d = {d}"
        )
    check_order(name, order, low)
    if order > 1:
        ps.require(order - 1)


def norm_const_truncated(ps: PowerSums, m: int, d: int) -> float:
    """Sum of the first m series terms (orders 0..m-1)."""
    _check_dims(ps, d, m, 1, "m")
    return float(_terms(ps, d / 2.0)[:m].sum())


def inverse_norm_const_truncated(ps: PowerSums, l: int, d: int) -> float:
    """Truncated inverse: 1 - sum of series terms of orders 1..l-1."""
    _check_dims(ps, d, l, 2, "l")
    return 1.0 - float(_terms(ps, d / 2.0)[1:l].sum())


def norm_const_gradient_truncated(ps: PowerSums, m: int, d: int) -> GradientPolynomial:
    """Gradient of the m-term truncation, as a polynomial of degree m - 2.

    For m = 2 this is the constant polynomial I/d; for m = 3 it is
    (1/d + tr(Sigma)/(d(d+2))) I + (2/(d(d+2))) Sigma.

    ``ps`` keeps the polynomial of each m, formed on the first call, so
    every call for (ps, m) returns the one instance: its coefficients are
    read-only.  It records ``nu``, a bound on ||Sigma||_2 from the
    spectrum, and ``p2`` = p_2 where the power sums hold it.
    """
    _check_dims(ps, d, m, 2, "m")
    g = ps._gradients.get(m)
    if g is None:
        coeffs = _gradient_coeffs(_terms(ps, d / 2.0), m, d / 2.0)
        coeffs.flags.writeable = False
        g = GradientPolynomial(d=ps.d, coeffs=coeffs, nu=ps._nu,
                               p2=float(ps.p[2]) if ps.K >= 2 else None)
        ps._gradients[m] = g
    return g


def covariance_expansion(
    ps: PowerSums, sigma: np.ndarray, l: int, m: int, d: int
) -> np.ndarray:
    """Covariance approximation: truncated inverse times truncated gradient.

    A Sigma with a nan or inf entry raises :class:`MatrixValidationError`
    (:func:`binghamx.symmat.materialize`).
    """
    _check_covariance(ps, sigma, l, m, d)
    cov = materialize(norm_const_gradient_truncated(ps, m, d), sigma)
    cov *= inverse_norm_const_truncated(ps, l, d)
    return cov


def _check_covariance(ps: PowerSums, sigma: np.ndarray, l: int, m: int, d: int) -> None:
    """The checks of both covariance calls, in their order: Sigma, l, m."""
    _check_sigma(sigma, d)
    _check_dims(ps, d, l, 2, "l")
    _check_dims(ps, d, m, 2, "m")


def covariance_second_order(sigma: np.ndarray, d: int) -> np.ndarray:
    """The (l, m) = (2, 3) covariance product in closed form.

    (1 - tr(Sigma)/d) * [ I/d + ((tr Sigma) I + 2 Sigma) / (d (d + 2)) ],
    which for trace-zero Sigma reduces to I/d + 2 Sigma / (d (d + 2)).
    A Sigma with a nan or inf entry raises :class:`MatrixValidationError`,
    as :func:`covariance_expansion` and :func:`power_sums` do.
    """
    _check_sigma(sigma, d)
    if not np.isfinite(sigma).all():
        raise MatrixValidationError("matrix has non-finite entries")
    t = float(np.trace(sigma))
    base = np.eye(d) / d + (t * np.eye(d) + 2.0 * sigma) / (d * (d + 2.0))
    return (1.0 - t / d) * base


def alpha_exponent(m: int, regime: GrowthRegime) -> float:
    """Order of the covariance remainder: O(d^-alpha)."""
    if m < 2:
        raise OrderRangeError(f"m must be >= 2, got {m}")
    r = regime.exponent
    return (2.0 - r) / 2.0 if m == 2 else (3.0 - 2.0 * r) / 2.0


def alpha_descriptor(m: int, regime: GrowthRegime | None) -> str:
    """Human-readable remainder order for the covariance product."""
    if m < 2:
        raise OrderRangeError(f"m must be >= 2, got {m}")
    rule = "alpha = (2 - r)/2" if m == 2 else "alpha = (3 - 2r)/2"
    if regime is None:
        return f"remainder O(d^-alpha), {rule} in the growth exponent r"
    a = alpha_exponent(m, regime)
    return f"remainder O(d^-{a:g}), {rule} at r = {regime.exponent:g}"


def covariance_derived_bound(
    ps: PowerSums,
    sigma: np.ndarray,
    l: int,
    m: int,
    d: int,
    regime: GrowthRegime,
) -> float:
    """Conservative numeric bound on the covariance truncation error.

    Assembled from the proved pieces: with T the truncated inverse, G
    the truncated gradient at Sigma, B_g the gradient tail bound and B_i
    the inverse tail bound,

        ||Cov - T G||_F <= |T| B_g + B_i (||G||_F + B_g).

    G = V g(Lambda) V' for Sigma = V Lambda V', so ||G||_F = ||g(lambda)||_2:
    O(d m) on the eigenvalues ``ps`` is built from, and G itself is never
    formed.  g(lambda) is evaluated on c_0 .. c_L'' only, L'' the smallest
    degree whose dropped terms have sum_{l > L''} |c_l| nu^l <= 2^-55 |c_0|,
    nu >= max |lambda_i| the bound the gradient records, and sqrt(d) times
    that sum is added, so in exact arithmetic the result is never below
    the full-degree one.  In float the cut and the full Horner loops can
    end one rounding apart in some g(lambda_i), so when a term is dropped
    ||g(lambda)||_2 is also rounded up by one ulp: on 600 random inputs
    at m = 40 this puts every cut bound at or above its full-degree value,
    where 5 fell below without it (tests/test_series.py).
    Every term is kept when c_0 = 0, nu = 0 or a quantity is not finite.
    The orders, the dimensions and both tail bounds, with the
    admissibility of d, are checked before any series work.

    Derived, not sharp; requires d above the inverse-expansion
    threshold.  The tight statement remains the alpha descriptor.
    """
    _check_covariance(ps, sigma, l, m, d)
    b_grad = gradient_tail_bound(m, d, regime)
    b_inv = inverse_tail_bound(l, d, regime)
    scalar = inverse_norm_const_truncated(ps, l, d)
    grad = norm_const_gradient_truncated(ps, m, d)
    degree, tail = _tail_cut(grad.coeffs, grad.nu, 0, 2.0**-_CUT_BITS * abs(float(grad.coeffs[0])))
    values = polynomial_values(grad.coeffs[:degree + 1], ps.eigenvalues)
    grad_norm = frobenius_norm(values)
    if degree < len(grad.coeffs) - 1:
        # The cut loop can round some g(lambda_i) one ulp from the full one.
        grad_norm = math.nextafter(grad_norm, math.inf)
    grad_norm += math.sqrt(ps.d) * tail
    return abs(scalar) * b_grad + b_inv * (grad_norm + b_grad)
