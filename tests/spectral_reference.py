"""Exact-rational partial sums of the series for Psi and its gradient, from a spectrum.

Psi depends on Sigma only through its eigenvalues.  For a spectrum of
rational (eigenvalue, multiplicity) pairs in dimension d = sum of the
multiplicities, every term of the series is an exact rational:

    p_j = sum_i mult_i lambda_i^j,
    k e_k = 1/2 sum_{j=1..k} p_j e_(k-j),   e_0 = 1,
    t_k = e_k / (d/2)_k,

and Psi_m = t_0 + ... + t_(m-1).  The e_k are the coefficients of
prod_i (1 - lambda_i z)^(-mult_i / 2), whose logarithmic derivative gives
the recurrence.  Since de_k/dp_j = e_(k-j) / (2j) and dp_j/dSigma =
j Sigma^(j-1), the gradient of Psi_m is the polynomial
sum_l c_(l-1) Sigma^(l-1) with

    c_(l-1) = sum_{k=l..m-1} e_(k-l) / (2 (d/2)_k),   l = 1..m-1.

The module uses ``fractions`` alone and shares no code with the library:
it is the reference the float series is checked against.
"""

from __future__ import annotations

from fractions import Fraction


def dimension(spectrum) -> int:
    """d, the sum of the multiplicities."""
    return sum(mult for _, mult in spectrum)


def power_sums(spectrum, order: int) -> list[Fraction]:
    """p_0 .. p_order, with p_0 = d."""
    return [sum(mult * Fraction(lam) ** j for lam, mult in spectrum)
            for j in range(order + 1)]


def _elementary(p, d: int, m: int) -> tuple[list[Fraction], list[Fraction]]:
    """e_0 .. e_(m-1) from p_1 .. p_(m-1), and (d/2)_0 .. (d/2)_(m-1)."""
    half_d = Fraction(d, 2)
    e, rising = [Fraction(1)], [Fraction(1)]
    for k in range(1, m):
        e.append(sum(p[j] * e[k - j] for j in range(1, k + 1)) / (2 * k))
        rising.append(rising[-1] * (half_d + k - 1))
    return e, rising


def series_terms(spectrum, m: int) -> list[Fraction]:
    """t_0 .. t_(m-1), the terms of Psi_m."""
    e, rising = _elementary(power_sums(spectrum, m - 1), dimension(spectrum), m)
    return [ek / r for ek, r in zip(e, rising)]


def gradient_coefficients(p, d: int, m: int) -> list[Fraction]:
    """c_0 .. c_(m-2), the coefficients of grad Psi_m as a polynomial in Sigma.

    ``p`` holds p_0 .. p_(m-1) (p_0 is not read); for a spectrum pass
    ``power_sums(spectrum, m - 1)``, or other values, such as the |p_j|
    that majorize every term.
    """
    e, rising = _elementary(p, d, m)
    return [sum(e[k - l] / (2 * rising[k]) for k in range(l, m)) for l in range(1, m)]
