"""Exact-rational partial sums of the series for Psi, from a spectrum.

Psi depends on Sigma only through its eigenvalues.  For a spectrum of
rational (eigenvalue, multiplicity) pairs in dimension d = sum of the
multiplicities, every term of the series is an exact rational:

    p_j = sum_i mult_i lambda_i^j,
    k e_k = 1/2 sum_{j=1..k} p_j e_(k-j),   e_0 = 1,
    t_k = e_k / (d/2)_k,

and Psi_m = t_0 + ... + t_(m-1).  The e_k are the coefficients of
prod_i (1 - lambda_i z)^(-mult_i / 2), whose logarithmic derivative gives
the recurrence.  The module uses ``fractions`` alone and shares no code
with the library: it is the reference the float series is checked against.
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


def series_terms(spectrum, m: int) -> list[Fraction]:
    """t_0 .. t_(m-1), the terms of Psi_m."""
    p = power_sums(spectrum, m - 1)
    half_d = Fraction(dimension(spectrum), 2)
    e, t, rising = [Fraction(1)], [Fraction(1)], Fraction(1)
    for k in range(1, m):
        e.append(sum(p[j] * e[k - j] for j in range(1, k + 1)) / (2 * k))
        rising *= half_d + k - 1
        t.append(e[k] / rising)
    return t
