"""Single-row zonal polynomials, their gradients, and tail coefficients.

The order-k zonal polynomial of a symmetric matrix depends only on the
power sums p_j = tr(Sigma^j):

    C_k(Sigma) = (k! / (1/2)_k) * sum over partitions (i_1..i_k) of k
                 of  prod_j p_j^i_j / (i_j! (2j)^i_j).

The floating-point path does not sum over partitions.  The generating
function exp(sum_j p_j t^j / 2j) = det(I - t Sigma)^(-1/2) (Muirhead 1982,
ch. 7) gives e_k := (1/2)_k C_k / k! by the recurrence

    k e_k = 1/2 sum_{j=1..k} p_j e_{k-j},    d e_k / d p_l = e_{k-l} / (2l),

so one pass gives the terms e_k / (a)_k of every order below m in
O(m^2) per matrix: a = d/2 gives the series terms of the normalizing
constant, a = 1/2 gives C_k / k!.  Every gradient is a reduction of those
terms, e_{k-l} / (2 (a)_k) summed over the orders it needs, so values and
gradients share the one pass.  Every caller reads the terms through
:func:`_terms`, which runs one pass per :class:`PowerSums` and a, at the
highest order its power sums allow, and keeps it read-only; each caller
slices the orders it needs.  One pass per matrix serves the calls of
:mod:`binghamx.series` at a = d/2, and one serves ``zonal_value`` and
``zonal_gradient`` at a = 1/2.
The Pochhammer division stays inside the recurrence, through ratios
(a)_{k-j} / (a)_k, so neither (a)_k, e_k nor k! is ever formed on its
own and no intermediate factor overflows even at the largest supported
order.  Those ratios and the index array that places the terms in the
gradient rows form one table per (pass order, a), in a bounded cache
that the pass and its gradients read, so a new matrix costs only the
O(m^2) recurrence.

The partition sums remain as independent references: exactly in
``zonal_value_exact``, and in float64 from cached per-order partition
data in ``scaled_zonal_value`` / ``scaled_zonal_gradient``.

The tail coefficients bound |C_k|: |C_k(Sigma)| <= (k!/(1/2)_k) *
bound_coefficient(k, d) * ||Sigma||^k for any d x d symmetric Sigma.
They are available in two forms proved equal (a sum over partitions
weighted by d^(i_1/2), and a single binomial-type sum), both polynomials
in sqrt(d) with rational coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import OrderRangeError
from .partitions import (
    MAX_ORDER,
    check_order,
    enumerate_partitions,
    half_pochhammer,
    partition_weight,
)
from .symmat import GradientPolynomial, PowerSums


@lru_cache(maxsize=8)
def _series_tables(m: int, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of the order-m recurrence at parameter a that no p_j enters.

    Returns ``shift``, ``ratio`` and ``half``, each of shape (m, m - 1)
    and read-only: shift[k, j-1] = max(k - j, 0), ratio[k, j-1] =
    (a)_{k-j} / (a)_k where k >= j, and half = 0.5 * ratio there and 0
    above the diagonal, so that half * t[shift] is the gradient rows of
    :func:`_gradient_coeffs` with no mask.  Row k is the same at any
    m > k, so there is one table per (pass order, a), which the pass's
    gradients slice, in a cache of at most 8 entries.  The largest order,
    MAX_ORDER + 1 = 41 (a PowerSums with K >= MAX_ORDER), takes 39,360
    bytes an entry, so the cache never holds more than 314,880 bytes.
    """
    shift = np.arange(m)[:, None] - np.arange(1, m)[None, :]  # k - j
    below = shift >= 0
    shift = np.maximum(shift, 0)
    inv = 1.0 / (a + np.arange(m - 1))
    ratio = np.cumprod(np.where(below, inv[shift], 1.0), axis=1)
    tables = shift, ratio, np.where(below, 0.5 * ratio, 0.0)
    for table in tables:
        table.flags.writeable = False
    return tables


def _series_pass(p: np.ndarray, m: int, a: float) -> np.ndarray:
    """Terms t[k] = e_k / (a)_k of orders k < m: the one recurrence pass.

    ``p`` follows the :class:`~binghamx.symmat.PowerSums` convention and
    must hold p_1..p_{m-1}.  With a = d/2 the t[k] are the series terms
    of N(Sigma); with a = 1/2 they are C_k / k!.  Every product goes
    through ratio[k, j-1] = (a)_{k-j} / (a)_k, a product of j factors
    1 / (a + i), so that

        t[k] = 1/(2k) sum_{j=1..k} p_j ratio[k, j-1] t[k-j],

    and no Pochhammer symbol, e_k or factorial is formed on its own.
    The ratio table is the one per (pass order, a) in the bounded cache
    of :func:`_series_tables`.  Every gradient is a reduction of
    these terms (:func:`_gradient_coeffs`).  Its callers share this one
    pass: :func:`_terms` keeps it, read-only, on the :class:`PowerSums` it
    was run for.
    """
    _, ratio, _ = _series_tables(m, a)
    weights = p[1:m] * ratio
    t = np.empty(m)
    t[0] = 1.0
    for k in range(1, m):
        t[k] = weights[k, :k] @ t[k - 1::-1] / (2 * k)
    return t


def _terms(ps: PowerSums, a: float) -> np.ndarray:
    """The terms t[k] = e_k / (a)_k of every order k <= min(K, MAX_ORDER), read-only.

    The one :func:`_series_pass` that ``ps`` keeps for a, run on the first
    call: its order min(K, MAX_ORDER) + 1 is the highest that the power
    sums and :func:`~binghamx.partitions.check_order` allow.  A pass to a
    higher order holds the lower orders' terms bit for bit, so every
    caller slices its own prefix: the series calls at a = d/2, and
    ``zonal_value`` and ``zonal_gradient`` at a = 1/2.  Calls racing on
    one ``ps`` may each run the pass; every run gives the same bits.
    """
    t = ps._terms.get(a)
    if t is None:
        t = _series_pass(ps.p, min(ps.K, MAX_ORDER) + 1, a)
        t.flags.writeable = False
        ps._terms[a] = t
    return t


def _gradient_coeffs(t: np.ndarray, m: int, a: float) -> np.ndarray:
    """Coefficients of grad sum_{k<m} t[k] as a polynomial in Sigma.

    ``t`` holds the terms of a :func:`_series_pass` at parameter a and
    order len(t) >= m, whose table it reads; only t[:m - 1] enters.  The
    coefficient of Sigma^(l-1) in grad t[k] is e_{k-l} / (2 (a)_k) =
    1/2 ratio[k, l-1] t[k-l] for 1 <= l <= k, summed over k < m.
    """
    shift, _, half = _series_tables(len(t), a)
    return (half[:m, :m - 1] * t[shift[:m, :m - 1]]).sum(axis=0)


@lru_cache(maxsize=None)
def _partition_data(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent matrix E (n_partitions, k) and weights w/(1/2)_k as float64."""
    parts = enumerate_partitions(k)
    E = np.array(parts, dtype=np.int64)
    hp = half_pochhammer(k)
    q = np.array([float(partition_weight(i) / hp) for i in parts])
    return E, q


def power_table(p: np.ndarray, kmax: int) -> np.ndarray:
    """Table of p_j^e for j = 1..kmax, e = 0..kmax // j.

    ``p`` follows the :class:`~binghamx.symmat.PowerSums` convention
    (p[j] = tr(Sigma^j)).  Entry [j-1, e] holds p_j^e; exponents beyond
    kmax // j never occur in any partition of k <= kmax and are left at 1.
    """
    table = np.ones((kmax, kmax + 1))
    for j in range(1, kmax + 1):
        base = float(p[j])
        for e in range(1, kmax // j + 1):
            table[j - 1, e] = table[j - 1, e - 1] * base
    return table


def scaled_zonal_value(k: int, table: np.ndarray) -> float:
    """C_k / k! evaluated from a :func:`power_table`."""
    if k == 0:
        return 1.0
    E, q = _partition_data(k)
    W = table[np.arange(k)[None, :], E]
    return float(q @ W.prod(axis=1))


def scaled_zonal_gradient(k: int, table: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Coefficients of grad C_k / k! as a polynomial in Sigma.

    Returns the length-k array c with grad(C_k)/k! = sum_l c[l] Sigma^l.
    The derivative of p_j^i_j needs p_j^(i_j - 1); when p_j = 0 and
    i_j = 1 that factor is 1 by convention, handled on a separate branch
    because the fast path divides the cached row product by p_j.
    """
    E, q = _partition_data(k)
    W = table[np.arange(k)[None, :], E]
    row = W.prod(axis=1)
    c = np.zeros(k)
    for l in range(1, k + 1):
        el = E[:, l - 1]
        pl = float(p[l])
        if pl != 0.0:
            mask = el > 0
            if mask.any():
                c[l - 1] = l * float((q[mask] * el[mask]) @ row[mask]) / pl
        else:
            mask = el == 1
            if mask.any():
                sub = W[mask].copy()
                sub[:, l - 1] = 1.0
                c[l - 1] = l * float(q[mask] @ sub.prod(axis=1))
    return c


def zonal_value(k: int, ps: PowerSums) -> float:
    """The order-k zonal polynomial C_k(Sigma) from power sums.

    C_0 = 1, C_1 = tr(Sigma), C_2 = ((tr Sigma)^2 + 2 tr(Sigma^2)) / 3.
    """
    check_order("k", k, 0)
    ps.require(k)
    return float(math.factorial(k) * _terms(ps, 0.5)[k])


def zonal_gradient(k: int, ps: PowerSums) -> GradientPolynomial:
    """Gradient of C_k as a :class:`GradientPolynomial` of degree k - 1.

    The gradient convention is G_ab = (1 + delta_ab)/2 * d/dsigma_ab, so
    grad C_1 = I and grad C_2 = (2/3)((tr Sigma) I + 2 Sigma).  Only row
    k of the a = 1/2 pass's table enters: half[k, l-1] t[k-l].
    """
    check_order("k", k, 1)
    ps.require(k)
    t = _terms(ps, 0.5)
    row = _series_tables(len(t), 0.5)[2][k, :k] * t[k - 1::-1]
    return GradientPolynomial(d=ps.d, coeffs=float(math.factorial(k)) * row)


def zonal_value_exact(k: int, powers: Sequence) -> Fraction:
    """C_k as an exact Fraction from exact power sums.

    ``powers`` uses the same indexing as :class:`PowerSums`:
    powers[j] = tr(Sigma^j) for j = 1..k (index 0 is ignored), entries
    Fraction or int.  Brute-force partition sum, no floating point.
    """
    check_order("k", k, 0)
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for i in enumerate_partitions(k):
        prod = Fraction(1)
        for j, ij in enumerate(i, start=1):
            if ij:
                prod *= Fraction(powers[j]) ** ij
        total += partition_weight(i) * prod
    return Fraction(math.factorial(k)) / half_pochhammer(k) * total


def bound_coefficient_poly(k: int) -> tuple[Fraction, ...]:
    """Multisum tail coefficient as a polynomial in s = sqrt(d).

    Coefficient t collects the weights of all partitions with i_1 = t:
    sum over partitions of d^(i_1 / 2) * weight = sum_t c[t] s^t.
    """
    check_order("k", k, 0)
    coeffs = [Fraction(0)] * (k + 1)
    if k == 0:
        return (Fraction(1),)
    for i in enumerate_partitions(k):
        coeffs[i[0]] += partition_weight(i)
    return tuple(coeffs)


def bound_coefficient_closed_poly(k: int) -> tuple[Fraction, ...]:
    """Closed-form tail coefficient as a polynomial in s = sqrt(d).

    Expands sum_{l=0}^{k} ((s - 1)/2)^l / l! * (1/2)_{k-l} / (k-l)!
    binomially in s.  Equal, coefficient by coefficient, to
    :func:`bound_coefficient_poly`.
    """
    check_order("k", k, 0)
    coeffs = [Fraction(0)] * (k + 1)
    for l in range(k + 1):
        tail = half_pochhammer(k - l) / math.factorial(k - l)
        scale = Fraction(1, 2**l * math.factorial(l))
        for t in range(l + 1):
            coeffs[t] += scale * math.comb(l, t) * (-1) ** (l - t) * tail
    return tuple(coeffs)


def _eval_sqrt_poly(coeffs: Sequence[Fraction], d: float) -> float:
    if not 0 < d < math.inf:
        raise OrderRangeError(f"d must be finite and positive, got {d}")
    s = math.sqrt(d)
    out = 0.0
    for c in reversed(coeffs):
        out = out * s + float(c)
    return out


def bound_coefficient(k: int, d: float) -> float:
    """Multisum form of the tail coefficient at dimension d.

    d must be finite and positive: a nan, an infinity or d <= 0 raises
    :class:`OrderRangeError`.
    """
    return _eval_sqrt_poly(bound_coefficient_poly(k), d)


def bound_coefficient_closed(k: int, d: float) -> float:
    """Closed single-sum form of the tail coefficient at dimension d.

    Takes the d of :func:`bound_coefficient` and rejects the same ones.
    """
    return _eval_sqrt_poly(bound_coefficient_closed_poly(k), d)
