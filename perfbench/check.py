"""Reference values and output checks for the benchmark.

No reference shares a floating-point path with the code being timed:

* power sums come from repeated matrix products (the library uses
  ``eigvalsh``), or from the diagonal for diagonal input;
* the series is summed in exact rationals through the generating-function
  recurrence k e_k = 1/2 sum_{j<=k} p_j e_{k-j}, where e_k = (1/2)_k C_k / k!
  is the numerator of series term k = e_k / (d/2)_k; at small orders it is
  also checked against the library's exact partition sum
  ``zonal_value_exact``, and for rank-one input against the scalar Kummer
  series, an exact identity;
* matrix outputs are checked through their trace and quadratic forms,
  evaluated from the reference coefficients with matrix-vector products
  (the library evaluates the polynomial by Horner's rule on matrices).

Everything here runs in the benchmark process, outside any timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: Relative tolerance of every float comparison, scaled by the sum of the
#: absolute values of the terms summed, so cancellation cannot fail it.
RTOL = 1e-9


def power_sums(sigma: np.ndarray, K: int) -> list[float]:
    """p[j] = tr(Sigma^j) for j = 0..K without an eigen-decomposition."""
    d = sigma.shape[0]
    diag = np.diagonal(sigma)
    if not np.count_nonzero(sigma - np.diag(diag)):
        return [float(d)] + [math.fsum(diag**j) for j in range(1, K + 1)]
    p = [float(d)]
    power = np.eye(d)
    for _ in range(K):
        power = power @ sigma
        p.append(float(np.trace(power)))
    return p


def power_sum_scale(p: list[float], j: int) -> float:
    """An upper bound on sum_i |lambda_i|^j from the even power sums."""
    if j % 2 == 0:
        return p[j]
    return math.sqrt(p[j - 1] * p[j + 1])


class Series:
    """Exact series numerators e_k and Pochhammer symbols (d/2)_k, k < m."""

    def __init__(self, p: list[float], d: int, m: int):
        q = [Fraction(x) for x in p]
        self.e = [Fraction(1)]
        for k in range(1, m):
            self.e.append(sum(q[j] * self.e[k - j] for j in range(1, k + 1)) / (2 * k))
        self.poch = [Fraction(1)]
        for k in range(1, m):
            self.poch.append(self.poch[-1] * (Fraction(d, 2) + k - 1))
        self.terms = [e / c for e, c in zip(self.e, self.poch)]

    def psi(self, m: int) -> tuple[float, float]:
        """Truncated value and the sum of its absolute terms."""
        t = self.terms[:m]
        return float(sum(t)), float(sum(abs(x) for x in t))

    def inverse(self, l: int) -> tuple[float, float]:
        """Truncated inverse 1 - sum_{1<=k<l} term_k and its absolute scale."""
        t = self.terms[1:l]
        return float(1 - sum(t)), float(1 + sum(abs(x) for x in t))

    def grad(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Gradient coefficients c_{l-1} = 1/2 sum_{k=l}^{m-1} e_{k-l}/(d/2)_k."""
        c, scale = [], []
        for l in range(1, m):
            parts = [self.e[k - l] / self.poch[k] for k in range(l, m)]
            c.append(float(sum(parts) / 2))
            scale.append(float(sum(abs(x) for x in parts) / 2))
        return np.array(c), np.array(scale)


def zonal_agrees(series: Series, p: list[float], kmax: int) -> bool:
    """e_k == (1/2)_k C_k / k! exactly for k <= kmax, C_k by partition sums."""
    from binghamx import half_pochhammer, zonal_value_exact

    q = [Fraction(x) for x in p]
    return all(
        series.e[k] == half_pochhammer(k) * zonal_value_exact(k, q) / math.factorial(k)
        for k in range(1, kmax + 1)
    )


def kummer_agrees(value: float, d: int, theta: float, m: int) -> bool:
    """Rank-one identity: Psi_m(theta u u') = sum_{k<m} (1/2)_k/(d/2)_k theta^k/k!."""
    from binghamx.oracle import kummer_partial_sum

    ref = kummer_partial_sum(d / 2.0, theta, m)
    scale = kummer_partial_sum(d / 2.0, abs(theta), m)
    return abs(value - ref) <= RTOL * scale


def close(value: float, ref: float, scale: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= RTOL * scale


def matrix_ok(out: np.ndarray, sigma: np.ndarray, p: list[float], c: np.ndarray,
              scalar: float, rng: np.random.Generator) -> bool:
    """Check out == scalar * sum_l c_l Sigma^l on independent functionals.

    Finite and symmetric; trace equal to scalar * sum_l c_l p_l; two
    quadratic forms u' out u in seeded random directions equal to
    scalar * sum_l c_l u' Sigma^l u, with Sigma^l u from matrix-vector
    products.  Diagonal Sigma is checked entry by entry.
    """
    d = sigma.shape[0]
    if out.shape != (d, d) or not np.isfinite(out).all():
        return False
    top = float(np.abs(out).max())
    if float(np.abs(out - out.T).max()) > 1e-12 * top:
        return False
    diag = np.diagonal(sigma)
    if not np.count_nonzero(sigma - np.diag(diag)):
        powers = diag[None, :] ** np.arange(len(c))[:, None]
        ref = scalar * (c @ powers)
        scale = abs(scalar) * (np.abs(c) @ np.abs(powers))
        off = out - np.diag(np.diagonal(out))
        return (bool(np.all(np.abs(np.diagonal(out) - ref) <= RTOL * scale))
                and float(np.abs(off).max()) <= RTOL * top)
    terms = [c[l] * p[l] for l in range(len(c))]
    if not close(float(np.trace(out)), scalar * math.fsum(terms),
                 abs(scalar) * math.fsum(abs(t) for t in terms)):
        return False
    for _ in range(2):
        u = rng.standard_normal(d)
        v, forms = u, []
        for l in range(len(c)):
            forms.append(float(u @ v))
            v = sigma @ v
        terms = [c[l] * forms[l] for l in range(len(c))]
        if not close(float(u @ out @ u), scalar * math.fsum(terms),
                     abs(scalar) * math.fsum(abs(t) for t in terms)):
            return False
    return True


def parse_record(text: str) -> tuple[dict[str, str], np.ndarray | None]:
    """Split ``text``-format CLI output into its key = value record and matrix."""
    record: dict[str, str] = {}
    lines = text.split("\n")
    for n, line in enumerate(lines):
        key, sep, value = line.partition(" = ")
        if not sep:
            break
        record[key] = value
    else:
        return record, None
    tokens = " ".join(lines[n:]).split()
    if not tokens:
        return record, None
    d = int(tokens[0])
    if len(tokens) != 1 + d * d:
        raise ValueError(f"matrix output has {len(tokens) - 1} entries, want {d * d}")
    return record, np.array(tokens[1:], dtype=float).reshape(d, d)


def parse_verify(text: str) -> dict[str, list[str]]:
    """Rows of the ``verify`` table by check name."""
    rows = [line.split() for line in text.splitlines()[1:] if line.strip()]
    return {row[0]: row[1:] for row in rows}


def positive(text: str) -> bool:
    value = float(text)
    return math.isfinite(value) and value > 0
