"""Symmetric-matrix ingestion, power sums, and gradient polynomials.

Matrices are plain float64 numpy arrays.  :func:`load_matrix` is the only
ingestion point: it parses the text format, enforces symmetry to the
documented tolerance, and returns the exactly symmetrized matrix, so
everything downstream may assume a finite symmetric array with d >= 2.
:func:`symmetrize` forms that symmetric part for :func:`load_matrix` and
for dense :func:`materialize` alike: a pair whose sum overflows is halved
before it is added, so finite entries up to DBL_MAX stay finite.

The text format is whitespace-separated: the first token is the dimension
d, followed by d*d entries read row by row, each an ASCII decimal number.
Line breaks are not significant beyond separating tokens.

Text conversion costs far more than the arithmetic at large d, so both
directions convert each distinct entry once.  :func:`load_matrix` parses
the upper triangle and copies a value to its mirror when the two tokens
are the same text; :func:`format_matrix`, the one writer of the CLI's
text, csv and md matrices, renders the upper triangle and reuses a string
for its mirror when the two values are bit-equal.  Results are the same as
converting every entry.

Gradients are matrix polynomials g(Sigma), of degree L = m - 2 for m terms.
:func:`materialize` evaluates dense ones by the Paterson-Stockmeyer
scheme: with block size s ~ sqrt(L) it takes (s - 1) + L // s products
(11 at L = 38, 5 at L = 10) instead of Horner's L, and holds at most
s + 2 d x d arrays beyond Sigma.  Each block sum is one BLAS gemv over the
stacked powers and the carried product, so BLAS chooses the order of its
additions as it does for the products; only the diagonal additions are
elementwise.  Diagonal Sigma takes Horner's rule on the diagonal, O(d L).

Before the split, dense Sigma drops the top coefficients whose summed
bound sum_{l > L'} |c_l| ||Sigma||_F^l is at most 2^-55 |c_1| omega, omega
the largest off-diagonal |sigma_ij|: as |(Sigma^l)_ij| <= ||Sigma||_F^l,
no entry moves by more than a quarter of the unit roundoff of the
first-order off-diagonal scale.  In the regime ||Sigma|| <= gamma0 d^(r/2),
r < 1, the coefficient of Sigma^l falls like 1/(d/2)_(l+1), so at m = 40
and ||Sigma||_F = 1 about degree 14 of 38 is kept at d = 20 and 11 at
d = 100: 6 and 5 products instead of 11.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

import numpy as np

from .bounds import round_half_up
from .errors import (
    DimensionMismatchError,
    InsufficientPowersError,
    MatrixFormatError,
    MatrixValidationError,
)

#: Relative asymmetry tolerated on ingestion: |a_ij - a_ji| / (1 + |a_ij|).
ASYMMETRY_TOL = 1e-9

#: Largest d for which the dense eigenvalue path is attempted.  Larger
#: matrices are supported only through the diagonal fast path.
DENSE_EIGEN_LIMIT = 20000


def load_matrix(text: str) -> np.ndarray:
    """Parse matrix text into a validated symmetric float64 array.

    Each distinct entry is converted once: the upper triangle is parsed,
    and an entry below the diagonal is parsed only when its token differs
    from its mirror's; otherwise it takes the mirror's value.  Results and
    error messages are those of parsing every token in row-major order.

    Parameters
    ----------
    text : str
        First token the dimension d (integer >= 2), then d*d ASCII
        decimal numbers in row-major order.

    Returns
    -------
    numpy.ndarray
        ``symmetrize(A)``, the exactly symmetrized matrix (A + A.T) / 2,
        shape (d, d), finite: a pair whose sum overflows is halved before
        it is added.

    Raises
    ------
    MatrixFormatError
        Malformed header, non-numeric token, or wrong entry count; the
        message names the offending row and column.
    MatrixValidationError
        d < 2, non-finite entries, or relative asymmetry above
        ``ASYMMETRY_TOL``.
    """
    tokens = text.split()
    # Only such text can hold a token that int or float reads but the
    # format does not have (see _is_number); isascii is O(1).
    foreign = "_" in text or not text.isascii()
    del text  # freed here unless the caller holds it
    if not tokens:
        raise MatrixFormatError("empty input: expected dimension header")
    try:
        if foreign and not _is_number(tokens[0], int):
            raise ValueError
        d = int(tokens[0])
    except ValueError:
        raise MatrixFormatError(
            f"dimension header must be an integer, got {tokens[0]!r}"
        ) from None
    if d < 2:
        raise MatrixValidationError(f"dimension must be >= 2, got {d}")
    count = len(tokens) - 1
    if count != d * d:
        # Locate the shortfall/overrun for the diagnostic.
        n = min(count, d * d)
        row, col = divmod(n, d)
        raise MatrixFormatError(
            f"expected {d * d} entries for d = {d}, got {count} "
            f"(at row {row + 1}, column {col + 1})"
        )
    try:
        if foreign and not all(map(_is_number, islice(tokens, 1, None))):
            raise ValueError
        a = _parse_mirrored(tokens, d)
    except ValueError:
        # Name the first bad token in row-major order.
        for idx, tok in enumerate(islice(tokens, 1, None)):
            if not _is_number(tok):
                row, col = divmod(idx, d)
                raise MatrixFormatError(
                    f"row {row + 1}, column {col + 1}: expected a number, got {tok!r}"
                ) from None
        raise
    del tokens
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise MatrixValidationError(
            f"non-finite entry at row {i + 1}, column {j + 1}"
        )
    # A difference past DBL_MAX is inf, and rejected as such.
    with np.errstate(over="ignore"):
        asym = np.abs(a - a.T) / (1.0 + np.abs(a))
    worst = float(asym.max())
    if worst > ASYMMETRY_TOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise MatrixValidationError(
            f"matrix is not symmetric: entries ({i + 1},{j + 1}) and "
            f"({j + 1},{i + 1}) differ, relative asymmetry {worst:.3e} "
            f"exceeds {ASYMMETRY_TOL:.0e}"
        )
    return symmetrize(a)


def _is_number(tok: str, kind=float) -> bool:
    """Whether ``tok`` is a number of the format: ``kind`` reads it, and it
    has no "_" or non-ASCII character (int and float read "1_0" as 10 and
    an Arabic-Indic digit as its value)."""
    try:
        kind(tok)
    except ValueError:
        return False
    return tok.isascii() and "_" not in tok


def _parse_mirrored(tokens: list[str], d: int) -> np.ndarray:
    """The d x d entries after the header token, each distinct token parsed once.

    Row i's upper part is parsed; column i below the diagonal copies it,
    except where a token differs from its mirror's and is parsed itself.
    Raises ValueError on the first token ``float`` rejects, in no set order.
    """
    a = np.empty((d, d), dtype=np.float64)
    for i in range(d):
        start = 1 + i * d
        upper = tokens[start + i:start + d]
        a[i, i:] = np.fromiter(map(float, upper), np.float64, d - i)
        a[i + 1:, i] = a[i, i + 1:]
        lower = tokens[start + d + i::d]
        if lower != upper[1:]:
            for j, (u, tok) in enumerate(zip(upper[1:], lower), i + 1):
                if u != tok:
                    a[j, i] = float(tok)
    return a


def _g17(values: list[float]) -> list[str]:
    """Each value with 17 significant digits, as ``f"{x:.17g}"`` writes it."""
    return ((" %.17g" * len(values))[1:] % tuple(values)).split(" ")


def _matrix_rows(a: np.ndarray, cells):
    """Yield each row of ``a`` as a list of strings, each distinct entry rendered once.

    ``cells`` maps a list of floats to their strings.  A square matrix
    renders its upper triangle; an entry below the diagonal reuses its
    mirror's string when the two float64 values are bit-equal, and is
    rendered on its own otherwise.  Only the strings of entries still to
    be printed are held: at most d*d/4 of them.
    """
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[0]
    if a.shape[1] != d:
        for r in a:
            yield cells(r.tolist())
        return
    bits = a.view(np.int64)
    # pending[j]: the strings of (0, j) .. (i - 1, j), the mirrors of row j's first i.
    pending = [[] for _ in range(d)]
    for i in range(d):
        upper = cells(a[i, i:].tolist())
        row, pending[i] = pending[i], None
        for j in np.flatnonzero(bits[i, :i] != bits[:i, i]).tolist():
            row[j] = cells([float(a[i, j])])[0]
        # Hand (i, j) to row j for every j > i; the deque only drains the map.
        deque(map(list.append, pending[i + 1:], upper[1:]), maxlen=0)
        row += upper
        yield row


#: For each output format: the cell renderer, the first line for a
#: (rows, columns) shape, and each row's start, separator and end.
_LAYOUTS = {
    "text": (_g17, lambda rows, cols: f"{rows}\n", "", " ", "\n"),
    "csv": (_g17, lambda rows, cols: "", "", ",", "\n"),
    "md": (lambda values: list(map(round_half_up, values)),
           lambda rows, cols: "|" + "---|" * cols + "\n", "| ", " | ", " |\n"),
}


def format_matrix(a: np.ndarray, fmt: str = "text") -> str:
    """Render a matrix in the CLI output format ``fmt``: text, csv or md.

    ``text`` is the format :func:`load_matrix` reads, ``csv`` its rows
    alone, comma-separated, and ``md`` a table of one column per matrix
    column.  Entries have 17 significant digits, so a round trip is
    value-preserving, except in md, which rounds to 5 decimals half-up.
    Each distinct entry is converted once: a mirror entry bit-equal to
    its partner above the diagonal reuses its string.  The output is
    that of formatting every entry.
    """
    if fmt not in _LAYOUTS:
        raise ValueError(f"fmt must be one of {', '.join(_LAYOUTS)}, got {fmt!r}")
    cells, first, start, sep, end = _LAYOUTS[fmt]
    lines = [first(*np.shape(a))]
    lines += [start + sep.join(row) + end for row in _matrix_rows(a, cells)]
    return "".join(lines)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A.T) / 2 as a new array.

    A pair whose sum overflows is halved before it is added, so finite
    entries up to DBL_MAX stay finite; every other entry has the bits of
    (a_ij + a_ji) / 2, subnormals and signed zeros included.
    """
    try:
        with np.errstate(over="raise"):
            return (a + a.T) / 2.0
    except FloatingPointError:
        # Some a_ij + a_ji overflowed: halve those pairs before adding them.
        with np.errstate(over="ignore"):
            out = (a + a.T) / 2.0
        wide = np.isinf(out)
        out[wide] = a[wide] / 2.0 + a.T[wide] / 2.0
        return out


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm, rescaled by s = max |a_ij| only if the squares overflow or underflow."""
    with np.errstate(over="ignore"):
        squares = float(np.sum(a * a))
    if not np.finfo(float).tiny <= squares < np.inf and np.isfinite(a).all():
        s = float(np.abs(a).max())
        if s > 0.0:
            return s * float(np.sqrt(np.sum((a / s) ** 2)))
    return float(np.sqrt(squares))


@dataclass(frozen=True, eq=False)
class PowerSums:
    """A spectrum lambda and its power sums, the sufficient statistics of the series.

    ``PowerSums(eigenvalues, K)`` derives the rest from lambda alone:
    ``p[j]`` = sum_i lambda_i^j = tr(Sigma^j) for j = 0..K, the sums of a
    running product of lambda, so ``p[0]`` is d = ``len(eigenvalues)`` and
    ``p[1]`` the trace.  The product runs in blocks of max(1, 2^16 // d)
    powers, one cumulative product and one row sum per block, with the
    bits of a product taken one power at a time; beside its copy of lambda
    it holds one block, at most 2^16 entries or one row of d, so memory
    is O(d) at any K.  No instance holds power sums of another spectrum.
    Like :func:`power_sums`, it rejects fewer than 2 eigenvalues and any
    non-finite one with :class:`MatrixValidationError`.

    Instances are immutable and equal only to themselves.  ``eigenvalues``
    and ``p`` are read-only float64 arrays that no other name can write:
    ``eigenvalues`` is copied unless it already is read-only and owns its
    memory.  The series terms of ``p`` live with the instance, in a private
    memo that holds one pass per Pochhammer parameter a, to order
    min(K, MAX_ORDER) + 1, read-only (:mod:`binghamx.zonal`); no two share it.
    """

    eigenvalues: np.ndarray = field(repr=False)
    K: int
    d: int = field(init=False)
    p: np.ndarray = field(init=False, repr=False)
    _terms: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.K < 1:
            raise InsufficientPowersError(f"K must be >= 1, got {self.K}")
        lam = _read_only(self.eigenvalues)
        if lam.ndim != 1:
            raise MatrixValidationError(f"expected a 1-D spectrum, got shape {lam.shape}")
        if len(lam) < 2:
            raise MatrixValidationError(f"dimension must be >= 2, got {len(lam)}")
        if not np.isfinite(lam).all():
            raise MatrixValidationError("spectrum has non-finite entries")
        p = np.empty(self.K + 1)
        p[0] = len(lam)
        # lambda^j for a block of consecutive j by one cumprod down rows
        # whose first is lambda^(j-1) * lambda and the rest lambda: the same
        # products in the same order as a running product, and each row sum
        # the same pairwise sum as a 1-D sum, so p keeps its bits.
        rows = min(self.K, max(1, 2**16 // len(lam)))
        block = np.empty((rows, len(lam)))
        block[:] = lam
        for j in range(1, self.K + 1, rows):
            n = min(rows, self.K + 1 - j)
            if j > 1:
                np.multiply(block[-1], lam, out=block[0])
                block[1:n] = lam
            np.cumprod(block[:n], axis=0, out=block[:n])
            block[:n].sum(axis=1, out=p[j:j + n])
        p.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "d", len(lam))
        object.__setattr__(self, "p", p)

    def require(self, k: int) -> None:
        """Raise unless powers up to order ``k`` are available."""
        if k > self.K:
            raise InsufficientPowersError(
                f"power sums available up to order {self.K}, need {k}"
            )


def _read_only(a) -> np.ndarray:
    """``a`` as a read-only float64 array that no other name can write:
    ``a`` itself if it already is one that owns its memory, else a copy."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=np.float64)
        a.flags.writeable = False
    return a


def _diagonal(sigma: np.ndarray) -> np.ndarray | None:
    """The diagonal of Sigma if every off-diagonal entry is zero, else None."""
    diag = np.diagonal(sigma)
    # Equal nonzero counts mean a zero off-diagonal, with no d x d temporary.
    return diag if np.count_nonzero(sigma) == np.count_nonzero(diag) else None


def power_sums(sigma: np.ndarray, K: int) -> PowerSums:
    """Compute tr(Sigma^j) for j = 1..K from the eigenvalues of Sigma.

    Dense matrices take one ``eigvalsh`` (lambda ascending), diagonal ones
    their diagonal as it stands; the result is ``PowerSums(lambda, K)``.  Dense
    ones beyond ``DENSE_EIGEN_LIMIT`` are rejected; diagonal ones of any size are fine.

    Parameters
    ----------
    sigma : numpy.ndarray
        Symmetric (d, d) matrix, d >= 2.
    K : int
        Highest power required, K >= 1.

    Returns
    -------
    PowerSums
    """
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise MatrixValidationError(f"expected a square matrix, got shape {sigma.shape}")
    d = sigma.shape[0]
    if d < 2:
        raise MatrixValidationError(f"dimension must be >= 2, got {d}")
    if K < 1:
        raise InsufficientPowersError(f"K must be >= 1, got {K}")
    if not np.isfinite(sigma).all():
        raise MatrixValidationError("matrix has non-finite entries")
    eig = _diagonal(sigma)
    if eig is None:
        if d > DENSE_EIGEN_LIMIT:
            raise MatrixValidationError(
                f"dense matrices are limited to d <= {DENSE_EIGEN_LIMIT} "
                f"(got d = {d}); only diagonal input is supported beyond that"
            )
        try:
            eig = np.linalg.eigvalsh(sigma)
        except np.linalg.LinAlgError as exc:
            raise MatrixValidationError(f"eigenvalue decomposition failed: {exc}") from exc
        if not np.isfinite(eig).all():
            raise MatrixValidationError(
                f"eigenvalues overflow float64: max |sigma_ij| = {float(np.abs(sigma).max())!r} "
                f"at d = {d}; they stay finite while d * max |sigma_ij| <= "
                f"{float(np.finfo(float).max)!r}"
            )
    return PowerSums(eig, K)


@dataclass(frozen=True)
class GradientPolynomial:
    """A matrix polynomial c_0 I + c_1 Sigma + ... + c_L Sigma^L.

    This is the closed form every gradient in the package takes: the
    gradient of a symmetric function of power sums is a polynomial in
    Sigma whose coefficients depend only on the power sums.
    """

    d: int
    coeffs: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def polynomial_values(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """c_0 + c_1 x_k + ... + c_L x_k^L for every entry x_k, by Horner's rule.

    With x the eigenvalues of Sigma these are the eigenvalues of the
    matrix polynomial at Sigma, so ||g(Sigma)||_F = ||g(lambda)||_2 costs
    O(d L).  It is the loop :func:`materialize` runs on diagonal Sigma.
    """
    out = np.full(len(x), coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


@lru_cache(maxsize=64)
def _split(degree: int) -> int:
    """The Paterson-Stockmeyer block size s for a polynomial of degree >= 1.

    The smallest s with the fewest matrix products, (s - 1) + degree // s:
    about sqrt(degree), and 1 (plain Horner) for degree 1 and 2.  No s
    above t = isqrt(degree) + 1 takes fewer products than t: t s > degree
    gives degree / t - degree / s < s - t, so the quotients' floors differ
    by at most s - t.
    """
    return min(range(1, math.isqrt(degree) + 2), key=lambda s: s - 1 + degree // s)


#: Dense :func:`materialize` drops top terms whose summed bound is at most
#: 2^-CUT_BITS of the first-order off-diagonal scale: a quarter of the unit
#: roundoff.
_CUT_BITS = 55


def _significant_degree(coeffs: np.ndarray, sigma: np.ndarray) -> int:
    """The degree L' to which dense :func:`materialize` evaluates g(Sigma).

    The smallest L' >= 1 with sum_{l > L'} |c_l| nu^l <= 2^-55 |c_1| omega,
    where nu = ||Sigma||_F >= ||Sigma||_2 bounds every entry of Sigma^l by
    nu^l and omega = max_{i != j} |sigma_ij|: dropping c_(L'+1) .. c_L moves
    no entry by more than a quarter of the unit roundoff of the first-order
    off-diagonal scale |c_1| omega.  nu and omega come from one |Sigma|, and
    the tail sums from the top down are taken relative to the threshold in
    the log domain, so no power of nu overflows or underflows.  Every term
    is kept (L' = L) when c_1 = 0, omega = 0, nu^2 is outside the normal
    range, or any quantity is not finite; none of these warns.
    """
    degree = len(coeffs) - 1
    if degree < 2:
        return degree
    flat = np.abs(sigma).reshape(-1)
    with np.errstate(all="ignore"):
        nu2 = float(np.vdot(flat, flat))
        flat[::sigma.shape[0] + 1] = 0.0
        omega = float(flat.max())
        c1 = abs(float(coeffs[1]))
        if not (sys.float_info.min <= nu2 < math.inf and omega > 0.0 and 0.0 < c1 < math.inf):
            return degree
        # |c_l| nu^l / threshold for l = L .. 2 through log2, then the tails from the top.
        tail = np.abs(coeffs[:1:-1])
        np.log2(tail, out=tail)
        tail += np.arange(degree, 1, -1) * (0.5 * math.log2(nu2)) + (
            _CUT_BITS - math.log2(c1) - math.log2(omega))
        np.exp2(tail, out=tail)
        np.add.accumulate(tail, out=tail)
    if not math.isfinite(tail[-1]):
        return degree
    return degree - int(np.count_nonzero(tail <= 1.0))


def materialize(g: GradientPolynomial, sigma: np.ndarray) -> np.ndarray:
    """Evaluate a :class:`GradientPolynomial` at Sigma.

    Dense Sigma first drops the top terms that cannot move an entry by
    more than 2^-55 |c_1| omega, omega = max_{i != j} |sigma_ij|: it
    evaluates c_0 .. c_L' for the smallest L' >= 1 with
    sum_{l > L'} |c_l| ||Sigma||_F^l <= 2^-55 |c_1| omega
    (:func:`_significant_degree`).  Every term stays where that rule
    cannot show a cut safe: c_1 = 0, omega = 0, ||Sigma||_F^2 outside the
    normal range, or a quantity that is not finite.  The bound holds because
    |(Sigma^l)_ij| <= ||Sigma||_2^l <= ||Sigma||_F^l.  ``g.coeffs`` is not
    changed.

    It then takes the Paterson-Stockmeyer scheme (Paterson &
    Stockmeyer, SIAM J. Comput. 1973; Higham, *Functions of Matrices*,
    2008, sec. 4.2).  For degree L and block size s ~ sqrt(L) it forms
    Sigma^2 .. Sigma^s once and runs Horner's rule in Sigma^s over the
    blocks B_j = c_{js} I + c_{js+1} Sigma + ... + c_{js+s-1} Sigma^(s-1):
    (s - 1) + L // s matrix products, 11 instead of 38 at L = 38.  A
    gradient at d = 100, m = 40, ||Sigma||_F = 1 keeps L' = 11: 5 products.
    Sigma .. Sigma^(s-1) and a slot for the carried product share one
    (s, d, d) array, so each step is ``acc @ Sigma^s`` into that slot, one
    ``np.dot`` of (c_{js+1}, .., c_{js+s-1}, 1.0) over the stack into acc,
    and c_{js} added to the diagonal; the top block is the same dot over
    its own powers.  The order of each gemv's additions is the BLAS
    kernel's, so results move in their last bits with the BLAS build and
    thread count, as the products' do.  At most s + 2 d x d arrays beyond
    Sigma are alive at once: the stack, Sigma^s and the accumulator.
    Exact zeros of a product are +0.0, as in dense Horner; for L <= 2 the
    split is s = 1, the dot's weight is 1.0 and the steps are Horner's.
    The result goes through :func:`symmetrize` to remove accumulation
    asymmetry, so a finite entry above DBL_MAX / 2 stays finite.

    Diagonal Sigma runs Horner's rule on its diagonal in O(d m) through
    :func:`polynomial_values`.  Its off-diagonal entries are exact zeros,
    also past overflow, where dense products would turn them to nan.
    Diagonal results and degree 0's c_0 I are symmetric as they stand
    and are returned without the mirror sum.

    A Sigma of any shape other than (d, d) raises
    :class:`DimensionMismatchError` naming its shape, before any product.
    """
    if np.shape(sigma) != (g.d, g.d):
        raise DimensionMismatchError(
            f"polynomial is for d = {g.d}, matrix has shape {np.shape(sigma)}"
        )
    c = g.coeffs
    # Degree 0 takes no product, and c_0 I keeps the sign of its zeros.
    if len(c) == 1:
        return c[0] * np.eye(g.d)
    diag = _diagonal(sigma)
    if diag is not None:
        return np.diag(polynomial_values(c, diag))
    sigma = np.asanyarray(sigma, dtype=np.float64)
    c = c[:_significant_degree(c, sigma) + 1]
    d, degree = g.d, len(c) - 1
    s = _split(degree)
    # stack[:s - 1] holds Sigma .. Sigma^(s-1), stack[s - 1] the carried product.
    stack = np.empty((s, d, d))
    sigma_s = sigma
    if s > 1:
        stack[0] = sigma
        for i in range(1, s - 1):
            np.matmul(stack[i - 1], sigma, out=stack[i])
        sigma_s = stack[s - 2] @ sigma
    terms = stack.reshape(s, -1)
    acc = np.empty_like(sigma, order="C")
    flat = acc.reshape(-1)  # C order makes this a view: np.dot writes acc through it
    last = degree // s * s
    if degree > last:
        np.dot(c[last + 1:], terms[:degree - last], out=flat)
    else:
        acc.fill(0.0)
    flat[::d + 1] += c[last]
    w = np.ones(s)
    for j in range(last - s, -1, -s):
        np.matmul(acc, sigma_s, out=stack[s - 1])
        w[:-1] = c[j + 1:j + s]
        np.dot(w, terms, out=flat)
        flat[::d + 1] += c[j]
    del stack, terms, sigma_s
    return symmetrize(acc)
