"""Independent ground-truth generators used to validate the series code.

Nothing here shares evaluation machinery with the series modules: the
Monte-Carlo integrators sample the sphere directly, the scalar-series
oracle :func:`kummer_partial_sum`, the rank-one Psi
1F1(1/2; d/2; theta), uses its own term recurrence, and the
finite-difference gradient only calls the scalar function it is given.

Block b of a run draws from PCG64(SeedSequence([seed, b])) with numpy's
ziggurat standard_normal, and blocks are reduced in index order, so
identical (seed, n, Sigma) draw the same samples on any machine and give
bit-identical estimates on one numpy/BLAS build and BLAS thread count.
The 50 blocks double as the jackknife resampling groups.

Sampling runs in the eigenbasis.  The uniform measure on the sphere is
rotation-invariant, so for Sigma = V diag(lambda) V' the coordinates
y = V'x of a uniform x are uniform too and x' Sigma x = sum_i lambda_i
y_i^2.  A uniform block is read directly as y = z / |z| for Gaussian rows
z, so q = y*y = (z*z) / r with r = |z|^2, and Cov(X) = V diag(E_w[q]) V'.
The weights depend on y only through q, so the sign flips y_i -> -y_i
leave them unchanged and E_w[y_i y_j] = 0 for i != j.  Averaging each
sample over those flips, a Rao-Blackwellization, leaves the diagonal as
it is and makes the off-diagonal eigenbasis entries exact zeros: no
noise there, and no bias.

One loop, :func:`_moments`, runs over the blocks.  A pool worker,
:func:`_eigen_block`, evaluates a whole block: it draws z in chunks of
about CHUNK_BYTES into one reused buffer, squares each in place, and
returns only four results: the sum of the weights w = exp(q @ lambda - s),
shifted by the block's largest exponent s <= lambda_max, the sum of their
squares, the d-vector numerator w @ q, and s.  Two pool workers evaluate
blocks b + 1 and b + 2 while the caller reduces block b; each block has
its own generator and the reductions stay in index order, so the results
do not depend on that overlap.  A block costs O(size * d), calls no BLAS
routine, and no array of size * d entries exists: a draw in flight holds
one chunk, 8 bytes per row of its block (the exponents that become the
weights in place) and two vectors of one float per chunk row (r, and
one reused buffer in which the shifted exponents become their weights),
about 2 CHUNK_BYTES / d bytes, which is not small at small d.  Only O(d)
values cross threads, so the memory of a pass does not grow with n * d.
The shift keeps every weight at most 1 and the largest weight of each
block at exactly 1, so neither the weights nor their squares overflow,
and a matrix fails only when Psi itself exceeds float64.
:func:`_moments` brings the blocks to a common shift and scales Psi and
its standard error back; the covariance ratio does not change.

:func:`mc_eigen_moments` takes lambda alone.  ``verify`` runs it on the
lambda that ``power_sums`` forms, and the series side of entry k is
T g(lambda_k), the covariance product at diag(lambda): ``verify``
computes no eigenvectors.  :func:`mc_moments` takes a dense Sigma: one
``eigh`` of its symmetric part, the same pass on lambda, so its Psi is
that of :func:`mc_eigen_moments` bit for bit, and one mapping
V diag(.) V' of the covariance and of each delete-one-block estimate of
the jackknife.  :func:`mc_covariance` returns its second half;
:func:`mc_norm_const` runs the same ``eigh`` and pass and skips the
mapping.

Every compared check of ``verify`` is tested at the family-wise
false-alarm rate :data:`FAMILY_ALPHA` (:func:`family_threshold`).  Each
estimate carries the effective sample size (sum w)^2 / sum w^2 of its
weights; ``verify`` calls psi inconclusive below MIN_ESS of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import OrderRangeError, SamplingOverflowError

#: Number of sampling blocks; also the jackknife group count.
BLOCKS = 50

#: Sampling blocks drawn ahead of the one being reduced, one pool worker each.
DRAWS_IN_FLIGHT = 2

#: Bytes of Gaussians an eigenbasis worker draws at a time (at least two rows).
CHUNK_BYTES = 1 << 20

#: Family-wise false-alarm rate of the ``verify`` checks.
FAMILY_ALPHA = 1e-3

#: ``verify`` calls psi inconclusive below this effective sample size.  The
#: family threshold takes the t law of a BLOCKS-group jackknife, which needs
#: the weights spread over the groups; the groups' own effective count
#: (sum W_b)^2 / sum W_b^2 never exceeds that of the samples.
MIN_ESS = BLOCKS


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its standard error.

    ``value`` and ``std_error`` are floats for scalar targets and arrays
    of the target's shape (entrywise standard errors) otherwise.  ``ess``
    is the effective sample size (sum w)^2 / sum w^2 of the weights behind
    the estimate (Owen, *Monte Carlo theory, methods and examples*, 2013,
    ch. 9): n for constant weights, near 1 when one sample carries them.
    It is nan when not known.
    """

    value: object
    std_error: object
    n_samples: int
    seed: int
    ess: float = math.nan


def _check_sampling_args(n: int, seed: int) -> None:
    if n < 1000:
        raise OrderRangeError(f"need at least 1000 samples, got {n}")
    if seed < 0:
        raise OrderRangeError(f"seed must be a nonnegative integer, got {seed}")


def _block_sizes(n: int) -> list[int]:
    base, rem = divmod(n, BLOCKS)
    return [base + 1] * rem + [base] * (BLOCKS - rem)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """The generator of block b: PCG64(SeedSequence([seed, b]))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, block])))


def _chunk_rows(d: int) -> int:
    """Rows of a chunk of about CHUNK_BYTES Gaussians, at least two."""
    return max(2, CHUNK_BYTES // (8 * d))


def _normal_chunks(d: int, size: int, seed: int, block: int, rows: int):
    """The Gaussians of block b as (start, chunk) pairs, chunks of ``rows`` rows.

    Each chunk is filled in place in one reused buffer, so it is
    overwritten by the next; in order, the chunks are bit for bit the rows
    of the block generator's draw of the whole block at once,
    ``_block_rng(seed, block).standard_normal((size, d))``.  A last chunk
    of one row joins the chunk before it: einsum reduces a lone row of more
    than 8192 entries in another order than the same row inside a larger
    array.
    """
    rng = _block_rng(seed, block)
    rows = min(rows, size)
    buf = np.empty((rows + (size % rows == 1), d))
    start = 0
    while start < size:
        stop = size if size - start <= len(buf) else start + rows
        chunk = buf[: stop - start]
        rng.standard_normal(out=chunk)
        yield start, chunk
        start = stop


def _finite(w: np.ndarray) -> np.ndarray:
    """The weights w, unless one of them is nan: a lambda or an exponent was not finite."""
    if not np.isfinite(w).all():
        raise SamplingOverflowError(
            "exp(x' Sigma x) produced non-finite weights; the matrix is far "
            "outside any usable regime"
        )
    return w


def _eigen_block(
    eigenvalues: np.ndarray, size: int, seed: int, block: int
) -> tuple[float, float, np.ndarray, float]:
    """Block b's sum of weights, sum of squared weights, numerator and shift.

    A pool worker evaluates the block.  With z the block's Gaussians and
    r = |z|^2 per row, the uniform eigen-coordinates are y = z / sqrt(r)
    and q = y*y = (z*z) / r, and the exponents are e = (z*z) @ lambda / r
    = x' Sigma x.  The weights are exp(e - s), shifted by the block's
    largest exponent s <= lambda_max, and the numerator is
    w @ q = (w / r) @ (z*z).

    The Gaussians come in chunks of about CHUNK_BYTES (:func:`_normal_chunks`),
    squared in place in one reused buffer; only e, one value per row,
    outlives its chunk.  Chunk c forms its weights shifted by its own
    largest exponent s_c and adds their numerator, times e^(s_c - s), to a
    running sum kept at the largest shift s so far; at the end e becomes
    the weights in place, and then their squares, for sum w and sum w^2.
    So a worker holds one chunk, 8 bytes per row of the block and 16 per
    chunk row, about 2 CHUNK_BYTES / d: r, and one reused buffer in which
    part - shift becomes w in place.  Only those two floats, the d-vector
    numerator and s leave it.
    Each e and s equal those of the whole block at once, so w and both
    sums are bit for bit the same; the numerator moves in its last digits
    only where a block has more than one chunk.

    The products run through einsum, not BLAS: with more than one BLAS
    thread a multithreaded matrix-vector product of a block is several
    times slower than a single-threaded loop, and its threads compete
    with the pool workers for the cores.
    """
    d = len(eigenvalues)
    e = np.empty(size)
    buf = np.empty(min(_chunk_rows(d), size) + 1)  # + 1: a lone last row joins its chunk
    top, num = -math.inf, np.zeros(d)
    for start, z in _normal_chunks(d, size, seed, block, _chunk_rows(d)):
        z *= z
        r = np.einsum("ij->i", z)
        part = e[start : start + len(z)]
        np.einsum("ij,j->i", z, eigenvalues, out=part)
        part /= r
        shift = float(part.max())
        w = buf[: len(z)]
        with np.errstate(invalid="ignore"):
            _finite(np.exp(np.subtract(part, shift, out=w), out=w))
        if shift > top:
            num *= math.exp(top - shift)
            top = shift
        w *= math.exp(shift - top)
        w /= r
        num += np.einsum("i,ij->j", w, z)
    e -= top
    w = np.exp(e, out=e)
    den = float(w.sum())
    w *= w
    return den, float(w.sum()), num, top


def _moments(
    eigenvalues: np.ndarray, n: int, seed: int
) -> tuple[McEstimate, np.ndarray, np.ndarray]:
    """Psi, the ratio estimate of E_w[q] and its jackknife deviations, in one pass.

    Pool workers run :func:`_eigen_block` on the blocks: two of them
    evaluate blocks b + 1 and b + 2 while block b is reduced, so exactly
    DRAWS_IN_FLIGHT draws are in flight; a block that raises, in a worker
    or in the reduction, waits for those draws and stops the workers on
    leaving the pool.  Reducing block b is storing its four results: each
    worker sums its own weights and their squares, so no per-row array
    leaves it.

    At the end every block's sums are brought to the largest shift S by
    the factor e^(s - S), and Psi and its standard error are scaled back
    by e^S.  The ratio E_w[q] does not depend on S, nor does the effective
    sample size (sum w)^2 / sum w^2 that Psi carries.  Each block's
    largest weight is 1, so the sum of w^2 lies in [1, n].

    The third result holds the delete-one-block ratios less their mean,
    one row per block, built in place in the per-block numerators: the
    jackknife standard error of a linear map of E_w[q] is that of the same
    map applied to each row.
    """
    _check_sampling_args(n, seed)
    # Imported here so that importing the package starts no thread machinery.
    from concurrent.futures import ThreadPoolExecutor

    sizes = _block_sizes(n)
    nums = np.empty((BLOCKS, len(eigenvalues)))
    dens, squares, shifts = np.empty(BLOCKS), np.empty(BLOCKS), np.empty(BLOCKS)
    with ThreadPoolExecutor(DRAWS_IN_FLIGHT) as pool:

        def submit(b: int):
            # The worker is looked up per call, so that tests can substitute one.
            return pool.submit(_eigen_block, eigenvalues, sizes[b], seed, b)

        ahead = [submit(b) for b in range(DRAWS_IN_FLIGHT)]
        for b in range(BLOCKS):
            drawn = ahead.pop(0).result()
            if b + DRAWS_IN_FLIGHT < BLOCKS:
                ahead.append(submit(b + DRAWS_IN_FLIGHT))
            dens[b], squares[b], nums[b], shifts[b] = drawn

    top = float(shifts.max())
    scale = np.exp(shifts - top)
    dens *= scale
    squares *= scale * scale
    # Python's sum adds in block order, like a running sum.
    total, total_sq = sum(dens.tolist()), sum(squares.tolist())
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    se = float(np.sqrt(var / n))
    # e^top as two factors: a shifted block's largest weight is 1, so Psi >= e^top / n,
    # which may fit in float64 where e^top does not.
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.exp(top / 2.0)
        value, se = mean * half * half, se * half * half
    if not np.isfinite(value):
        raise SamplingOverflowError(
            f"Psi exceeds float64: the sample mean of exp(x' Sigma x - {top:.17g}) is {mean:.6g}"
        )
    ess = (total / math.sqrt(total_sq)) ** 2
    psi = McEstimate(value=float(value), std_error=float(se), n_samples=n, seed=seed, ess=ess)
    nums *= scale[:, None]
    num_tot = nums.sum(axis=0)
    den_tot = float(dens.sum())
    np.subtract(num_tot[None], nums, out=nums)
    nums /= (den_tot - dens)[:, None]
    nums -= nums.mean(axis=0)
    return psi, num_tot / den_tot, nums


def _jackknife_se(squared_deviations: np.ndarray) -> np.ndarray:
    """Jackknife standard errors, in place, from the sum over the blocks of squared deviations."""
    squared_deviations *= (BLOCKS - 1) / BLOCKS
    return np.sqrt(squared_deviations, out=squared_deviations)


def _eigen_map(vecs: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """V diag(diagonal) V'."""
    return (vecs * diagonal) @ vecs.T


def _dense_pass(sigma: np.ndarray, n: int, seed: int):
    """V from one ``eigh`` of (Sigma + Sigma') / 2, then :func:`_moments` on its lambda."""
    sigma = np.asarray(sigma, dtype=float)
    # LAPACK may fail to converge on a nan rather than return one.
    if not np.isfinite(sigma).all():
        raise SamplingOverflowError("Sigma has a non-finite entry, so exp(x' Sigma x) is not finite")
    # Halved before the sum, which cannot then overflow.
    lam, vecs = np.linalg.eigh(sigma / 2.0 + sigma.T / 2.0)
    return (vecs, *_moments(lam, n, seed))


def mc_norm_const(sigma: np.ndarray, n: int, seed: int) -> McEstimate:
    """Sample mean of exp(x' Sigma x) over the uniform sphere.

    Returns the estimate of the normalizing constant and the standard
    error of the mean: the Psi of :func:`mc_moments` bit for bit, from
    the same ``eigh`` and pass without the covariance mapping.
    """
    return _dense_pass(sigma, n, seed)[1]


def mc_covariance(sigma: np.ndarray, n: int, seed: int) -> McEstimate:
    """Ratio estimator of Cov(X) = E[x x' w] / E[w], w = exp(x' Sigma x).

    Entrywise standard errors come from a delete-one-block jackknife
    over the 50 sampling blocks, which respects the ratio form of the
    estimator.  The estimate has unit trace up to float roundoff.  This
    is the second half of :func:`mc_moments`.
    """
    return mc_moments(sigma, n, seed)[1]


def mc_moments(sigma: np.ndarray, n: int, seed: int) -> tuple[McEstimate, McEstimate]:
    """The normalizing constant and Cov(X) of a dense Sigma, in one pass.

    x' Sigma x depends only on the symmetric part (Sigma + Sigma') / 2,
    so that is what one ``eigh`` factors as V diag(lambda) V'.  The pass
    is that of :func:`mc_eigen_moments` on lambda, so Psi is its Psi bit
    for bit, and the covariance is V diag(E_w[q]) V'.  Its entrywise
    standard errors map each delete-one-block deviation delta_b the same
    way and sum the squares of V diag(delta_b) V' over the blocks, one
    d x d product at a time: O(BLOCKS d^3), and a few d x d arrays beside
    the memory of the pass.  Entries off the diagonal in the eigenbasis
    are exact zeros there, with standard error 0 (see the module
    docstring).  For diagonal Sigma, where ``eigh`` returns a signed
    permutation V, so are the off-diagonal entries and their standard
    errors.
    """
    vecs, psi, value, deviations = _dense_pass(sigma, n, seed)
    squares = np.zeros_like(vecs)
    for delta in deviations:
        squares += _eigen_map(vecs, delta) ** 2
    se = _jackknife_se(squares)
    return psi, replace(psi, value=_eigen_map(vecs, value), std_error=se)


def mc_eigen_moments(
    eigenvalues: np.ndarray, n: int, seed: int
) -> tuple[McEstimate, McEstimate]:
    """The normalizing constant and Cov(X) in the eigenbasis, in one pass.

    ``eigenvalues`` are those of Sigma = V diag(lambda) V'.  Each uniform
    block is read as the eigen-coordinates y, which is exact in law by
    rotation invariance, and weighted by exp(q @ lambda), q = y*y,
    computed shifted by the block's largest exponent so that no weight
    overflows.  Each of the DRAWS_IN_FLIGHT draws in flight holds one chunk
    of about CHUNK_BYTES Gaussians, 8 bytes per row of its block and 24
    bytes per row of its chunk, and the jackknife keeps BLOCKS numerators
    of d entries.  Returns the estimate of Psi and the d-vector E_w[q]
    with jackknife errors:
    Cov(X) = V diag(E_w[q]) V', so entry k estimates v_k' Cov(X) v_k.
    The entries sum to 1 up to float roundoff.  Raises
    :class:`SamplingOverflowError` only when the estimate of Psi itself
    does not fit in float64, or when a weight is nan.
    """
    psi, value, deviations = _moments(np.asarray(eigenvalues, dtype=float), n, seed)
    deviations *= deviations
    return psi, replace(psi, value=value, std_error=_jackknife_se(np.sum(deviations, axis=0)))


def _t_tail(t: float, nu: int) -> float:
    """P(T > t) for Student's t with an odd number nu of degrees of freedom, t >= 1.

    With theta = atan(t / sqrt(nu)) and c = cos(theta), the closed form
    P(|T| <= t) = (2/pi) (theta + sin(theta) sum_{k < (nu-1)/2} a_k
    c^(2k+1)), a_k = (2 4 ... 2k) / (3 5 ... (2k+1)) (Abramowitz & Stegun
    26.7.3), is a partial sum of a series whose full sum is pi/2, since
    sum_k a_k c^(2k+1) = arcsin(c) / sin(theta) = (pi/2 - theta) /
    sin(theta).  The tail is therefore the series' remainder, a sum of
    positive terms with no cancellation even where it is tiny.
    """
    if nu < 1 or nu % 2 == 0 or not t >= 1.0:
        raise OrderRangeError(f"need an odd nu >= 1 and t >= 1, got nu = {nu}, t = {t}")
    c2 = nu / (nu + t * t)
    k = (nu - 1) // 2
    term = math.sqrt(c2)
    for j in range(1, k + 1):
        term *= 2.0 * j / (2.0 * j + 1.0) * c2
    total = 0.0
    while term > 1e-17 * total:
        total += term
        k += 1
        term *= 2.0 * k / (2.0 * k + 1.0) * c2
    return math.sqrt(1.0 - c2) * total / math.pi


def t_upper_quantile(q: float, nu: int) -> float:
    """The t with P(T > t) = q for Student's t with odd nu, by bisection.

    Needs 0 < q < P(T > 1), which holds for every q below 0.158 (the
    normal tail at 1) whatever nu.
    """
    if not 0.0 < q < _t_tail(1.0, nu):
        raise OrderRangeError(f"tail probability must lie in (0, P(T > 1)), got {q}")
    lo, hi = 1.0, 2.0
    while _t_tail(hi, nu) > q:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _t_tail(mid, nu) > q:
            lo = mid
        else:
            hi = mid


def family_threshold(checks: int) -> float:
    """Per-check multiple of the standard error for ``checks`` compared checks.

    Bonferroni over the checks at the family-wise rate FAMILY_ALPHA, two
    sided, with the t law of a BLOCKS-group jackknife: the t_(BLOCKS-1)
    quantile at 1 - FAMILY_ALPHA / (2 checks).  That is 3.86 for 3
    checks, 5.13 for 201 and 5.59 for 1001.
    """
    if checks < 1:
        raise OrderRangeError(f"need at least one check, got {checks}")
    return t_upper_quantile(FAMILY_ALPHA / (2.0 * checks), BLOCKS - 1)


def kummer_partial_sum(b: float, theta: float, terms: int) -> float:
    """Sum of the first ``terms`` terms (orders 0..terms-1) of the series."""
    if not b > 0:
        raise OrderRangeError(f"b must be positive, got {b}")
    if terms < 1:
        raise OrderRangeError(f"terms must be >= 1, got {terms}")
    total = 1.0
    term = 1.0
    for k in range(terms - 1):
        term *= (0.5 + k) / (b + k) * theta / (k + 1)
        total += term
    return total


def fd_gradient(
    f: Callable[[np.ndarray], float], sigma: np.ndarray, h: float
) -> np.ndarray:
    """Central-difference gradient under the symmetric-matrix convention.

    Off-diagonal perturbations move sigma_ij and sigma_ji together and
    the difference quotient is halved, matching the operator
    (1 + delta_ij)/2 * d/dsigma_ij, so fd_gradient(tr, Sigma, h) = I.
    """
    if not h > 0:
        raise OrderRangeError(f"h must be positive, got {h}")
    d = sigma.shape[0]
    g = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = 1.0
            diff = (f(sigma + h * e) - f(sigma - h * e)) / (2.0 * h)
            g[i, j] = g[j, i] = diff if i == j else 0.5 * diff
    return g
