"""Independent ground-truth generators used to validate the series code.

Nothing here shares evaluation machinery with the series modules: the
Monte-Carlo integrators sample the sphere directly, the scalar
hypergeometric series uses its own term recurrence, and the
finite-difference gradient only calls the scalar function it is given.

Block b of a run draws from PCG64(SeedSequence([seed, b])) with numpy's
ziggurat standard_normal, and blocks are reduced in index order, so
identical (seed, n, Sigma) draw the same samples on any machine and give
bit-identical estimates on one numpy/BLAS build and BLAS thread count.
The 50 blocks double as the jackknife resampling groups.

Every estimator is one loop, :func:`_moments`, over the blocks, and each
path comes in two halves: a BLAS-free worker half that draws block b and
does what it can without BLAS, and a main half that turns what the
worker returned into the block's weights and numerator.  Two pool
workers run the halves of blocks b + 1 and b + 2 while the caller runs
the main half of block b and reduces it; each block has its own
generator and the reductions stay in index order, so the results do not
depend on that overlap.  The loop keeps the running sums of w and w^2
for Psi and the per-block numerators and sums of w for the jackknife.

The dense path's worker half is :func:`_sphere_block`, a uniform block
x; its main half, :func:`_dense_block`, forms the weights exp(x' Sigma x)
and the numerator x'(w x) with BLAS products, which stay on the calling
thread.  :func:`mc_moments` runs it and returns both estimates.
:func:`mc_norm_const` and :func:`mc_covariance` each return one of them
from that same pass (the Psi pass forms no numerator), so they equal
:func:`mc_moments` bit for bit.

``verify`` runs the eigenbasis path through :func:`mc_eigen_moments`.
The uniform measure on the sphere is rotation-invariant, so for Sigma =
V diag(lambda) V' the coordinates y = V'x of a uniform x are uniform too
and x' Sigma x = sum_i lambda_i y_i^2.  A uniform block is read directly
as y = z / |z| for Gaussian rows z, so q = y*y = (z*z) / r with r =
|z|^2, and Cov(X) = V diag(E_w[q]) V'.  The worker half,
:func:`_eigen_block`, evaluates the whole block: it draws z in chunks of
about CHUNK_BYTES into one reused buffer, squares each in place, and
returns only the weights exp(q @ lambda - s), one per row, shifted by
the block's largest exponent s <= lambda_max, the d-vector numerator
w @ q and s; its main half passes them on.  A block costs O(size * d)
instead of two O(size * d^2) products, and no array of size * d entries
exists: a draw in flight holds one chunk and the block's per-row vectors,
16 bytes a row with the caller's weights and their squares, so the
memory of a pass does not grow with n * d.  The shift keeps every
weight at most 1 and the largest weight of each block at exactly 1, so
neither the weights nor their squares overflow, and a matrix fails only
when Psi itself exceeds float64.  :func:`_moments`
brings the blocks to a common shift and scales Psi and its standard
error back; the covariance ratio does not change.  Only lambda is
needed, the one ``power_sums`` forms, and the series side of entry k is
T g(lambda_k), the covariance product at diag(lambda): ``verify``
computes no eigenvectors.

Every compared check of ``verify`` is tested at the family-wise
false-alarm rate :data:`FAMILY_ALPHA` (:func:`family_threshold`).  Each
estimate carries the effective sample size (sum w)^2 / sum w^2 of its
weights; ``verify`` calls psi inconclusive below MIN_ESS of them.  The
dense path's weights are not shifted, and it raises
:class:`SamplingOverflowError` when their squares exceed float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, OrderRangeError, SamplingOverflowError

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


def _normal_block(d: int, size: int, seed: int, block: int) -> np.ndarray:
    """The standard Gaussians of block b, a (size, d) array."""
    return _block_rng(seed, block).standard_normal((size, d))


def _chunk_rows(d: int) -> int:
    """Rows of a chunk of about CHUNK_BYTES Gaussians, at least two."""
    return max(2, CHUNK_BYTES // (8 * d))


def _normal_chunks(d: int, size: int, seed: int, block: int, rows: int):
    """The Gaussians of block b as (start, chunk) pairs, chunks of ``rows`` rows.

    Each chunk is filled in place in one reused buffer, so it is
    overwritten by the next; in order, the chunks are the rows of
    :func:`_normal_block` bit for bit.  A last chunk of one row joins the
    chunk before it: einsum reduces a lone row of more than 8192 entries
    in another order than the same row inside a larger array.
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


def _sphere_block(d: int, size: int, seed: int, block: int) -> np.ndarray:
    """Uniform sphere samples: normalized rows of standard Gaussians."""
    z = _normal_block(d, size, seed, block)
    norms = np.sqrt(np.sum(z * z, axis=1))
    return z / norms[:, None]


def _finite(w: np.ndarray) -> np.ndarray:
    """The weights w, unless one of them overflowed or is nan."""
    if not np.isfinite(w).all():
        raise SamplingOverflowError(
            "exp(x' Sigma x) produced non-finite weights; the matrix is far "
            "outside any usable regime"
        )
    return w


def _weights(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """exp(x' Sigma x) per row of x; overflow, or nan from inf - inf, raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(np.exp(np.sum((x @ sigma) * x, axis=1)))


def _dense_draw(sigma: np.ndarray, size: int, seed: int, block: int) -> np.ndarray:
    """The worker half of the dense path: the uniform block x."""
    return _sphere_block(sigma.shape[0], size, seed, block)


def _dense_block(
    x: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The weights exp(x' Sigma x) of a uniform block x, unshifted, and its numerator x'(w x)."""
    w = _weights(x, sigma)
    return w, x.T @ (x * w[:, None]), 0.0


def _eigen_block(
    eigenvalues: np.ndarray, size: int, seed: int, block: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """The worker half of the eigenbasis path: block b's weights, numerator and shift.

    With z the block's Gaussians and r = |z|^2 per row, the uniform
    eigen-coordinates are y = z / sqrt(r) and q = y*y = (z*z) / r, and
    the exponents are e = (z*z) @ lambda / r = x' Sigma x.  The weights
    are exp(e - s), shifted by the block's largest exponent s <= lambda_max,
    and the numerator is w @ q = (w / r) @ (z*z).

    The Gaussians come in chunks of about CHUNK_BYTES (:func:`_normal_chunks`),
    squared in place in one reused buffer; only e, one value per row,
    outlives its chunk.  Chunk c forms its weights shifted by its own
    largest exponent s_c and adds their numerator, times e^(s_c - s), to a
    running sum kept at the largest shift s so far; at the end e becomes
    the weights in place.  So a worker holds one chunk and 8 bytes per row
    of the block, whatever d, and only w, the d-vector numerator and s
    leave it.  Each e and s
    equal those of the whole block at once, so w is bit for bit the same;
    the numerator moves in its last digits only where a block has more
    than one chunk.

    The products run through einsum, not BLAS: with more than one BLAS
    thread a multithreaded matrix-vector product of a block is several
    times slower than a single-threaded loop, and its threads compete
    with the pool workers for the cores.
    """
    d = len(eigenvalues)
    e = np.empty(size)
    top, num = -math.inf, np.zeros(d)
    for start, z in _normal_chunks(d, size, seed, block, _chunk_rows(d)):
        z *= z
        r = np.einsum("ij->i", z)
        part = e[start : start + len(z)]
        np.einsum("ij,j->i", z, eigenvalues, out=part)
        part /= r
        shift = float(part.max())
        with np.errstate(invalid="ignore"):
            w = _finite(np.exp(part - shift))
        if shift > top:
            num *= math.exp(top - shift)
            top = shift
        w *= math.exp(shift - top)
        w /= r
        num += np.einsum("i,ij->j", w, z)
    e -= top
    return np.exp(e, out=e), num, top


def _evaluated(drawn: tuple[np.ndarray, np.ndarray, float], eigenvalues: np.ndarray):
    """The main half of the eigenbasis path: the worker evaluated the block."""
    return drawn


def _moments(
    data: np.ndarray, n: int, seed: int, draw, block
) -> tuple[McEstimate, McEstimate | None]:
    """Psi and the ratio estimate of E_w[numerator], in one pass over the blocks.

    ``draw(data, size, seed, b)`` is a path's worker half: it runs in a
    pool worker, draws block b and calls no BLAS routine.  ``block(drawn,
    data)`` is its main half: it runs on the calling thread and maps what
    ``draw`` returned to the block's weights w = exp(x' Sigma x - s), its
    numerator and its shift s; the numerator is None when only Psi is
    wanted, and then the second estimate is None.  Two pool workers run
    the draws of blocks b + 1 and b + 2 while block b is finished and
    reduced, so exactly DRAWS_IN_FLIGHT draws are in flight; a block that
    raises, in either half, waits for those draws and stops the workers
    on leaving the pool.

    At the end every block's sums are brought to the largest shift S by
    the factor e^(s - S), which is 1 for unshifted blocks, and Psi and
    its standard error are scaled back by e^S.  The covariance ratio does
    not depend on S.  Both estimates carry the effective sample size
    (sum w)^2 / sum w^2, which does not depend on S either.  The jackknife
    builds the delete-one-block ratios in place in the per-block
    numerators, so only one array of that shape is alive, whatever the
    shape of a numerator.  When the sum of w^2 exceeds float64, which only
    unshifted weights can do, the error names the largest exponent.
    """
    _check_sampling_args(n, seed)
    # Imported here so that importing the package starts no thread machinery.
    from concurrent.futures import ThreadPoolExecutor

    sizes = _block_sizes(n)
    nums = None
    dens, squares, shifts, peaks = (np.empty(BLOCKS) for _ in range(4))
    with ThreadPoolExecutor(DRAWS_IN_FLIGHT) as pool:

        def submit(b: int):
            return pool.submit(draw, data, sizes[b], seed, b)

        ahead = [submit(b) for b in range(DRAWS_IN_FLIGHT)]
        for b in range(BLOCKS):
            drawn = ahead.pop(0).result()
            if b + DRAWS_IN_FLIGHT < BLOCKS:
                ahead.append(submit(b + DRAWS_IN_FLIGHT))
            w, num, shifts[b] = block(drawn, data)
            dens[b] = float(w.sum())
            with np.errstate(over="ignore"):
                squares[b] = float((w * w).sum())
            peaks[b] = float(w.max())
            if num is not None:
                if nums is None:
                    nums = np.empty((BLOCKS,) + num.shape)
                nums[b] = num

    top = float(shifts.max())
    scale = np.exp(shifts - top)
    dens *= scale
    squares *= scale * scale
    # Python's sum adds in block order, like a running sum.
    total, total_sq = sum(dens.tolist()), sum(squares.tolist())
    if not math.isfinite(total_sq):
        exponent = max(math.log(p) + s for p, s in zip(peaks.tolist(), shifts.tolist()) if p > 0)
        raise SamplingOverflowError(
            f"the sum of the squared weights exp(2 x' Sigma x) exceeds float64: "
            f"x' Sigma x reaches {exponent:.6g}"
        )
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    # Only unshifted weights can all square to 0.
    ess = (total / math.sqrt(total_sq)) ** 2 if total_sq > 0.0 else math.nan
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
    psi = McEstimate(value=float(value), std_error=float(se), n_samples=n, seed=seed, ess=ess)
    if nums is None:
        return psi, None
    nums *= scale.reshape((BLOCKS,) + (1,) * (nums.ndim - 1))
    num_tot = nums.sum(axis=0)
    den_tot = float(dens.sum())
    value = num_tot / den_tot
    np.subtract(num_tot[None], nums, out=nums)
    nums /= (den_tot - dens).reshape((BLOCKS,) + (1,) * (nums.ndim - 1))
    nums -= nums.mean(axis=0)
    nums *= nums
    se = np.sqrt((BLOCKS - 1) / BLOCKS * np.sum(nums, axis=0))
    return psi, McEstimate(value=value, std_error=se, n_samples=n, seed=seed, ess=ess)


def mc_norm_const(sigma: np.ndarray, n: int, seed: int) -> McEstimate:
    """Sample mean of exp(x' Sigma x) over the uniform sphere.

    Returns the estimate of the normalizing constant and the standard
    error of the mean.
    """
    # The Psi half of the pass: its blocks form no numerator.
    return _moments(sigma, n, seed, _dense_draw, lambda x, s: (_weights(x, s), None, 0.0))[0]


def mc_covariance(sigma: np.ndarray, n: int, seed: int) -> McEstimate:
    """Ratio estimator of Cov(X) = E[x x' w] / E[w], w = exp(x' Sigma x).

    Entrywise standard errors come from a delete-one-block jackknife
    over the 50 sampling blocks, which respects the ratio form of the
    estimator.  The estimate has unit trace up to float roundoff.
    """
    return _moments(sigma, n, seed, _dense_draw, _dense_block)[1]


def mc_moments(sigma: np.ndarray, n: int, seed: int) -> tuple[McEstimate, McEstimate]:
    """Both Monte-Carlo estimates from a single pass over the sample blocks.

    Returns ``(mc_norm_const(sigma, n, seed), mc_covariance(sigma, n,
    seed))``, equal to the separate calls bit for bit, while drawing each
    block and computing its weights only once.
    """
    return _moments(sigma, n, seed, _dense_draw, _dense_block)


def mc_eigen_moments(
    eigenvalues: np.ndarray, n: int, seed: int
) -> tuple[McEstimate, McEstimate]:
    """The normalizing constant and Cov(X) in the eigenbasis, in one pass.

    ``eigenvalues`` are those of Sigma = V diag(lambda) V'.  Each uniform
    block is read as the eigen-coordinates y, which is exact in law by
    rotation invariance, and weighted by exp(q @ lambda), q = y*y,
    computed shifted by the block's largest exponent so that no weight
    overflows.  Returns the estimate of Psi (as :func:`mc_norm_const`
    computes it from the weights) and the d-vector E_w[q] with jackknife
    errors: Cov(X) = V diag(E_w[q]) V', so entry k estimates
    v_k' Cov(X) v_k.  The entries sum to 1 up to float roundoff.  Raises
    :class:`SamplingOverflowError` only when the estimate of Psi itself
    does not fit in float64.
    """
    return _moments(np.asarray(eigenvalues, dtype=float), n, seed, _eigen_block, _evaluated)


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


def kummer_series(
    b: float, theta: float, rel_tol: float = 1e-16, max_terms: int = 500
) -> float:
    """The scalar series sum_k (1/2)_k / (b)_k * theta^k / k!.

    Terms follow the recurrence t_{k+1} = t_k (1/2 + k)/(b + k) *
    theta/(k + 1); summation stops when a term falls below ``rel_tol``
    relative to the running sum.
    """
    if not b > 0:
        raise OrderRangeError(f"b must be positive, got {b}")
    total = 1.0
    term = 1.0
    for k in range(max_terms):
        term *= (0.5 + k) / (b + k) * theta / (k + 1)
        if abs(term) <= rel_tol * abs(total):
            return total + term
        total += term
    raise ConvergenceError(
        f"scalar series did not converge within {max_terms} terms "
        f"(b = {b:g}, theta = {theta:g})"
    )


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
