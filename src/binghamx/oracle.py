"""Independent ground-truth generators used to validate the series code.

Nothing here shares evaluation machinery with the series modules: the
Monte-Carlo integrators sample the sphere directly, the scalar
hypergeometric series uses its own term recurrence, and the
finite-difference gradient only calls the scalar function it is given.

Block b of a run draws from PCG64(SeedSequence([seed, b])) with numpy's
ziggurat standard_normal, and blocks are reduced in index order, so
identical (seed, n, Sigma) draw the same samples on any machine and give
bit-identical estimates on one numpy/BLAS build and BLAS thread count.
The 50 blocks double as the jackknife resampling groups.  While the
caller weights and reduces block b, two pool workers draw blocks b + 1
and b + 2; each block has its own generator and the reductions stay in
index order, so the results do not depend on that overlap.

Every estimator is one loop, :func:`_moments`, over the blocks.  A block
function turns each uniform block into its weights and its numerator;
the loop keeps the running sums of w and w^2 for Psi and the per-block
numerators and sums of w for the jackknife.  :func:`_dense_block` reads
the block as x, with numerator x'(w x); :func:`mc_moments` runs it and
returns both estimates.  :func:`mc_norm_const` and :func:`mc_covariance`
are the two halves of that same pass (the Psi half forms no numerator),
so they equal :func:`mc_moments` bit for bit.

``verify`` runs :func:`_eigen_block` through :func:`mc_eigen_moments`.
The uniform measure on the sphere is rotation-invariant, so for Sigma =
V diag(lambda) V' the coordinates y = V'x of a uniform x are uniform too
and x' Sigma x = sum_i lambda_i y_i^2.  Each uniform block is read
directly as y: the weights are exp(q @ lambda) with q = y*y, the
numerator is w @ q, and Cov(X) = V diag(E_w[q]) V', so a block costs
O(size * d) instead of two O(size * d^2) products.  Only lambda is
needed, the one ``power_sums`` forms, and the series side of entry k is
T g(lambda_k), the covariance product at diag(lambda): ``verify``
computes no eigenvectors.

Every compared check of ``verify`` is tested at the family-wise
false-alarm rate :data:`FAMILY_ALPHA` (:func:`family_threshold`).
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

#: Family-wise false-alarm rate of the ``verify`` checks.
FAMILY_ALPHA = 1e-3


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its standard error.

    ``value`` and ``std_error`` are floats for scalar targets and arrays
    of the target's shape (entrywise standard errors) otherwise.
    """

    value: object
    std_error: object
    n_samples: int
    seed: int


def _check_sampling_args(n: int, seed: int) -> None:
    if n < 1000:
        raise OrderRangeError(f"need at least 1000 samples, got {n}")
    if seed < 0:
        raise OrderRangeError(f"seed must be a nonnegative integer, got {seed}")


def _block_sizes(n: int) -> list[int]:
    base, rem = divmod(n, BLOCKS)
    return [base + 1] * rem + [base] * (BLOCKS - rem)


def _sphere_block(d: int, size: int, seed: int, block: int) -> np.ndarray:
    """Uniform sphere samples: normalized rows of standard Gaussians."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, block])))
    z = rng.standard_normal((size, d))
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


def _dense_block(x: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights exp(x' Sigma x) of a uniform block x and its numerator x'(w x)."""
    w = _weights(x, sigma)
    return w, x.T @ (x * w[:, None])


def _eigen_block(y: np.ndarray, eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights exp(q @ lambda) of an eigenbasis block y and its numerator w @ q, q = y*y.

    The eigenbasis products run through einsum, not BLAS: with more than
    one BLAS thread a multithreaded matrix-vector product of a block is
    several times slower than a single-threaded loop, and its threads
    compete with the pool workers for the cores.
    """
    q = y * y
    with np.errstate(over="ignore", invalid="ignore"):
        w = _finite(np.exp(np.einsum("ij,j->i", q, eigenvalues)))
    return w, np.einsum("i,ij->j", w, q)


def _moments(
    data: np.ndarray, n: int, seed: int, block
) -> tuple[McEstimate, McEstimate | None]:
    """Psi and the ratio estimate of E_w[numerator], in one pass over the blocks.

    ``block(x, data)`` maps a uniform block x to its weights w and its
    numerator, or to (w, None) when only Psi is wanted; then the second
    estimate is None.  Two pool workers draw blocks b + 1 and b + 2
    while block b is weighted and reduced, so exactly DRAWS_IN_FLIGHT
    draws are in flight; a block that raises waits for those draws and
    stops the workers on leaving the pool.

    The jackknife builds the delete-one-block ratios in place in the
    per-block numerators, so only one array of that shape is alive,
    whatever the shape of a numerator.
    """
    _check_sampling_args(n, seed)
    # Imported here so that importing the package starts no thread machinery.
    from concurrent.futures import ThreadPoolExecutor

    d = data.shape[0]
    sizes = _block_sizes(n)
    total = total_sq = 0.0
    nums, dens = None, np.empty(BLOCKS)
    with ThreadPoolExecutor(DRAWS_IN_FLIGHT) as pool:

        def draw(b: int):
            return pool.submit(_sphere_block, d, sizes[b], seed, b)

        ahead = [draw(b) for b in range(DRAWS_IN_FLIGHT)]
        for b in range(BLOCKS):
            x = ahead.pop(0).result()
            if b + DRAWS_IN_FLIGHT < BLOCKS:
                ahead.append(draw(b + DRAWS_IN_FLIGHT))
            w, num = block(x, data)
            dens[b] = den = float(w.sum())
            total += den
            total_sq += float((w * w).sum())
            if num is not None:
                if nums is None:
                    nums = np.empty((BLOCKS,) + num.shape)
                nums[b] = num

    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    psi = McEstimate(value=mean, std_error=float(np.sqrt(var / n)), n_samples=n, seed=seed)
    if nums is None:
        return psi, None
    num_tot = nums.sum(axis=0)
    den_tot = float(dens.sum())
    value = num_tot / den_tot
    np.subtract(num_tot[None], nums, out=nums)
    nums /= (den_tot - dens).reshape((BLOCKS,) + (1,) * (nums.ndim - 1))
    nums -= nums.mean(axis=0)
    nums *= nums
    se = np.sqrt((BLOCKS - 1) / BLOCKS * np.sum(nums, axis=0))
    return psi, McEstimate(value=value, std_error=se, n_samples=n, seed=seed)


def mc_norm_const(sigma: np.ndarray, n: int, seed: int) -> McEstimate:
    """Sample mean of exp(x' Sigma x) over the uniform sphere.

    Returns the estimate of the normalizing constant and the standard
    error of the mean.
    """
    # The Psi half of the pass: its blocks form no numerator.
    return _moments(sigma, n, seed, lambda x, s: (_weights(x, s), None))[0]


def mc_covariance(sigma: np.ndarray, n: int, seed: int) -> McEstimate:
    """Ratio estimator of Cov(X) = E[x x' w] / E[w], w = exp(x' Sigma x).

    Entrywise standard errors come from a delete-one-block jackknife
    over the 50 sampling blocks, which respects the ratio form of the
    estimator.  The estimate has unit trace up to float roundoff.
    """
    return _moments(sigma, n, seed, _dense_block)[1]


def mc_moments(sigma: np.ndarray, n: int, seed: int) -> tuple[McEstimate, McEstimate]:
    """Both Monte-Carlo estimates from a single pass over the sample blocks.

    Returns ``(mc_norm_const(sigma, n, seed), mc_covariance(sigma, n,
    seed))``, equal to the separate calls bit for bit, while drawing each
    block and computing its weights only once.
    """
    return _moments(sigma, n, seed, _dense_block)


def mc_eigen_moments(
    eigenvalues: np.ndarray, n: int, seed: int
) -> tuple[McEstimate, McEstimate]:
    """The normalizing constant and Cov(X) in the eigenbasis, in one pass.

    ``eigenvalues`` are those of Sigma = V diag(lambda) V'.  Each uniform
    block is read as the eigen-coordinates y, which is exact in law by
    rotation invariance, and weighted by exp(q @ lambda), q = y*y.
    Returns the estimate of Psi (as :func:`mc_norm_const` computes it
    from the weights) and the d-vector E_w[q] with jackknife errors:
    Cov(X) = V diag(E_w[q]) V', so entry k estimates v_k' Cov(X) v_k.
    The entries sum to 1 up to float roundoff.
    """
    return _moments(np.asarray(eigenvalues, dtype=float), n, seed, _eigen_block)


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
