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
caller weights and reduces block b, one helper thread draws block b + 1;
each block has its own generator and the reductions stay in index order,
so the results do not depend on that overlap.

All three estimators read one block stream: :func:`mc_moments` draws each
block and computes its weights once and feeds both the normalizing-constant
and the covariance reductions, which is what ``verify`` uses.  Its two
results equal those of :func:`mc_norm_const` and :func:`mc_covariance`
bit for bit.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ConvergenceError, OrderRangeError, SamplingOverflowError

#: Number of sampling blocks; also the jackknife group count.
BLOCKS = 50


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its standard error.

    ``value`` and ``std_error`` are floats for scalar targets and
    (d, d) arrays (entrywise standard errors) for matrix targets.
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


def _weights(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """exp(x' Sigma x) per row of x; overflow, or nan from inf - inf, raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(np.sum((x @ sigma) * x, axis=1))
    if not np.isfinite(w).all():
        raise SamplingOverflowError(
            "exp(x' Sigma x) produced non-finite weights; the matrix is far "
            "outside any usable regime"
        )
    return w


def _sample_blocks(
    sigma: np.ndarray, n: int, seed: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (b, x, w) for every sampling block b, in index order.

    The draw of block b + 1 runs on one helper thread while the caller
    consumes block b; exactly one draw is in flight.  Closing the
    generator early waits for that draw and stops the thread.
    """
    # Imported here so that importing the package starts no thread machinery.
    from concurrent.futures import ThreadPoolExecutor

    d = sigma.shape[0]
    sizes = _block_sizes(n)
    with ThreadPoolExecutor(1) as pool:
        ahead = pool.submit(_sphere_block, d, sizes[0], seed, 0)
        for b in range(BLOCKS):
            x = ahead.result()
            if b + 1 < BLOCKS:
                ahead = pool.submit(_sphere_block, d, sizes[b + 1], seed, b + 1)
            yield b, x, _weights(x, sigma)


class _NormConstSums:
    """Running sums of w and w^2 over the blocks, in block order."""

    def __init__(self, d: int) -> None:
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, b: int, x: np.ndarray, w: np.ndarray) -> None:
        self.total += float(w.sum())
        self.total_sq += float((w * w).sum())

    def estimate(self, n: int, seed: int) -> McEstimate:
        mean = self.total / n
        var = max(self.total_sq - n * mean * mean, 0.0) / (n - 1)
        return McEstimate(
            value=mean, std_error=float(np.sqrt(var / n)), n_samples=n, seed=seed
        )


class _CovarianceSums:
    """Per-block numerators sum(w x x') and denominators sum(w)."""

    def __init__(self, d: int) -> None:
        self.nums = np.empty((BLOCKS, d, d))
        self.dens = np.empty(BLOCKS)

    def add(self, b: int, x: np.ndarray, w: np.ndarray) -> None:
        self.nums[b] = x.T @ (x * w[:, None])
        self.dens[b] = float(w.sum())

    def estimate(self, n: int, seed: int) -> McEstimate:
        """The ratio estimate and its jackknife errors; overwrites ``nums``.

        The delete-one-block ratios are built in place in ``nums``, so
        only one (BLOCKS, d, d) array is alive.
        """
        nums, dens = self.nums, self.dens
        num_tot = nums.sum(axis=0)
        den_tot = float(dens.sum())
        value = num_tot / den_tot
        np.subtract(num_tot[None], nums, out=nums)
        nums /= (den_tot - dens)[:, None, None]
        nums -= nums.mean(axis=0)
        nums *= nums
        se = np.sqrt((BLOCKS - 1) / BLOCKS * np.sum(nums, axis=0))
        return McEstimate(value=value, std_error=se, n_samples=n, seed=seed)


def _estimate(sigma: np.ndarray, n: int, seed: int, *reductions) -> tuple[McEstimate, ...]:
    """One pass over the sample blocks, feeding each block to every reduction.

    ``reductions`` are the reduction classes, each built from the dimension.
    """
    _check_sampling_args(n, seed)
    sums = [r(sigma.shape[0]) for r in reductions]
    # closing: a reduction that raises stops the helper thread without
    # waiting for the generator to be garbage-collected.
    with closing(_sample_blocks(sigma, n, seed)) as blocks:
        for b, x, w in blocks:
            for s in sums:
                s.add(b, x, w)
    return tuple(s.estimate(n, seed) for s in sums)


def mc_norm_const(sigma: np.ndarray, n: int, seed: int) -> McEstimate:
    """Sample mean of exp(x' Sigma x) over the uniform sphere.

    Returns the estimate of the normalizing constant and the standard
    error of the mean.
    """
    return _estimate(sigma, n, seed, _NormConstSums)[0]


def mc_covariance(sigma: np.ndarray, n: int, seed: int) -> McEstimate:
    """Ratio estimator of Cov(X) = E[x x' w] / E[w], w = exp(x' Sigma x).

    Entrywise standard errors come from a delete-one-block jackknife
    over the 50 sampling blocks, which respects the ratio form of the
    estimator.  The estimate has unit trace up to float roundoff.
    """
    return _estimate(sigma, n, seed, _CovarianceSums)[0]


def mc_moments(sigma: np.ndarray, n: int, seed: int) -> tuple[McEstimate, McEstimate]:
    """Both Monte-Carlo estimates from a single pass over the sample blocks.

    Returns ``(mc_norm_const(sigma, n, seed), mc_covariance(sigma, n,
    seed))``, equal to the separate calls bit for bit, while drawing each
    block and computing its weights only once.
    """
    return _estimate(sigma, n, seed, _NormConstSums, _CovarianceSums)


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
