"""Calibration of the ``verify`` decision rule: how often a correct series fails.

Runs the checks that ``binghamx verify`` makes (``cli._verify_checks``) on
one d = 200 trace-zero matrix at 0.9 of the ``--gamma0 1 --r 0.5`` regime
cap, whose m = 12 series has converged, for the Monte-Carlo seeds 1, ...,
K.  A run fails when a check does not pass, so mostly when the largest |z|
over Psi and the d covariance entries, z = (estimate - series) /
std_error, is above ``family_threshold(d + 1)``.  For a calibrated rule
the count of failed runs is Binomial(K, p) with p <= FAMILY_ALPHA, so the
tool fails when P(Binomial(K, FAMILY_ALPHA) >= count) is below LEVEL: at
K = 50 on two failed runs, at K = 1000 on five.

Run from the repository root::

    PYTHONPATH=src python tools/verify_calibration.py --seeds 50

Exit status 0 when the count passes the rule, 1 when it does not.  A run
at d = 200 and n = 2e5 takes about 0.4 s on one core.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from binghamx import oracle
from binghamx.cli import _verify_checks, _verify_series
from binghamx.symmat import power_sums

#: Test level of the binomial rule.
LEVEL = 0.01

D, NORM, L, M, MATRIX_SEED, SAMPLES = 200, 0.9 * 200**0.25, 3, 12, 2026, 200_000


def trace_zero(seed: int, d: int, norm: float) -> np.ndarray:
    """A symmetrized Gaussian matrix with zero trace and Frobenius norm ``norm``."""
    a = np.random.default_rng(seed).standard_normal((d, d))
    s = (a + a.T) / 2.0
    s -= np.trace(s) / d * np.eye(d)
    return s * (norm / np.sqrt(np.sum(s * s)))


def binomial_tail(k: int, trials: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(trials, p)."""
    below = sum(math.comb(trials, j) * p**j * (1.0 - p) ** (trials - j) for j in range(k))
    return max(0.0, 1.0 - below)


def main(argv=None, samples: int = SAMPLES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True, help="Monte-Carlo seeds 1..K")
    seeds = parser.parse_args(argv).seeds

    (_, psi), (_, cov), (_, lam) = _verify_series(
        power_sums(trace_zero(MATRIX_SEED, D, NORM), max(L, M) - 1), L, M)
    failed, inconclusive, worst = 0, 0, (0.0, 0)
    for seed in range(1, seeds + 1):
        rows = _verify_checks(psi, cov, *oracle.mc_eigen_moments(lam, samples, seed))
        statuses = [status for *_, status in rows]
        failed += statuses != ["pass"] * len(rows)
        inconclusive += "inconclusive" in statuses
        worst = max(worst, (max(abs(e - s) / b for _, s, e, _, b, _ in rows), seed))
    tail = binomial_tail(failed, seeds, oracle.FAMILY_ALPHA)
    passed = tail >= LEVEL
    print(f"d = {D}, n = {samples}, matrix seed {MATRIX_SEED}, Monte-Carlo seeds 1..{seeds}")
    print(f"verify failed {failed} of {seeds} runs ({inconclusive} inconclusive; expected "
          f"at most {seeds * oracle.FAMILY_ALPHA:.3g}); the largest |estimate - series| / "
          f"bound of a check was {worst[0]:.4g}, at seed {worst[1]}")
    print(f"P(Binomial({seeds}, {oracle.FAMILY_ALPHA:g}) >= {failed}) = {tail:.3g}, "
          f"level {LEVEL:g}: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
