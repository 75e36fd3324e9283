"""Binding acceptance checks with pinned tolerances.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE n (name): PASS`` or ``FAIL`` line (run pytest with ``-rA``
to see the lines for passing tests).  The 5-decimal reference grids in
``T1A``/``T1B``/``T2A``/``T2B`` are frozen expected values of the two
tail-bound families (regimes (1, 0.5) and (1, 0.75)); they were
tabulated independently of this codebase and must be reproduced to the
stated absolute tolerances.
"""

import io
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import haar_orthogonal, random_trace_zero

from binghamx import (
    GrowthRegime,
    admissible_dimension,
    bound_coefficient,
    bound_coefficient_closed,
    compare_bounds,
    covariance_derived_bound,
    covariance_expansion,
    covariance_second_order,
    fd_gradient,
    gradient_tail_bound,
    kummer_partial_sum,
    materialize,
    mc_moments,
    norm_const_gradient_truncated,
    norm_const_tail_bound,
    norm_const_truncated,
    power_sums,
    regime_check,
)
from binghamx.cli import run as cli_run
from binghamx.zonal import bound_coefficient_closed_poly, bound_coefficient_poly

R_HALF = GrowthRegime(1.0, 0.5)
R_LARGE = GrowthRegime(1.0, 0.75)

DS1 = [20, 25, 50, 75, 100, 250, 500, 750, 1000, 5000, 10000, 25000, 50000, 62501]
T1A = {
    3: [0.18782, 0.15887, 0.09447, 0.06970, 0.05617, 0.02825, 0.01680,
        0.01239, 0.00999, 0.00299, 0.00178, 0.00089, 0.00053, 0.00045],
    6: [0.00349, 0.00250, 0.00088, 0.00048, 0.00031, 0.00008, 0.00003,
        0.00002, 0.00001, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000],
    10: [0.00001, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000,
         0.00000, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000],
}
T1B = {
    3: [0.15383, 0.12306, 0.06153, 0.04102, 0.03077, 0.01231, 0.00615,
        0.00410, 0.00308, 0.00062, 0.00031, 0.00012, 0.00006, 0.00005],
    6: [0.00535, 0.00362, 0.00108, 0.00053, 0.00032, 0.00006, 0.00002,
        0.00001, 0.00001, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000],
    10: [0.00002, 0.00001, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000,
         0.00000, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000],
}
DS2 = [200, 225, 250, 275, 500, 750, 1000, 2000, 2500, 5000, 10000, 25000,
       50000, 62501]
T2A = {
    3: [0.24357, 0.23304, 0.22401, 0.21615, 0.17274, 0.14837, 0.13320,
        0.10271, 0.09447, 0.07284, 0.05617, 0.03984, 0.03072, 0.02825],
    6: [0.00587, 0.00538, 0.00497, 0.00463, 0.00295, 0.00218, 0.00176,
        0.00104, 0.00088, 0.00053, 0.00031, 0.00016, 0.00009, 0.00008],
    10: [0.00002, 0.00001, 0.00001, 0.00001, 0.00001, 0.00000, 0.00000,
         0.00000, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000],
}
T2B = {
    3: [0.05785, 0.05296, 0.04893, 0.04556, 0.02910, 0.02147, 0.01730,
        0.01029, 0.00870, 0.00517, 0.00308, 0.00155, 0.00092, 0.00078],
    6: [0.00261, 0.00229, 0.00203, 0.00182, 0.00093, 0.00059, 0.00043,
        0.00020, 0.00015, 0.00007, 0.00003, 0.00001, 0.00001, 0.00000],
    10: [0.00001, 0.00001, 0.00001, 0.00001, 0.00000, 0.00000, 0.00000,
         0.00000, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000, 0.00000],
}


@contextmanager
def report(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def cli_bounds_csv(gamma0, r, ds, ms):
    buf = io.StringIO()
    argv = ["bounds", "--gamma0", str(gamma0), "--r", str(r),
            "--d", ",".join(str(d) for d in ds),
            "--m", ",".join(str(m) for m in ms), "--format", "csv"]
    assert cli_run(argv, out=buf) == 0
    text = buf.getvalue()
    psi_part, grad_part = text.split("# grad\n")
    psi_part = psi_part.split("# psi\n")[1]

    def parse(part):
        lines = part.strip().splitlines()
        grid = {}
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            d = float(cells[0])
            for key, cell in zip(header[1:], cells[1:]):
                grid[(int(d), int(key.split("=")[1]))] = float(cell)
        return grid

    return parse(psi_part), parse(grad_part)


def test_01_table_reproduction():
    with report(1, "table reproduction"):
        start = time.perf_counter()
        psi1, grad1 = cli_bounds_csv(1, 0.5, DS1, [3, 6, 10])
        psi2, grad2 = cli_bounds_csv(1, 0.75, DS2, [3, 6, 10])
        elapsed = time.perf_counter() - start
        checked = 0
        for m in (3, 6, 10):
            for i, d in enumerate(DS1):
                assert abs(psi1[(d, m)] - T1A[m][i]) <= 1.5e-5, ("1a", d, m)
                assert abs(grad1[(d, m)] - T1B[m][i]) <= 1.5e-5, ("1b", d, m)
                checked += 2
            for i, d in enumerate(DS2):
                assert abs(psi2[(d, m)] - T2A[m][i]) <= 1e-4, ("2a", d, m)
                assert abs(grad2[(d, m)] - T2B[m][i]) <= 1e-4, ("2b", d, m)
                checked += 2
        assert checked == 168
        assert elapsed < 1.0, f"table generation took {elapsed:.2f} s"


def test_02_admissibility_thresholds():
    with report(2, "admissibility thresholds"):
        t_half = admissible_dimension(R_HALF)
        assert 13.9 <= t_half <= 14.0, t_half
        t_large = admissible_dimension(R_LARGE)
        assert 193.9 <= t_large <= 194.1, t_large


def test_03_scaled_identity_bound_soundness():
    # Sigma = theta * I_d has the exactly known limit e^theta, so the
    # truncation error is observable and must sit below the certified
    # bound for a regime that the matrix satisfies.
    with report(3, "scaled-identity bound soundness"):
        start = time.perf_counter()
        pairs = 0
        for theta in (-0.5, 0.1, 0.5):
            for d in (10, 100, 1000):
                regime = GrowthRegime(1.01 * abs(theta) * d**0.25, 0.5)
                sigma = theta * np.eye(d)
                assert regime_check(sigma, regime, d)
                assert admissible_dimension(regime) <= d, (theta, d)
                ps = power_sums(sigma, 9)
                truth = math.exp(theta)
                for m in (3, 6, 10):
                    err = abs(norm_const_truncated(ps, m, d) - truth)
                    bound = norm_const_tail_bound(m, d, regime)
                    assert err <= bound, (theta, d, m, err, bound)
                    pairs += 1
        assert pairs == 27
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"identity grid took {elapsed:.2f} s"


def test_04_rank_one_kummer_equivalence():
    with report(4, "rank-one scalar-series equivalence"):
        triples = 0
        for theta in (-2.0, -0.5, 0.3, 1.0, 2.5):
            for d in (3, 7, 20, 150, 1000):
                sigma = np.zeros((d, d))
                sigma[0, 0] = theta
                ps = power_sums(sigma, 11)
                for m in (6, 12):
                    got = norm_const_truncated(ps, m, d)
                    want = kummer_partial_sum(d / 2.0, theta, m)
                    assert got == pytest.approx(want, rel=1e-12), (theta, d, m)
                    triples += 1
        assert triples == 50


def test_05_combinatorial_coefficient_identities():
    with report(5, "tail-coefficient identities"):
        # (a) multisum == closed form exactly, as rational polynomials
        # in sqrt(d).
        for k in range(0, 13):
            assert bound_coefficient_poly(k) == bound_coefficient_closed_poly(k), k

        six_ds = (1.0, 2.0, 10.0, 100.0, 10000.0, 62501.0)

        # (b) float agreement to 1e-12 relative through k = 20.
        for k in range(1, 21):
            for d in six_ds:
                a = bound_coefficient(k, d)
                b = bound_coefficient_closed(k, d)
                assert a == pytest.approx(b, rel=1e-12), (k, d)

        # (c) a_k <= (sqrt(d)/2)_k / k!.
        for k in range(1, 21):
            for d in six_ds:
                s = math.sqrt(d)
                rising = 1.0
                for i in range(k):
                    rising *= s / 2.0 + i
                cap = rising / math.factorial(k)
                assert bound_coefficient(k, d) <= cap * (1.0 + 1e-12), (k, d)

        # (d) Pochhammer-ratio inequality:
        # (sqrt(d)/2)_k / (d/2)_k <= g1^(k-1) sqrt((k-1)!) d^(-k/2).
        g1 = (1.0 + math.sqrt(3.0)) / 2.0
        for k in range(1, 31):
            for d in six_ds:
                s = math.sqrt(d)
                ratio = 1.0
                for i in range(k):
                    ratio *= (s / 2.0 + i) / (d / 2.0 + i)
                cap = g1 ** (k - 1) * math.sqrt(math.factorial(k - 1)) * d ** (-k / 2.0)
                assert ratio <= cap * (1.0 + 1e-12), (k, d)

        # (e) power-sum ratio inequality:
        # (sum |l|^j)^(i) <= d^max(0, (2-j) i / 2) * (sum l^2)^(j i / 2),
        # zero violations over 1000 random eigenvalue vectors.
        rng = np.random.default_rng(2026)
        violations = 0
        vectors = 0
        for _ in range(1000):
            d = int(rng.integers(2, 51))
            lam = rng.standard_normal(d) * float(rng.uniform(0.1, 3.0))
            sum_sq = float(np.sum(lam * lam))
            abs_lam = np.abs(lam)
            vectors += 1
            for j in range(1, 7):
                pj = float(np.sum(abs_lam**j))
                for i in range(1, 4):
                    lhs = pj**i
                    rhs = d ** max(0.0, (2 - j) * i / 2.0) * sum_sq ** (j * i / 2.0)
                    if lhs > rhs * (1.0 + 1e-12):
                        violations += 1
        assert vectors == 1000
        assert violations == 0


def _fixed_entry_matrix(rng, d):
    """Symmetric matrix whose entries are bounded away from zero, so
    entrywise relative gradient comparisons are well conditioned."""
    mag = rng.uniform(0.05, 0.5, size=(d, d))
    sign = rng.choice([-1.0, 1.0], size=(d, d))
    a = mag * sign
    a = (a + a.T) / 2.0
    return 0.3 * a


def test_06_gradient_correctness():
    with report(6, "gradient correctness"):
        # (a) materialized truncated gradient vs finite differences of
        # the truncated value, entrywise relative error <= 1e-6.
        rng = np.random.default_rng(61)
        h = 3e-5
        for d in (2, 4, 8):
            for _ in range(2):
                sigma = _fixed_entry_matrix(rng, d)
                for m in range(2, 9):
                    ps = power_sums(sigma, m - 1)
                    grad = materialize(norm_const_gradient_truncated(ps, m, d), sigma)

                    def f(mat, m=m, d=d):
                        return norm_const_truncated(power_sums(mat, m - 1), m, d)

                    fd = fd_gradient(f, sigma, h)
                    # Central differences cannot resolve below
                    # ~eps/(2h); entries where both sides sit under
                    # that floor (the zero off-diagonal entries at
                    # m = 2) agree by any reasonable reading.
                    floor = 1e-10
                    noise = (np.abs(fd) <= floor) & (np.abs(grad) <= floor)
                    denom = np.where(noise, 1.0, np.abs(fd))
                    rel = np.abs(grad - fd) / denom
                    assert np.max(rel) <= 1e-6, (d, m, float(np.max(rel)))

        # (b) the three closed-form gradient identities at h = 1e-4,
        # relative error <= 1e-5.
        h = 1e-4
        rng = np.random.default_rng(63)
        d = 4
        sigma = _fixed_entry_matrix(rng, d)

        hmat = _fixed_entry_matrix(rng, d)
        exact = hmat * math.exp(float(np.trace(sigma @ hmat)))
        fd = fd_gradient(lambda m: math.exp(float(np.trace(m @ hmat))), sigma, h)
        assert np.max(np.abs(fd - exact)) <= 1e-5 * max(1.0, np.max(np.abs(exact)))

        k = 3
        exact = k * float(np.trace(sigma)) ** (k - 1) * np.eye(d)
        fd = fd_gradient(lambda m: float(np.trace(m)) ** k, sigma, h)
        assert np.max(np.abs(fd - exact)) <= 1e-5 * max(1.0, np.max(np.abs(exact)))

        acc = sigma @ sigma
        exact = k * acc
        fd = fd_gradient(lambda m: float(np.trace(m @ m @ m)), sigma, h)
        assert np.max(np.abs(fd - exact)) <= 1e-5 * max(1.0, np.max(np.abs(exact)))

        # pinned spot checks for the last two identities
        s2 = np.diag([1.0, 2.0])
        fd = fd_gradient(lambda m: float(np.trace(m @ m @ m)), s2, 1e-4)
        assert np.max(np.abs(fd - 3.0 * s2 @ s2)) <= 1e-6
        s5 = np.diag([2.0, 3.0])  # trace 5
        fd = fd_gradient(lambda m: float(np.trace(m)) ** 2, s5, 1e-4)
        assert np.max(np.abs(fd - 10.0 * np.eye(2))) <= 1e-8


def test_07_monte_carlo_concordance():
    with report(7, "Monte-Carlo concordance"):
        start = time.perf_counter()
        regime = GrowthRegime(0.9, 0.0)
        rng = np.random.default_rng(20260814)
        cases = [10, 10, 10, 10, 20, 20, 20, 50, 50, 50]
        n = 1_000_000
        for i, d in enumerate(cases):
            sigma = random_trace_zero(rng, d, norm=0.8)
            assert regime_check(sigma, regime, d)
            ps = power_sums(sigma, 11)

            psi = norm_const_truncated(ps, 12, d)
            est, cest = mc_moments(sigma, n, seed=1000 + i)
            assert abs(est.value - psi) <= 4.0 * est.std_error, (i, d)

            cov = covariance_expansion(ps, sigma, 3, 4, d)
            budget = covariance_derived_bound(ps, sigma, 3, 4, d, regime)
            tol = 4.0 * cest.std_error + budget
            assert np.all(np.abs(cest.value - cov) <= tol), (i, d)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"concordance run took {elapsed:.1f} s"


def test_08_covariance_structure():
    with report(8, "covariance structure"):
        rng = np.random.default_rng(81)
        for _ in range(200):
            d = int(rng.integers(3, 26))
            sigma = random_trace_zero(rng, d, norm=float(rng.uniform(0.2, 1.5)))
            closed = covariance_second_order(sigma, d)
            assert abs(float(np.trace(closed)) - 1.0) <= 1e-12

            ps = power_sums(sigma, 2)
            expanded = covariance_expansion(ps, sigma, 2, 3, d)
            assert np.all(np.abs(closed - expanded) <= 1e-12)

        for _ in range(25):
            d = int(rng.integers(3, 12))
            sigma = random_trace_zero(rng, d, norm=0.9)
            q = haar_orthogonal(rng, d)
            rotated = q @ sigma @ q.T

            a = covariance_second_order(rotated, d)
            b = q @ covariance_second_order(sigma, d) @ q.T
            assert np.max(np.abs(a - b)) <= 1e-8

            a = covariance_expansion(power_sums(rotated, 5), rotated, 3, 6, d)
            b = q @ covariance_expansion(power_sums(sigma, 5), sigma, 3, 6, d) @ q.T
            assert np.max(np.abs(a - b)) <= 1e-8


def test_09_bound_comparison_rule():
    with report(9, "bound comparison rule"):
        grids = ((R_HALF, DS1), (R_LARGE, DS2))
        for regime, ds in grids:
            for m in (3, 6, 10):
                for d in ds:
                    bv = norm_const_tail_bound(m, float(d), regime)
                    bg = gradient_tail_bound(m, float(d), regime)
                    got = compare_bounds(m, float(d), regime)
                    if abs(bv - bg) <= 1e-12 * max(bv, bg):
                        continue
                    want = "norm_const" if bv < bg else "gradient"
                    assert got == want, (regime, m, d)

        # m = 3 direction on the moderate-regime grid: the gradient
        # bound is the smaller one at every tabulated d.
        for d in DS1:
            assert compare_bounds(3, float(d), R_HALF) == "gradient"

        # m = 6 crossover between d = 110 and d = 111.
        assert compare_bounds(6, 110.0, R_HALF) == "norm_const"
        assert compare_bounds(6, 111.0, R_HALF) == "gradient"
