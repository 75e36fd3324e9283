"""Zonal polynomial values, gradients, and bound-coefficient polynomials.

Oracles:

* exact-rational evaluation (``zonal_value_exact``) cross-checks the
  floating-point recurrence path;
* closed forms for the first three orders;
* orthogonal invariance and the rank-one specialization, where the
  polynomial collapses to a known scalar sequence;
* the two bound-coefficient constructions (multiset sum vs. binomial
  closed form), which must agree exactly as polynomials in sqrt(d).
"""

from fractions import Fraction

import numpy as np
import pytest
from conftest import count_series_passes, haar_orthogonal, random_symmetric

from binghamx import (
    InsufficientPowersError,
    bound_coefficient,
    bound_coefficient_closed,
    materialize,
    power_sums,
    zonal_gradient,
    zonal_value,
    zonal_value_exact,
)
from binghamx.zonal import (
    bound_coefficient_closed_poly,
    bound_coefficient_poly,
    power_table,
    scaled_zonal_gradient,
    scaled_zonal_value,
)


def exact_power_sums(sigma_rows, K):
    """Power sums of a rational matrix via repeated exact multiplication."""
    d = len(sigma_rows)
    acc = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    out = [Fraction(d)]
    for _ in range(K):
        acc = [
            [sum(acc[i][k] * sigma_rows[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
        out.append(sum(acc[i][i] for i in range(d)))
    return out


class TestZonalValue:
    def test_low_order_closed_forms(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d = int(rng.integers(2, 9))
            s = random_symmetric(rng, d)
            ps = power_sums(s, 3)
            t1, t2, t3 = ps.p[1], ps.p[2], ps.p[3]
            assert zonal_value(1, ps) == pytest.approx(t1, rel=1e-13, abs=1e-13)
            assert zonal_value(2, ps) == pytest.approx(
                (t1**2 + 2.0 * t2) / 3.0, rel=1e-13, abs=1e-13
            )
            expected3 = (t1**3 + 6.0 * t1 * t2 + 8.0 * t3) / 15.0
            assert zonal_value(3, ps) == pytest.approx(expected3, rel=1e-12, abs=1e-12)

    def test_matches_exact_rational(self):
        # A fixed rational symmetric matrix; exact power sums feed the
        # Fraction evaluator, the float path must agree to near machine
        # precision for k up to 12.
        rows = [
            [Fraction(1, 2), Fraction(1, 3), Fraction(0)],
            [Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)],
            [Fraction(0), Fraction(1, 5), Fraction(1, 7)],
        ]
        exact_p = exact_power_sums(rows, 12)
        s = np.array([[float(x) for x in r] for r in rows])
        ps = power_sums(s, 12)
        for k in range(1, 13):
            exact = zonal_value_exact(k, exact_p)
            got = zonal_value(k, ps)
            assert got == pytest.approx(float(exact), rel=1e-11)

    def test_identity_matrix_values(self):
        # At Sigma = I_d every p_j = d; C_1 = d, C_2 = (d^2 + 2 d) / 3.
        for d in (2, 5, 11):
            ps = power_sums(np.eye(d), 4)
            assert zonal_value(1, ps) == pytest.approx(float(d), rel=1e-14)
            assert zonal_value(2, ps) == pytest.approx((d**2 + 2 * d) / 3.0, rel=1e-13)

    def test_rank_one_collapses_to_theta_power(self):
        # For Sigma = theta e1 e1', p_j = theta^j, and the partition-weight
        # sum identity (sum of weights over partitions of k equals
        # (1/2)_k / k!) forces C_k = theta^k exactly.
        theta = 0.75
        d = 6
        s = np.zeros((d, d))
        s[0, 0] = theta
        ps = power_sums(s, 15)
        for k in range(1, 16):
            assert zonal_value(k, ps) == pytest.approx(theta**k, rel=1e-11), k

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(3, 8))
            s = random_symmetric(rng, d)
            q = haar_orthogonal(rng, d)
            rotated = q @ s @ q.T
            ps_a = power_sums(s, 6)
            ps_b = power_sums(rotated, 6)
            for k in range(1, 7):
                assert zonal_value(k, ps_a) == pytest.approx(
                    zonal_value(k, ps_b), rel=1e-9, abs=1e-12
                )

    def test_requires_enough_powers(self):
        ps = power_sums(np.eye(3), 2)
        with pytest.raises(InsufficientPowersError):
            zonal_value(3, ps)


class TestScaledValue:
    def test_order_zero_is_one(self):
        assert zonal_value_exact(0, [2]) == 1
        assert scaled_zonal_value(0, power_table(np.array([2.0, 0.5]), 1)) == 1.0

    def test_consistent_with_zonal_value(self):
        rng = np.random.default_rng(13)
        s = random_symmetric(rng, 5)
        ps = power_sums(s, 10)
        table = power_table(ps.p, 10)
        fact = 1.0
        for k in range(1, 11):
            fact *= k
            scaled = scaled_zonal_value(k, table)
            assert scaled * fact == pytest.approx(zonal_value(k, ps), rel=1e-12)


class TestZonalGradient:
    def test_first_order_is_identity(self):
        s = np.diag([1.0, 2.0, 3.0])
        ps = power_sums(s, 2)
        g = zonal_gradient(1, ps)
        assert g.coeffs == pytest.approx([1.0])
        assert np.array_equal(materialize(g, s), np.eye(3))

    def test_second_order_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            s = random_symmetric(rng, d)
            ps = power_sums(s, 2)
            g = zonal_gradient(2, ps)
            t1 = ps.p[1]
            assert g.coeffs == pytest.approx([2.0 * t1 / 3.0, 4.0 / 3.0], rel=1e-13, abs=1e-13)
            expected = (2.0 / 3.0) * (t1 * np.eye(d) + 2.0 * s)
            assert np.allclose(materialize(g, s), expected, rtol=1e-12, atol=1e-12)

    def test_third_order_closed_form(self):
        # C_3 = (p1^3 + 6 p1 p2 + 8 p3) / 15, so the gradient polynomial is
        # (3 p1^2 + 6 p2)/15 * I + (12 p1 / 15) * Sigma + (24/15) * Sigma^2.
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            s = random_symmetric(rng, d)
            ps = power_sums(s, 3)
            g = zonal_gradient(3, ps)
            p1, p2 = ps.p[1], ps.p[2]
            expected = [
                (3.0 * p1**2 + 6.0 * p2) / 15.0,
                12.0 * p1 / 15.0,
                24.0 / 15.0,
            ]
            assert g.coeffs == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_gradient_matches_finite_differences_of_value(self):
        # Central differences of C_k(Sigma) in the symmetric-matrix sense
        # (off-diagonal entries move in pairs, derivative halved).
        rng = np.random.default_rng(31)
        d = 4
        s = random_symmetric(rng, d)
        h = 1e-6
        for k in range(1, 6):
            ps = power_sums(s, k)
            grad = materialize(zonal_gradient(k, ps), s)
            for i in range(d):
                for j in range(i, d):
                    bump = np.zeros((d, d))
                    bump[i, j] = h
                    bump[j, i] = h
                    fp = zonal_value(k, power_sums(s + bump, k))
                    fm = zonal_value(k, power_sums(s - bump, k))
                    quotient = (fp - fm) / (2.0 * h)
                    if i != j:
                        quotient *= 0.5
                    assert grad[i, j] == pytest.approx(quotient, rel=2e-5, abs=2e-5), (
                        k,
                        i,
                        j,
                    )

    def test_value_and_gradient_share_one_pass(self, monkeypatch):
        sigma = random_symmetric(np.random.default_rng(9), 6, norm=1.0)
        # References, each from a PowerSums of its own: a pass at its own order.
        value = zonal_value(12, power_sums(sigma, 20))
        coeffs = zonal_gradient(12, power_sums(sigma, 20)).coeffs
        low = zonal_value(5, power_sums(sigma, 20))
        ps = power_sums(sigma, 20)
        calls = count_series_passes(monkeypatch)
        assert zonal_value(12, ps) == value
        assert np.array_equal(zonal_gradient(12, ps).coeffs, coeffs)
        assert calls == [13]
        # A lower order reads the kept pass and keeps the bits of its own.
        assert zonal_value(5, ps) == low
        assert calls == [13]

    def test_trace_zero_second_order(self):
        # With p1 = 0 the leading coefficient vanishes.
        s = np.diag([1.0, -1.0])
        ps = power_sums(s, 2)
        g = zonal_gradient(2, ps)
        assert g.coeffs == pytest.approx([0.0, 4.0 / 3.0])

    def test_scaled_gradient_zero_power_branch_deep(self):
        # Trace-zero matrix at k = 4: partitions containing p1 with
        # multiplicity >= 2 survive differentiation, everything else with
        # p1 drops out.  Compare against finite differences on the scaled
        # value as an independent check.
        s = np.diag([1.0, -1.0, 0.5, -0.5])
        ps = power_sums(s, 4)
        table = power_table(ps.p, 4)
        coeffs = scaled_zonal_gradient(4, table, ps.p)
        h = 1e-6
        grad = materialize(zonal_gradient(4, ps), s)
        for i in range(2):
            bump = np.zeros((4, 4))
            bump[i, i] = h
            fp = zonal_value(4, power_sums(s + bump, 4))
            fm = zonal_value(4, power_sums(s - bump, 4))
            assert grad[i, i] == pytest.approx((fp - fm) / (2 * h), rel=5e-5)
        assert len(coeffs) == 4


class TestBoundCoefficients:
    def test_polynomials_agree_exactly(self):
        for k in range(1, 16):
            assert bound_coefficient_poly(k) == bound_coefficient_closed_poly(k)

    def test_values_agree(self):
        for k in range(1, 13):
            for d in (4, 10, 100, 62501):
                a = bound_coefficient(k, d)
                b = bound_coefficient_closed(k, d)
                assert a == pytest.approx(b, rel=1e-13)

    def test_known_small_cases(self):
        # k = 1: single partition (1), weight 1/2, factor d^{1/2};
        # a_1 = sqrt(d) / 2.
        for d in (4, 9, 25):
            assert bound_coefficient(1, d) == pytest.approx(np.sqrt(d) / 2.0, rel=1e-14)
        # k = 2: partitions (2,0) weight 1/8 -> d, (0,1) weight 1/4 -> 1;
        # a_2 = d/8 + 1/4.
        for d in (4, 10, 100):
            assert bound_coefficient(2, d) == pytest.approx(d / 8.0 + 0.25, rel=1e-14)

    def test_upper_bound_by_half_sqrt_pochhammer(self):
        # a_k <= (sqrt(d)/2)_k / k!  (rising factorial of sqrt(d)/2).
        import math

        for d in (9, 100, 10000):
            s = np.sqrt(d)
            for k in range(1, 14):
                rising = 1.0
                for i in range(k):
                    rising *= s / 2.0 + i
                bound = rising / math.factorial(k)
                assert bound_coefficient(k, d) <= bound * (1 + 1e-12)
