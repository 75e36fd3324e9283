"""Truncated expansions of the normalizing constant and covariance.

Oracles:

* Sigma = theta * e1 e1' makes the series collapse to partial sums of a
  confluent hypergeometric series (independent implementation in
  ``binghamx.oracle``), term for term;
* Sigma = theta * I_d has the closed limit exp(theta);
* gradients are compared with symmetric-matrix finite differences of the
  truncated value itself (same truncation, so agreement is to quadrature
  error only);
* the second-order covariance expansion has a hand-expanded closed form;
* the derived covariance bound, which takes ||G||_F from the eigenvalues,
  is checked against the same formula on the materialized G;
* Psi_m of a spectrum with a few rational eigenvalues, and the
  coefficients of its gradient, are checked against their exact-rational
  values (``spectral_reference``).
"""

import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import spectral_reference
from conftest import (
    count_series_passes,
    random_symmetric,
    random_trace_zero,
    record_table_orders,
)

from binghamx import (
    DimensionMismatchError,
    MatrixValidationError,
    GradientPolynomial,
    GrowthRegime,
    InadmissibleDimensionError,
    InsufficientPowersError,
    OrderRangeError,
    PowerSums,
    alpha_descriptor,
    alpha_exponent,
    covariance_derived_bound,
    covariance_expansion,
    covariance_second_order,
    fd_gradient,
    inverse_norm_const_truncated,
    kummer_partial_sum,
    materialize,
    norm_const_gradient_truncated,
    norm_const_truncated,
    power_sums,
)
from binghamx import series, symmat, zonal
from binghamx.bounds import admissible_dimension_inverse, gradient_tail_bound, inverse_tail_bound
from binghamx.partitions import MAX_ORDER
from binghamx.symmat import frobenius_norm
from binghamx.zonal import (
    _gradient_coeffs,
    _series_pass,
    _series_tables,
    zonal_gradient,
    zonal_value,
)


def raising(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return fail


class TestDimensionChecks:
    def test_power_sums_of_another_dimension(self):
        ps = power_sums(0.1 * np.eye(3), 4)
        with pytest.raises(DimensionMismatchError, match="power sums are for d = 3"):
            norm_const_truncated(ps, 3, 4)
        with pytest.raises(DimensionMismatchError, match="power sums are for d = 3"):
            norm_const_gradient_truncated(ps, 3, 4)

    def test_matrix_of_another_dimension(self):
        ps = power_sums(0.1 * np.eye(4), 4)
        with pytest.raises(DimensionMismatchError, match="matrix has dimension 3"):
            covariance_second_order(0.1 * np.eye(3), 4)
        with pytest.raises(DimensionMismatchError, match="matrix has dimension 3"):
            covariance_expansion(ps, 0.1 * np.eye(3), 2, 3, 4)

    @pytest.mark.parametrize("shape", [(30, 7), (7, 30), (30,), (30, 30, 1)])
    def test_matrix_of_another_shape(self, shape, monkeypatch):
        # A Sigma that is not (d, d) is rejected, naming its shape, before
        # any series work or matrix product.
        d = 30
        ps = power_sums(random_trace_zero(np.random.default_rng(7), d, 0.5), 11)
        regime = GrowthRegime(scale=1.0, exponent=0.0)
        monkeypatch.setattr(series, "materialize", raising("materialize"))
        monkeypatch.setattr(series, "_terms", raising("_terms"))
        sigma = np.full(shape, 0.01)
        calls = [lambda: covariance_derived_bound(ps, sigma, 3, 12, d, regime),
                 lambda: covariance_expansion(ps, sigma, 3, 12, d),
                 lambda: covariance_second_order(sigma, d)]
        for call in calls:
            with pytest.raises(DimensionMismatchError,
                               match=re.escape(f"matrix has shape {shape}, call asked for d = 30")):
                call()


class TestNonFiniteSigma:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (3, 5)], ids=["diagonal", "off-diagonal"])
    def test_covariance_calls_reject(self, bad, where):
        # As power_sums does, instead of returning nan.
        d = 12
        sigma = random_trace_zero(np.random.default_rng(9), d, 0.5)
        ps = power_sums(sigma, 11)
        for s in (sigma.copy(), np.diag(np.diag(sigma))):
            s[where] = bad
            for call in (lambda: covariance_expansion(ps, s, 3, 4, d),
                         lambda: covariance_expansion(ps, s, 3, 12, d),
                         lambda: covariance_second_order(s, d)):
                with pytest.raises(MatrixValidationError, match="^matrix has non-finite entries$"):
                    call()


class TestNormConstTruncated:
    def test_rank_one_equals_kummer_partial_sum(self):
        # m counts series terms, matching the partial-sum term count.
        # Bit-for-bit match is not required, but the two should agree to
        # a few ulps since both sum the same rational-coefficient terms.
        for theta in (0.3, -0.8, 2.0):
            for d in (3, 10, 50):
                s = np.zeros((d, d))
                s[0, 0] = theta
                ps = power_sums(s, 12)
                for m in (1, 3, 6, 12):
                    got = norm_const_truncated(ps, m, d)
                    want = kummer_partial_sum(d / 2.0, theta, m)
                    assert got == pytest.approx(want, rel=1e-13), (theta, d, m)

    def test_scaled_identity_approaches_exp(self):
        # Psi(theta * I) = exp(theta) exactly in the limit; with m = 25
        # the truncation error is far below double precision for small
        # theta.
        for theta in (0.5, -0.5, 1.0):
            for d in (3, 8):
                ps = power_sums(theta * np.eye(d), 25)
                got = norm_const_truncated(ps, 25, d)
                assert got == pytest.approx(math.exp(theta), rel=1e-13)

    def test_single_term_is_one(self):
        ps = power_sums(np.diag([1.0, -2.0, 0.5]), 1)
        assert norm_const_truncated(ps, 1, 3) == 1.0

    def test_two_terms_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(2, 10))
            s = random_symmetric(rng, d)
            ps = power_sums(s, 1)
            assert norm_const_truncated(ps, 2, d) == pytest.approx(
                1.0 + ps.p[1] / d, rel=1e-14
            )

    def test_three_terms_closed_form(self):
        # term_2 = (1/2)_2/(d/2)_2 * C_2 / 2! with (1/2)_2 = 3/4,
        # (d/2)_2 = d(d+2)/4, C_2 = (t1^2 + 2 t2)/3.
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(2, 10))
            s = random_symmetric(rng, d)
            ps = power_sums(s, 2)
            t1, t2 = ps.p[1], ps.p[2]
            expected = 1.0 + t1 / d + (t1**2 + 2.0 * t2) / (2.0 * d * (d + 2.0))
            assert norm_const_truncated(ps, 3, d) == pytest.approx(expected, rel=1e-13)

    def test_monotone_in_m_for_positive_matrix(self):
        # All series terms are positive when Sigma is PSD with nonzero
        # trace, so partial sums increase (strictly until the added term
        # falls below one ulp of the running sum).
        s = np.diag([0.5, 0.25, 0.1, 0.0])
        ps = power_sums(s, 15)
        vals = [norm_const_truncated(ps, m, 4) for m in range(1, 16)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(b > a for a, b in zip(vals[:8], vals[1:8]))

    def test_order_validation(self):
        ps = power_sums(np.eye(3), 2)
        with pytest.raises(OrderRangeError):
            norm_const_truncated(ps, 0, 3)
        with pytest.raises(OrderRangeError):
            norm_const_truncated(ps, 41, 3)


# (eigenvalue, multiplicity) pairs; d is the sum of the multiplicities.
EXACT_SPECTRA = {
    "trace-zero-200": [(Fraction(1, 2), 50), (Fraction(-1, 2), 50), (0, 100)],
    "half-identity-1000": [(Fraction(1, 2), 1000)],
    "rank-one-62501": [(Fraction(5, 2), 1), (0, 62500)],
}


def raise_largest(spectrum):
    """The spectrum with one copy of its largest eigenvalue raised by 2^-20."""
    (lam, mult), *rest = sorted(spectrum, reverse=True)
    return [(lam + Fraction(1, 2**20), 1), (lam, mult - 1), *rest]


def rounded_terms(spectrum, m):
    """The recurrence's terms of orders below m at a = d/2, on the spectrum's
    p_0 .. p_(m-1), each correctly rounded: the pass every series call runs."""
    d = spectral_reference.dimension(spectrum)
    p = [float(x) for x in spectral_reference.power_sums(spectrum, m - 1)]
    return _series_pass(np.array(p), m, d / 2.0)


def float_psi(spectrum, m):
    """Psi_m as norm_const_truncated sums it, on the correctly rounded power sums."""
    return float(rounded_terms(spectrum, m).sum())


class TestExactSpectralReference:
    """Psi_m within 8 m 2^-53 sum |t_k| of the exact sum of its terms t_k."""

    @staticmethod
    def misses(value, terms, m):
        tol = 8 * m * Fraction(1, 2**53) * sum(abs(t) for t in terms)
        return abs(Fraction(value) - sum(terms)) > tol

    @pytest.mark.parametrize("m", [6, 20, 40])
    @pytest.mark.parametrize("name", EXACT_SPECTRA)
    def test_within_rounding_of_exact(self, name, m):
        spectrum = EXACT_SPECTRA[name]
        terms = spectral_reference.series_terms(spectrum, m)
        assert not self.misses(float_psi(spectrum, m), terms, m)

    @pytest.mark.parametrize("m", [6, 20, 40])
    @pytest.mark.parametrize("name", EXACT_SPECTRA)
    def test_perturbed_spectrum_fails(self, name, m):
        # The raised eigenvalue moves the exact Psi_m past the tolerance,
        # and the check tells the float value of one from the exact other.
        spectrum, raised = EXACT_SPECTRA[name], raise_largest(EXACT_SPECTRA[name])
        terms = spectral_reference.series_terms(spectrum, m)
        assert self.misses(float(sum(spectral_reference.series_terms(raised, m))), terms, m)
        assert self.misses(float_psi(raised, m), terms, m)

    def test_reference_terms(self):
        # Sigma = I / 2 has t_k = 2^-k / k!, and Psi = e^(1/2).
        terms = spectral_reference.series_terms([(Fraction(1, 2), 7)], 6)
        assert terms == [Fraction(1, 2**k * math.factorial(k)) for k in range(6)]


class TestExactGradientReference:
    """Each coefficient c_l of grad Psi_m within 8 m 2^-53 of the exact c_l
    computed from |p_j|, which majorizes every term of the sum."""

    @staticmethod
    def shares(coeffs, spectrum, m):
        """|coeffs[l] - c_l| as a share of the tolerance, for each l."""
        d = spectral_reference.dimension(spectrum)
        p = spectral_reference.power_sums(spectrum, m - 1)
        exact = spectral_reference.gradient_coefficients(p, d, m)
        majorant = spectral_reference.gradient_coefficients([abs(x) for x in p], d, m)
        return [abs(Fraction(c) - e) / (8 * m * Fraction(1, 2**53) * a)
                for c, e, a in zip(coeffs, exact, majorant)]

    @staticmethod
    def float_coeffs(spectrum, m):
        """grad Psi_m as norm_const_gradient_truncated reduces it, on the
        correctly rounded power sums."""
        d = spectral_reference.dimension(spectrum)
        return _gradient_coeffs(rounded_terms(spectrum, m), m, d / 2.0)

    @pytest.mark.parametrize("m", [6, 20, 40])
    @pytest.mark.parametrize("name", EXACT_SPECTRA)
    def test_within_rounding_of_exact(self, name, m):
        worst = max(self.shares(self.float_coeffs(EXACT_SPECTRA[name], m), EXACT_SPECTRA[name], m))
        print(f"grad coefficients, {name}, m = {m}: worst error {float(worst):.3g} of the tolerance")
        assert worst <= 1

    @pytest.mark.parametrize("m", [6, 20, 40])
    @pytest.mark.parametrize("name", EXACT_SPECTRA)
    def test_perturbed_spectrum_fails(self, name, m):
        # The raised eigenvalue moves some exact c_l past the tolerance, and
        # the check tells the float coefficients of one from the exact other.
        spectrum, raised = EXACT_SPECTRA[name], raise_largest(EXACT_SPECTRA[name])
        d = spectral_reference.dimension(raised)
        exact = spectral_reference.gradient_coefficients(
            spectral_reference.power_sums(raised, m - 1), d, m)
        assert max(self.shares(exact, spectrum, m)) > 1
        assert max(self.shares(self.float_coeffs(raised, m), spectrum, m)) > 1

    def test_reference_coefficients(self):
        # Sigma = I / 2 in d = 2: Psi_3 = 1 + t1/2 + (t1^2 + 2 t2)/16 has
        # gradient (1/2 + t1/8) I + Sigma/4, and t1 = 1 here.
        p = spectral_reference.power_sums([(Fraction(1, 2), 2)], 2)
        assert spectral_reference.gradient_coefficients(p, 2, 3) == [Fraction(5, 8),
                                                                     Fraction(1, 4)]


class TestGradient:
    def test_m3_closed_coefficients(self):
        # T_3 = 1 + t1/d + (t1^2 + 2 t2)/(2 d (d+2)) has gradient
        # [1/d + t1/(d(d+2))] I + [2/(d(d+2))] Sigma.
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(2, 10))
            s = random_symmetric(rng, d)
            ps = power_sums(s, 2)
            g = norm_const_gradient_truncated(ps, 3, d)
            t1 = ps.p[1]
            c0 = 1.0 / d + t1 / (d * (d + 2.0))
            c1 = 2.0 / (d * (d + 2.0))
            assert g.coeffs == pytest.approx([c0, c1], rel=1e-13)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for d in (3, 5):
            s = random_symmetric(rng, d)
            for m in (2, 3, 4, 7):
                ps = power_sums(s, m - 1)
                grad = materialize(norm_const_gradient_truncated(ps, m, d), s)

                def f(mat, m=m, d=d):
                    return norm_const_truncated(power_sums(mat, m - 1), m, d)

                fd = fd_gradient(f, s, 1e-6)
                assert np.allclose(grad, fd, rtol=5e-6, atol=5e-8), (d, m)

    def test_m2_gradient_constant(self):
        # T_2 = 1 + t1 / d, gradient = I / d for any Sigma.
        s = np.diag([3.0, -1.0])
        ps = power_sums(s, 1)
        g = norm_const_gradient_truncated(ps, 2, 2)
        assert g.coeffs == pytest.approx([0.5])

    def test_order_validation(self):
        ps = power_sums(np.eye(3), 2)
        with pytest.raises(OrderRangeError):
            norm_const_gradient_truncated(ps, 1, 3)


class TestInverse:
    def test_is_one_minus_partial_sum(self):
        # The inverse expansion drops quadratic-and-higher powers of the
        # first-order remainder: 1/(1 + x) ~ 1 - x with x the sum of
        # series terms 1..l-1.  Equivalently it equals 2 - T_l exactly.
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = int(rng.integers(4, 12))
            s = random_symmetric(rng, d, norm=0.6)
            ps = power_sums(s, 8)
            for l in (2, 3, 5, 8):
                inv = inverse_norm_const_truncated(ps, l, d)
                assert inv == pytest.approx(2.0 - norm_const_truncated(ps, l, d), rel=1e-14)

    def test_close_to_true_reciprocal_when_terms_small(self):
        # For small ||Sigma|| relative to sqrt(d) the dropped quadratic
        # part is tiny, so 1 - x tracks 1/(1 + x).
        rng = np.random.default_rng(13)
        d = 100
        s = random_symmetric(rng, d, norm=0.5)
        ps = power_sums(s, 6)
        inv = inverse_norm_const_truncated(ps, 6, d)
        x = norm_const_truncated(ps, 6, d) - 1.0
        assert abs(inv - 1.0 / (1.0 + x)) <= 1.1 * x**2

    def test_order_validation(self):
        ps = power_sums(np.eye(3), 2)
        with pytest.raises(OrderRangeError):
            inverse_norm_const_truncated(ps, 1, 3)

    def test_positive_for_admissible_inputs(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            d = int(rng.integers(12, 40))
            s = random_symmetric(rng, d, norm=0.9)
            ps = power_sums(s, 3)
            assert inverse_norm_const_truncated(ps, 3, d) > 0.0


VALUE_ONLY = {"psi": (norm_const_truncated, 1), "inverse": (inverse_norm_const_truncated, 2)}


class TestValueOnlyCallers:
    """Psi_m and the truncated inverse run one series pass."""

    @pytest.mark.parametrize("name", sorted(VALUE_ONLY))
    def test_one_series_pass(self, name, monkeypatch):
        # Every order reads the one pass at K + 1, whether or not K + 1
        # is the order asked for.
        function, _ = VALUE_ONLY[name]
        sigma = random_trace_zero(np.random.default_rng(37), 20, norm=0.8)
        calls = count_series_passes(monkeypatch)
        for order in (2, 12, 40):
            for K in (order - 1, 39):
                calls.clear()
                function(power_sums(sigma, K), order, 20)
                assert calls == [K + 1]

    @pytest.mark.parametrize("name", sorted(VALUE_ONLY))
    def test_checks_before_any_work(self, name, monkeypatch):
        function, low = VALUE_ONLY[name]
        ps = power_sums(np.diag([0.3, -0.3, 0.1, -0.1, 0.0]), 11)
        monkeypatch.setattr(zonal, "_series_pass", raising("_series_pass"))
        for order in (low - 1, 41):
            with pytest.raises(OrderRangeError):
                function(ps, order, 5)
        with pytest.raises(InsufficientPowersError):
            function(ps, 13, 5)
        with pytest.raises(DimensionMismatchError):
            function(ps, 12, 6)


def series_calls(ps, sigma, l, m, d, regime):
    """The five series calls of one matrix, in the benchmark's order."""
    return [
        norm_const_truncated(ps, m, d),
        inverse_norm_const_truncated(ps, m, d),
        norm_const_gradient_truncated(ps, m, d).coeffs,
        covariance_expansion(ps, sigma, l, m, d),
        covariance_derived_bound(ps, sigma, l, m, d, regime),
    ]


class TestOnePassPerPowerSums:
    """A PowerSums keeps its series terms: one pass per matrix and a, at order K + 1."""

    REGIME = GrowthRegime(scale=0.9, exponent=0.0)

    def test_five_calls_run_one_pass(self, monkeypatch):
        d = 20
        sigma = random_trace_zero(np.random.default_rng(53), d, norm=0.8)
        ps = power_sums(sigma, 39)
        calls = count_series_passes(monkeypatch)
        series_calls(ps, sigma, 3, 40, d, self.REGIME)
        assert calls == [40]

    def test_every_order_reads_the_one_pass(self, monkeypatch):
        d = 20
        sigma = random_trace_zero(np.random.default_rng(59), d, norm=0.8)
        ps = power_sums(sigma, 39)
        calls = count_series_passes(monkeypatch)
        series_calls(ps, sigma, 3, 12, d, self.REGIME)
        assert calls == [40]
        norm_const_truncated(ps, 40, d)
        for order in (2, 12, 39, 40):
            series_calls(ps, sigma, min(order, 3), order, d, self.REGIME)
        assert calls == [40]

    def test_one_pass_per_parameter(self, monkeypatch):
        # zonal_value and zonal_gradient read the a = 1/2 pass, the five
        # series calls the a = d/2 one, whatever their orders.
        d = 20
        sigma = random_trace_zero(np.random.default_rng(79), d, norm=0.8)
        ps = power_sums(sigma, 39)
        passes = []

        def recorded(p, m, a, real=zonal._series_pass):
            passes.append((m, a))
            return real(p, m, a)

        monkeypatch.setattr(zonal, "_series_pass", recorded)
        zonal_value(12, ps)
        series_calls(ps, sigma, 3, 12, d, self.REGIME)
        zonal_gradient(39, ps)
        series_calls(ps, sigma, 40, 2, d, self.REGIME)
        zonal_value(0, ps)
        assert passes == [(40, 0.5), (40, d / 2.0)]

    def test_one_gradient_reduction_per_order(self, monkeypatch):
        # grad, cov and the derived bound share one _gradient_coeffs per
        # (ps, m): ps keeps the polynomial, whose coefficients are read-only.
        d = 20
        sigma = random_trace_zero(np.random.default_rng(61), d, norm=0.8)
        ps = power_sums(sigma, 39)
        orders = []

        def recorded(t, m, a, real=zonal._gradient_coeffs):
            orders.append(m)
            return real(t, m, a)

        monkeypatch.setattr(series, "_gradient_coeffs", recorded)
        for m in (40, 12, 40, 3):
            series_calls(ps, sigma, 3, m, d, self.REGIME)
        assert orders == [40, 12, 3]
        g = norm_const_gradient_truncated(ps, 40, d)
        assert g is norm_const_gradient_truncated(ps, 40, d)
        assert not g.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g.coeffs[0] = 0.0
        # Another PowerSums of the same matrix keeps its own.
        norm_const_gradient_truncated(power_sums(sigma, 39), 40, d)
        assert orders == [40, 12, 3, 40]

    def test_pass_order_stops_at_max_order_plus_one(self, monkeypatch):
        # Power sums past MAX_ORDER enter no order a caller may ask for:
        # K = 1000 runs one pass at MAX_ORDER + 1, and no table of the
        # bounded cache is built for a higher order.
        d = 20
        sigma = random_trace_zero(np.random.default_rng(83), d, norm=0.8)
        ps = power_sums(sigma, 1000)
        orders = record_table_orders(monkeypatch)
        calls = count_series_passes(monkeypatch)
        norm_const_truncated(ps, 2, d)
        assert calls == [MAX_ORDER + 1]
        series_calls(ps, sigma, 40, 40, d, self.REGIME)
        zonal_value(40, ps)
        zonal_gradient(40, ps)
        assert calls == [MAX_ORDER + 1] * 2
        assert set(orders) == {MAX_ORDER + 1}

    @pytest.mark.parametrize("call", [
        lambda ps, sigma, d: norm_const_gradient_truncated(ps, 12, d),
        lambda ps, sigma, d: zonal_gradient(5, ps),
        lambda ps, sigma, d: covariance_expansion(ps, sigma, 3, 12, d),
    ], ids=["gradient", "zonal-gradient", "covariance"])
    def test_one_table_per_pass(self, call, monkeypatch):
        # K = 12 runs the pass at order 13, above each order asked for: the
        # gradient reads the pass's own table, so an empty cache builds one.
        d = 20
        sigma = random_trace_zero(np.random.default_rng(89), d, norm=0.8)
        ps = power_sums(sigma, 12)
        _series_tables.cache_clear()
        orders = record_table_orders(monkeypatch)
        call(ps, sigma, d)
        assert set(orders) == {13}
        assert _series_tables.cache_info().misses == 1

    def test_equal_power_sums_share_no_terms(self, monkeypatch):
        ps = power_sums(random_trace_zero(np.random.default_rng(61), 20, norm=0.8), 39)
        twins = [PowerSums(ps.eigenvalues, ps.K), PowerSums(ps.eigenvalues.copy(), ps.K)]
        calls = count_series_passes(monkeypatch)
        for p in (ps, *twins):
            norm_const_truncated(p, 40, 20)
        assert calls == [40, 40, 40]
        assert len({id(p._terms[10.0]) for p in (ps, *twins)}) == 3

    def test_kept_terms_are_read_only(self):
        ps = power_sums(random_trace_zero(np.random.default_rng(67), 20, norm=0.8), 39)
        psi = norm_const_truncated(ps, 40, 20)
        t = ps._terms[10.0]
        with pytest.raises(ValueError):
            t[1] = 5.0
        assert norm_const_truncated(ps, 40, 20) == psi

    @pytest.mark.parametrize("kind", ("dense", "diagonal", "rank_one"))
    def test_shared_pass_keeps_the_bits(self, kind):
        # Each call on a shared PowerSums, in a shuffled order of orders,
        # gives the bits of the same call on a fresh one.
        rng = np.random.default_rng(71)
        d = 30
        sigma = spectral_test_matrix(kind, d, rng, norm=1.5)
        shared = power_sums(sigma, 39)
        orders = [(l, m) for l in (2, 3, 12, 40) for m in (2, 5, 12, 40)]
        for k in rng.permutation(len(orders)):
            l, m = orders[k]
            got = series_calls(shared, sigma, l, m, d, self.REGIME)
            fresh = power_sums(sigma, max(l, m) - 1)  # a pass at order max(l, m)
            want = series_calls(fresh, sigma, l, m, d, self.REGIME)
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), (l, m)


class TestCovariance:
    def test_second_order_closed_form_general(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            d = int(rng.integers(3, 12))
            s = random_symmetric(rng, d, norm=0.7)
            got = covariance_second_order(s, d)
            t1 = float(np.trace(s))
            expected = (1.0 - t1 / d) * (
                np.eye(d) / d + (t1 * np.eye(d) + 2.0 * s) / (d * (d + 2.0))
            )
            assert np.allclose(got, expected, rtol=1e-13, atol=1e-15)

    def test_second_order_equals_expansion_2_3(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            d = int(rng.integers(3, 10))
            s = random_symmetric(rng, d, norm=0.5)
            a = covariance_second_order(s, d)
            b = covariance_expansion(power_sums(s, 3), s, 2, 3, d)
            assert np.allclose(a, b, rtol=1e-13, atol=1e-16)

    def test_trace_zero_simplification(self):
        # tr Sigma = 0 collapses the closed form to I/d + 2 Sigma/(d(d+2)),
        # whose trace is exactly 1.
        rng = np.random.default_rng(20)
        for _ in range(20):
            d = int(rng.integers(3, 15))
            s = random_trace_zero(rng, d, norm=0.8)
            got = covariance_second_order(s, d)
            expected = np.eye(d) / d + 2.0 * s / (d * (d + 2.0))
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-15)
            assert float(np.trace(got)) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_in_place(self, monkeypatch):
        # T is applied to the materialized G in place: the bits of T * G,
        # and no d x d array beyond the one materialize returns.
        rng = np.random.default_rng(26)
        d = 200
        s = random_trace_zero(rng, d, norm=0.8)
        ps = power_sums(s, 11)
        scalar = inverse_norm_const_truncated(ps, 3, d)
        g = materialize(norm_const_gradient_truncated(ps, 12, d), s)
        want = (scalar * g).tobytes()
        monkeypatch.setattr(series, "materialize", lambda *args: g)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = covariance_expansion(ps, s, 3, 12, d)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got is g
        assert got.tobytes() == want
        assert peak < 8 * d * d

    def test_expansion_converges_toward_high_order_reference(self):
        # Increasing both orders must reduce the residual against a very
        # high order evaluation of the same product.
        rng = np.random.default_rng(22)
        d = 20
        s = random_trace_zero(rng, d, norm=0.8)
        ps = power_sums(s, 16)
        ref = covariance_expansion(ps, s, 15, 16, d)
        errs = []
        for l, m in ((2, 3), (3, 4), (4, 6), (8, 12)):
            got = covariance_expansion(ps, s, l, m, d)
            errs.append(float(np.max(np.abs(got - ref))))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-10

    def test_derived_bound_positive_and_shrinks(self):
        regime = GrowthRegime(scale=0.9, exponent=0.0)
        d = 12
        rng = np.random.default_rng(24)
        s = random_trace_zero(rng, d, norm=0.8)
        ps = power_sums(s, 12)
        b_small = covariance_derived_bound(ps, s, 3, 4, d, regime)
        b_big = covariance_derived_bound(ps, s, 6, 12, d, regime)
        assert b_small > b_big > 0.0


class TestAlphaExponent:
    def test_values(self):
        r_half = GrowthRegime(scale=1.0, exponent=0.5)
        assert alpha_exponent(2, r_half) == pytest.approx((2.0 - 0.5) / 2.0)
        assert alpha_exponent(3, r_half) == pytest.approx((3.0 - 2.0 * 0.5) / 2.0)
        assert alpha_exponent(7, r_half) == pytest.approx((3.0 - 2.0 * 0.5) / 2.0)
        r0 = GrowthRegime(scale=1.0, exponent=0.0)
        assert alpha_exponent(2, r0) == pytest.approx(1.0)
        assert alpha_exponent(3, r0) == pytest.approx(1.5)

    def test_descriptor_strings(self):
        r0 = GrowthRegime(scale=1.0, exponent=0.0)
        assert "O(d^-1)" in alpha_descriptor(2, r0)
        assert "O(d^-1.5)" in alpha_descriptor(3, r0)
        assert "(2 - r)/2" in alpha_descriptor(2, None)
        assert "(3 - 2r)/2" in alpha_descriptor(5, None)

    def test_order_validation(self):
        with pytest.raises(OrderRangeError):
            alpha_exponent(1, GrowthRegime(1.0, 0.0))
        with pytest.raises(OrderRangeError, match="m must be >= 2"):
            alpha_descriptor(1, None)


def materialized_derived_bound(ps, sigma, l, m, d, regime):
    """|T| B_g + B_i (||G||_F + B_g) with G materialized at Sigma by dense
    matrix products, T and G from separate series passes: the reference formula."""
    scalar = inverse_norm_const_truncated(ps, l, d)
    grad = materialize(norm_const_gradient_truncated(ps, m, d), sigma)
    b_grad, b_inv = gradient_tail_bound(m, d, regime), inverse_tail_bound(l, d, regime)
    return abs(scalar) * b_grad + b_inv * (frobenius_norm(grad) + b_grad)


def two_pass_factors(ps, l, m, d):
    """T at order l, and the gradient coefficients and Psi_m at order m:
    one series pass at each order."""
    t = _series_pass(ps.p, l, d / 2.0)
    u = _series_pass(ps.p, m, d / 2.0)
    return 1.0 - float(t[1:].sum()), _gradient_coeffs(u, m, d / 2.0), float(u.sum())


def spectral_test_matrix(kind, d, rng, norm=0.8):
    """A dense, diagonal (with +0 and -0), block-diagonal or rank-one Sigma."""
    if kind == "dense":
        return random_symmetric(rng, d, norm=norm)
    if kind == "diagonal":
        v = rng.standard_normal(d)
        v[::4], v[1::4] = 0.0, -0.0
        return np.diag(v * (norm / np.linalg.norm(v)))
    if kind == "block":
        s = np.zeros((d, d))
        for i in range(0, d - 2, 3):
            s[i:i + 3, i:i + 3] = random_symmetric(rng, 3)
        return s * (norm / np.sqrt(np.sum(s * s)))
    e = rng.standard_normal(d)
    return norm * np.outer(e, e) / (e @ e)


def lib_series_batch(seed):
    """The 32 matrices of the benchmark's lib-series batch for ``seed``.

    Dense trace-zero, dense and rank-one in turn, d = 20 and 100 in turn,
    ||Sigma||_F = 1, drawn as ``perfbench/run.py`` draws them.
    """
    rng = np.random.default_rng([seed, 2])  # lib-series is the third workload by name
    sigmas = []
    for i in range(32):
        d, kind = (20, 100)[i % 2], i % 3
        if kind == 0:
            a = rng.standard_normal((d, d))
            s = (a + a.T) / 2.0
            s -= np.trace(s) / d * np.eye(d)
            s *= 1.0 / np.sqrt(np.sum(s * s))
        elif kind == 1:
            a = rng.standard_normal((d, d)) + 0.3
            s = (a + a.T) / 2.0
            s /= np.sqrt(np.sum(s * s))
        else:
            u = rng.standard_normal(d)
            u /= np.sqrt(u @ u)
            s = rng.choice([-1.0, 1.0]) * np.outer(u, u)
        sigmas.append(s)
    return sigmas


class TestSpectralDerivedBound:
    """||G||_F = ||g(lambda)||_2 in the derived covariance bound."""

    REGIME = GrowthRegime(scale=0.9, exponent=0.0)
    ORDERS = ((2, 2), (3, 4), (3, 12), (3, 40), (8, 12))

    @pytest.mark.parametrize("kind", ("dense", "diagonal", "block", "rank_one"))
    @pytest.mark.parametrize("d", (12, 20, 100, 400))
    def test_matches_materialized_formula(self, kind, d, monkeypatch):
        rng = np.random.default_rng(1000 + d)
        sigma = spectral_test_matrix(kind, d, rng)
        ps = power_sums(sigma, 39)
        want = {lm: materialized_derived_bound(ps, sigma, *lm, d, self.REGIME)
                for lm in self.ORDERS}
        monkeypatch.setattr(series, "materialize", raising("materialize"))
        monkeypatch.setattr(symmat, "materialize", raising("materialize"))
        for (l, m), ref in want.items():
            got = covariance_derived_bound(ps, sigma, l, m, d, self.REGIME)
            assert abs(got - ref) <= 1e-15 * ref, (kind, d, l, m)

    def test_cut_is_never_below_the_full_degree_bound(self, monkeypatch):
        # On the benchmark's library batch (seed 1, m = 40), g(lambda) is
        # evaluated to degree 13 or less of 38; the bound with the sqrt(d)
        # tail is at or above its full-degree value, and within 2^-48 of it.
        regime = GrowthRegime(scale=1.0, exponent=0.0)
        cuts, got = [], []
        real = series._tail_cut

        def recorded(coeffs, nu, low, threshold):
            cuts.append(real(coeffs, nu, low, threshold)[0])
            return real(coeffs, nu, low, threshold)

        monkeypatch.setattr(series, "_tail_cut", recorded)
        batch = lib_series_batch(1)
        for sigma in batch:
            got.append(covariance_derived_bound(power_sums(sigma, 39), sigma, 3, 40,
                                                len(sigma), regime))
        assert len(cuts) == len(batch) == 32 and max(cuts) <= 13
        monkeypatch.setattr(series, "_tail_cut",
                            lambda coeffs, nu, low, threshold: (len(coeffs) - 1, 0.0))
        for sigma, bound in zip(batch, got):
            full = covariance_derived_bound(power_sums(sigma, 39), sigma, 3, 40,
                                            len(sigma), regime)
            assert full <= bound <= full * (1 + 2.0**-48)

    def test_cut_is_never_below_the_full_degree_bound_at_random(self, monkeypatch):
        # 600 random trace-zero inputs, d = 10 and 20, ||Sigma||_F = 0.5 and 8,
        # m = 40.  The cut and the full Horner loops end one rounding apart
        # in some g(lambda_i); without the one-ulp round-up of ||g(lambda)||_2
        # 5 of these bounds fall below their full-degree value.
        rng = np.random.default_rng(81)
        sigmas = [random_trace_zero(rng, d, norm) for d in (10, 20) for norm in (0.5, 8.0)
                  for _ in range(150)]

        def bounds():
            return [covariance_derived_bound(power_sums(s, 39), s, 3, 40, len(s), self.REGIME)
                    for s in sigmas]

        cut = bounds()
        monkeypatch.setattr(series, "_tail_cut",
                            lambda coeffs, nu, low, threshold: (len(coeffs) - 1, 0.0))
        full = bounds()
        assert [i for i, (c, f) in enumerate(zip(cut, full)) if c < f] == []
        assert max(c / f for c, f in zip(cut, full)) <= 1 + 2.0**-48

    def test_the_dropped_tail_enters_the_bound(self, monkeypatch):
        # The cut adds sqrt(d) times the tail it dropped to ||g(lambda)||_2:
        # a tail of 1e-6 raises the bound by B_i sqrt(d) 1e-6.
        regime = GrowthRegime(scale=1.0, exponent=0.0)
        sigma = lib_series_batch(1)[3]
        d = len(sigma)
        bound = covariance_derived_bound(power_sums(sigma, 39), sigma, 3, 40, d, regime)
        real = series._tail_cut
        monkeypatch.setattr(series, "_tail_cut", lambda coeffs, nu, low, threshold: (
            real(coeffs, nu, low, threshold)[0], real(coeffs, nu, low, threshold)[1] + 1e-6))
        raised = covariance_derived_bound(power_sums(sigma, 39), sigma, 3, 40, d, regime)
        want = inverse_tail_bound(3, d, regime) * math.sqrt(d) * 1e-6
        assert raised - bound == pytest.approx(want, rel=1e-6)

    def test_cut_keeps_every_term_without_a_threshold(self, monkeypatch):
        # c_0 = 0, nu = 0 or a non-finite quantity leaves the full degree, and nothing warns.
        coeffs = np.array([1.0, 0.5, 0.25, 0.125])
        for args in ((coeffs, 0.0, 0.0), (coeffs, 0.5, 0.0), (coeffs, math.inf, 1.0),
                     (coeffs, math.nan, 1.0), (np.array([1.0, math.nan, 0.0, 1e-300]), 0.5, 1e-9)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert symmat._tail_cut(args[0], args[1], 0, args[2]) == (3, 0.0)
        # A finite case cuts, and returns the dropped tail it summed.
        degree, tail = symmat._tail_cut(coeffs, 0.5, 0, 2.0**-6)
        assert (degree, tail) == (2, 0.125 * 0.5**3)

    def test_one_series_pass(self, monkeypatch):
        rng = np.random.default_rng(31)
        d = 20
        sigma = random_trace_zero(rng, d, norm=0.8)
        ps = power_sums(sigma, 39)
        calls = count_series_passes(monkeypatch)
        covariance_derived_bound(ps, sigma, 3, 40, d, self.REGIME)
        assert calls == [40]
        calls.clear()
        # The pass at order K + 1 = 40 that ps keeps serves the lower orders.
        covariance_derived_bound(ps, sigma, 12, 4, d, self.REGIME)
        assert calls == []
        covariance_derived_bound(power_sums(sigma, 11), sigma, 12, 4, d, self.REGIME)
        assert calls == [12]

    def test_checks_before_any_work(self, monkeypatch):
        # d = 5 is below the inverse-expansion threshold (about 9.07) of this regime.
        assert admissible_dimension_inverse(self.REGIME) > 5
        sigma = np.diag([0.3, -0.3, 0.1, -0.1, 0.0])
        ps = power_sums(sigma, 11)
        for module, name in ((zonal, "_series_pass"), (series, "_gradient_coeffs"),
                             (series, "materialize"), (symmat, "materialize"),
                             (symmat, "power_sums"), (np.linalg, "eigvalsh")):
            monkeypatch.setattr(module, name, raising(name))
        with pytest.raises(InadmissibleDimensionError):
            covariance_derived_bound(ps, sigma, 3, 12, 5, self.REGIME)
        with pytest.raises(OrderRangeError):
            covariance_derived_bound(ps, sigma, 3, 41, 5, self.REGIME)

    @pytest.mark.parametrize("kind", ("dense", "diagonal", "rank_one"))
    def test_one_pass_factors_bit_identical(self, kind):
        # T, g and Psi_m read the one pass ps keeps, at order 40, and have
        # the bits of a pass at their own order.
        rng = np.random.default_rng(47)
        sigma = spectral_test_matrix(kind, 30, rng, norm=1.5)
        ps = power_sums(sigma, 39)
        for l in (2, 3, 4, 7, 12, 25, 40):
            for m in (2, 3, 4, 7, 12, 25, 40):
                scalar = inverse_norm_const_truncated(ps, l, 30)
                grad = norm_const_gradient_truncated(ps, m, 30)
                psi = norm_const_truncated(ps, m, 30)
                ref_scalar, ref_coeffs, ref_psi = two_pass_factors(ps, l, m, 30)
                assert np.float64(scalar).tobytes() == np.float64(ref_scalar).tobytes()
                assert grad.coeffs.tobytes() == ref_coeffs.tobytes(), (l, m)
                assert np.float64(psi).tobytes() == np.float64(ref_psi).tobytes()
                if m in (4, 12):
                    ref = materialize(GradientPolynomial(d=30, coeffs=ref_coeffs), sigma)
                    assert materialize(grad, sigma).tobytes() == ref.tobytes()

    def test_polynomial_values_is_the_diagonal_loop(self):
        # materialize on diagonal Sigma has the same bits on its diagonal.
        v = np.array([0.7, -0.0, 0.0, -1.3, 2.5, 1e-3])
        coeffs = np.array([0.25, -1.5, 3.0, 0.125, -2.0])
        got = symmat.polynomial_values(coeffs, v)
        want = np.zeros_like(v)
        for c in coeffs[::-1]:
            want = want * v + c
        assert got.tobytes() == want.tobytes()
        g = GradientPolynomial(d=6, coeffs=coeffs)
        assert np.diagonal(materialize(g, np.diag(v))).tobytes() == got.tobytes()
