"""The generating-function recurrence behind every floating-point series.

Psi, 1/Psi, grad Psi, C_k and grad C_k are evaluated by the O(m^2)
recurrence k e_k = 1/2 sum_j p_j e_{k-j} over the power sums.  Oracles,
none of which shares code with it:

* exact partition sums in Fractions (``zonal_value_exact`` and a direct
  differentiation of the same sum) for k <= 12, on the power sums of
  random dyadic spectra, which float64 holds exactly, one of them with
  p_1 = 0;
* the float64 partition sums ``scaled_zonal_value`` /
  ``scaled_zonal_gradient`` times (1/2)_k / (d/2)_k, formed here as the
  sequential product of the factors (1/2 + i) / (d/2 + i), for m <= 25;
* the recurrence itself run in exact rationals, at d = 10^6 and m = 40,
  on the power sums of a diagonal input given by its spectrum.

Every comparison is relative to the sum of the absolute values of the
terms, so cancellation in the series cannot fail it.  A guard test keeps
partition enumeration off the hot path.

The recurrence keeps one table per (pass order, a) in a bounded cache.
Its terms, and the gradient coefficients reduced from them, are checked
bit for bit against a copy that builds every table on each call, and the
cached tables against in-place writes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_symmetric, random_trace_zero

from binghamx import (
    MAX_ORDER,
    PowerSums,
    covariance_expansion,
    half_pochhammer,
    inverse_norm_const_truncated,
    norm_const_gradient_truncated,
    norm_const_truncated,
    partition_weight,
    power_sums,
    zonal_gradient,
    zonal_value,
    zonal_value_exact,
)
from binghamx import partitions, zonal
from binghamx.partitions import enumerate_partitions
from binghamx.zonal import (
    _gradient_coeffs,
    _series_pass,
    _series_tables,
    power_table,
    scaled_zonal_gradient,
    scaled_zonal_value,
)

RTOL = 1e-13


def exact_gradient_sum(k, powers):
    """l * dS/dp_l for l = 1..k, S the partition sum of C_k (1/2)_k / k!."""
    out = []
    for l in range(1, k + 1):
        total = Fraction(0)
        for i in enumerate_partitions(k):
            il = i[l - 1]
            if not il:
                continue
            prod = Fraction(il)
            for j, ij in enumerate(i, start=1):
                e = ij - 1 if j == l else ij
                if e:
                    prod *= Fraction(powers[j]) ** e
            total += partition_weight(i) * prod
        out.append(l * total)
    return out


def trace_zero_dyadic_spectrum(rng, d):
    """d eigenvalues n/8 with |n| <= 16, as Fractions, summing to zero."""
    while True:
        n = rng.integers(-16, 17, d - 1)
        if abs(n.sum()) <= 16:
            return [Fraction(int(x), 8) for x in (*n, -n.sum())]


def exact_power_sums(spectrum, d):
    """The PowerSums of ``spectrum`` padded with zeros to dimension d, and its
    p_0 .. p_12 as Fractions, which p equals: each of the seven nonzero
    lambda_i^j (j <= 12) is a multiple of 2^-36 of size at most 2^12, so
    every partial sum is exact in float64."""
    ps = PowerSums([float(x) for x in spectrum] + [0.0] * (d - len(spectrum)), 12)
    powers = [Fraction(d)] + [sum(x**j for x in spectrum) for j in range(1, 13)]
    assert ps.p.tolist() == powers
    return ps, powers


def exact_cases():
    """Three random dyadic spectra of dimension 7; the second has p_1 = 0."""
    rng = np.random.default_rng(41)
    cases = [[Fraction(int(n), 8) for n in rng.integers(-16, 17, 7)] for _ in range(3)]
    cases[1] = trace_zero_dyadic_spectrum(rng, 7)
    return cases


EXACT_IDS = [f"powers{i}" for i in range(3)]


class TestAgainstExactPartitionSums:
    @pytest.mark.parametrize("spectrum", exact_cases(), ids=EXACT_IDS)
    def test_zonal_value_and_gradient(self, spectrum):
        ps, powers = exact_power_sums(spectrum, 7)
        magnitudes = [abs(x) for x in powers]
        for k in range(1, 13):
            scale = float(zonal_value_exact(k, magnitudes))
            got = zonal_value(k, ps)
            assert type(got) is float
            assert abs(got - float(zonal_value_exact(k, powers))) <= RTOL * scale, k

            factor = Fraction(math.factorial(k)) / half_pochhammer(k)
            want = [float(factor * c) for c in exact_gradient_sum(k, powers)]
            bound = [float(factor * c) for c in exact_gradient_sum(k, magnitudes)]
            coeffs = zonal_gradient(k, ps).coeffs
            assert coeffs.dtype == np.float64 and len(coeffs) == k
            for l in range(k):
                assert abs(coeffs[l] - want[l]) <= RTOL * bound[l], (k, l)

    @pytest.mark.parametrize("spectrum", exact_cases(), ids=EXACT_IDS)
    @pytest.mark.parametrize("d", [7, 100])
    def test_series_value_inverse_gradient(self, spectrum, d):
        ps, powers = exact_power_sums(spectrum, d)
        magnitudes = [abs(x) for x in powers]
        terms, scales = [Fraction(1)], [Fraction(1)]
        grads, grad_scales = [], []
        poch = Fraction(1)
        for k in range(1, 13):
            poch *= Fraction(d, 2) + k - 1
            coef = half_pochhammer(k) / (math.factorial(k) * poch)
            terms.append(coef * zonal_value_exact(k, powers))
            scales.append(coef * zonal_value_exact(k, magnitudes))
            grads.append([c / poch for c in exact_gradient_sum(k, powers)])
            grad_scales.append([c / poch for c in exact_gradient_sum(k, magnitudes)])
        for m in (2, 3, 7, 13):
            scale = float(sum(scales[:m]))
            got = norm_const_truncated(ps, m, d)
            assert type(got) is float
            assert abs(got - float(sum(terms[:m]))) <= RTOL * scale, m
            inv = inverse_norm_const_truncated(ps, m, d)
            assert type(inv) is float
            assert abs(inv - float(1 - sum(terms[1:m]))) <= RTOL * scale, m
            coeffs = norm_const_gradient_truncated(ps, m, d).coeffs
            assert coeffs.dtype == np.float64 and len(coeffs) == m - 1
            for l in range(m - 1):
                want = sum(g[l] for g in grads[l : m - 1])
                bound = sum(g[l] for g in grad_scales[l : m - 1])
                assert abs(coeffs[l] - float(want)) <= RTOL * float(bound), (m, l)


def plus_minus_spectrum(lam, d):
    """lambda_1, -lambda_1, lambda_2, -lambda_2, ..., padded with zeros to d.

    numpy sums each pair, and each block of pairs, to an exact zero, so
    every odd power sum is an exact zero.
    """
    spectrum = np.zeros(d)
    spectrum[0 : 2 * len(lam) : 2] = lam
    spectrum[1 : 2 * len(lam) : 2] = -lam
    return spectrum


def float_reference_cases():
    """A dense matrix's power sums and a +-lambda spectrum's, whose odd p_j
    are exact zeros, at d = 5 and 100."""
    rng = np.random.default_rng(43)
    cases = []
    for d in (5, 100):
        cases.append((d, power_sums(random_symmetric(rng, d, norm=1.5), 25)))
        lam = np.linalg.eigvalsh(random_symmetric(rng, d // 2, norm=1.5 / math.sqrt(2)))
        ps = PowerSums(plus_minus_spectrum(lam, d), 25)
        assert not ps.p[1::2].any()
        cases.append((d, ps))
    return cases


class TestAgainstFloatPartitionSums:
    @pytest.mark.parametrize("d, ps", float_reference_cases())
    def test_series(self, d, ps):
        table = power_table(ps.p, 25)
        ratios = [1.0]
        for i in range(24):
            ratios.append(ratios[-1] * ((0.5 + i) / (d / 2.0 + i)))
        terms = [1.0] + [ratios[k] * scaled_zonal_value(k, table) for k in range(1, 25)]
        grads = [ratios[k] * scaled_zonal_gradient(k, table, ps.p) for k in range(1, 25)]
        for m in (2, 3, 12, 25):
            scale = math.fsum(abs(t) for t in terms[:m])
            assert abs(norm_const_truncated(ps, m, d) - math.fsum(terms[:m])) <= RTOL * scale
            inv = inverse_norm_const_truncated(ps, m, d)
            assert abs(inv - (1.0 - math.fsum(terms[1:m]))) <= RTOL * scale
            coeffs = norm_const_gradient_truncated(ps, m, d).coeffs
            for l in range(m - 1):
                parts = [g[l] for g in grads[l : m - 1]]
                bound = math.fsum(abs(x) for x in parts)
                assert abs(coeffs[l] - math.fsum(parts)) <= RTOL * bound, (m, l)

    @pytest.mark.parametrize("d, ps", float_reference_cases())
    def test_zonal(self, d, ps):
        table = power_table(ps.p, 25)
        abs_table = power_table(np.abs(ps.p), 25)
        for k in range(1, 26):
            fact = float(math.factorial(k))
            scale = fact * scaled_zonal_value(k, abs_table)
            want = fact * scaled_zonal_value(k, table)
            assert abs(zonal_value(k, ps) - want) <= RTOL * scale, k
            bound = fact * scaled_zonal_gradient(k, abs_table, np.abs(ps.p))
            want = fact * scaled_zonal_gradient(k, table, ps.p)
            diff = np.abs(zonal_gradient(k, ps).coeffs - want)
            assert np.all(diff <= RTOL * bound), k


class TestHugeDimension:
    def test_diagonal_d_million_m40(self):
        # (d/2)_39 is about 10^222 at d = 10^6.  The diagonal takes 25
        # dyadic values n/8 with random multiplicities; it is never
        # materialized as a matrix.  The exact recurrence runs on the
        # exact values of the float power sums.
        d, m = 10**6, 40
        values = np.arange(-8, 17) / 8
        counts = np.random.default_rng(47).multinomial(d, [1 / len(values)] * len(values))
        ps = PowerSums(np.repeat(values, counts), m - 1)
        q = [Fraction(x) for x in ps.p]
        e = [Fraction(1)]
        for k in range(1, m):
            e.append(sum(q[j] * e[k - j] for j in range(1, k + 1)) / (2 * k))
        poch = [Fraction(1)]
        for k in range(1, m):
            poch.append(poch[-1] * (Fraction(d, 2) + k - 1))
        terms = [a / b for a, b in zip(e, poch)]
        # Scale: the same recurrence on |p_j|, which bounds every partial
        # product and sum of the signed one.
        e_abs = [Fraction(1)]
        for k in range(1, m):
            e_abs.append(sum(abs(q[j]) * e_abs[k - j] for j in range(1, k + 1)) / (2 * k))
        scale = float(sum(a / b for a, b in zip(e_abs, poch)))

        got = norm_const_truncated(ps, m, d)
        assert abs(got - float(sum(terms))) <= RTOL * scale
        inv = inverse_norm_const_truncated(ps, m, d)
        assert abs(inv - float(1 - sum(terms[1:]))) <= RTOL * scale
        coeffs = norm_const_gradient_truncated(ps, m, d).coeffs
        assert len(coeffs) == m - 1 and np.all(np.isfinite(coeffs))
        for l in range(1, m):
            want = sum(e[k - l] / poch[k] for k in range(l, m)) / 2
            bound = sum(e_abs[k - l] / poch[k] for k in range(l, m)) / 2
            assert abs(coeffs[l - 1] - float(want)) <= RTOL * float(bound), l


class TestNoPartitionsOnHotPath:
    def test_m40_without_partition_data(self, monkeypatch):
        def trap(*args):
            raise AssertionError("partition data used on the hot path")

        monkeypatch.setattr(zonal, "_partition_data", trap)
        monkeypatch.setattr(partitions, "_enumerate_cached", trap)
        s = random_trace_zero(np.random.default_rng(53), 20, 1.0)
        ps = power_sums(s, 40)
        table = power_table(ps.p, 5)
        with pytest.raises(AssertionError):
            scaled_zonal_value(5, table)
        with pytest.raises(AssertionError):
            enumerate_partitions(5)

        assert np.isfinite(norm_const_truncated(ps, 40, 20))
        assert np.isfinite(inverse_norm_const_truncated(ps, 40, 20))
        assert np.all(np.isfinite(norm_const_gradient_truncated(ps, 40, 20).coeffs))
        assert np.all(np.isfinite(covariance_expansion(ps, s, 40, 40, 20)))
        assert np.isfinite(zonal_value(40, ps))
        assert np.all(np.isfinite(zonal_gradient(40, ps).coeffs))


def uncached_series_pass(p, m, a):
    """The recurrence with every (m, a) table built on each call: the terms
    t and the gradient rows g, g[k, l-1] the coefficient of Sigma^(l-1) in
    grad t[k]."""
    shift = np.arange(m)[:, None] - np.arange(1, m)[None, :]  # k - j
    below = shift >= 0
    shift = np.maximum(shift, 0)
    inv = 1.0 / (a + np.arange(m - 1))
    ratio = np.cumprod(np.where(below, inv[shift], 1.0), axis=1)
    weights = p[1:m] * ratio
    t = np.empty(m)
    t[0] = 1.0
    for k in range(1, m):
        t[k] = weights[k, :k] @ t[k - 1::-1] / (2 * k)
    g = np.where(below, 0.5 * ratio * t[shift], 0.0)
    return t, g


def assert_same_bits(got, want):
    """Equal shape, dtype and bytes: equal values, signs of zero and NaNs."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()


ORDERS = (1, 2, 3, 12, 40)
PARAMETERS = (0.5, 1, 10, 50, 31250.5, 5e5)


def bit_identity_inputs():
    """p_0..p_40 of each kind: random, all zero, exact zeros of both signs
    at chosen j, all negative, large, and so large that terms overflow."""
    rng = np.random.default_rng(59)
    random = rng.standard_normal(41)
    zeros_at = random.copy()
    zeros_at[[1, 2, 7]] = 0.0
    zeros_at[[3, 11, 39]] = -0.0
    return {
        "random": random,
        "zero": np.zeros(41),
        "zeros_at": zeros_at,
        "negative": -np.abs(rng.standard_normal(41)),
        "large": 1e6 * rng.standard_normal(41),
        "overflow": 1e200 * rng.standard_normal(41),
    }


def pass_and_gradient(p, m, a):
    """The terms of one pass at order m and the order-m gradient coefficients."""
    t = _series_pass(p, m, a)
    return t, _gradient_coeffs(t, m, a)


class TestCachedTables:
    @pytest.mark.parametrize("kind", sorted(bit_identity_inputs()))
    def test_bit_identical_to_uncached_pass(self, kind):
        p = bit_identity_inputs()[kind]
        with np.errstate(over="ignore", invalid="ignore"):
            for m in ORDERS:
                for a in PARAMETERS:
                    want_t, want_g = uncached_series_pass(p, m, a)
                    t, coeffs = pass_and_gradient(p, m, a)
                    assert_same_bits(t, want_t)
                    assert_same_bits(coeffs, want_g.sum(axis=0))

    @pytest.mark.parametrize("kind", sorted(bit_identity_inputs()))
    def test_zonal_gradient_is_the_reference_row(self, kind):
        # zonal_gradient's row, the cached half[k] times the reversed terms
        # of one a = 1/2 pass, is the reference's order-k gradient row on
        # any p; on a spectrum's p, zonal_gradient returns k! times it.
        p = bit_identity_inputs()[kind]
        ps = PowerSums(np.random.default_rng(61).standard_normal(20), 40)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in ORDERS:
                _, want_g = uncached_series_pass(p, k + 1, 0.5)
                t = _series_pass(p, k + 1, 0.5)
                assert_same_bits(_series_tables(k + 1, 0.5)[2][k] * t[k - 1 :: -1], want_g[k])
                _, want_g = uncached_series_pass(ps.p, k + 1, 0.5)
                want = float(math.factorial(k)) * want_g[k]
                assert_same_bits(zonal_gradient(k, ps).coeffs, want)

    @pytest.mark.parametrize("kind", sorted(bit_identity_inputs()))
    def test_higher_order_pass_gives_the_same_bits(self, kind):
        # A pass to order M >= m holds the order-m terms and gradient
        # coefficients bit for bit, so one pass serves every lower order.
        p = bit_identity_inputs()[kind]
        with np.errstate(over="ignore", invalid="ignore"):
            for a in PARAMETERS:
                want = {m: pass_and_gradient(p, m, a) for m in range(1, MAX_ORDER + 2)}
                for big in range(1, MAX_ORDER + 2):
                    t = _series_pass(p, big, a)
                    for m in range(1, big + 1):
                        assert_same_bits(t[:m], want[m][0])
                        assert_same_bits(_gradient_coeffs(t, m, a), want[m][1])

    def test_repeat_after_other_orders_and_parameters(self):
        p = bit_identity_inputs()["random"]
        keys = [(m, a) for m in ORDERS for a in PARAMETERS]
        _series_tables.cache_clear()
        first = {key: pass_and_gradient(p, *key) for key in keys}
        # More keys than the cache holds: every entry is evicted and rebuilt.
        for key in reversed(keys):
            t, coeffs = pass_and_gradient(p, *key)
            assert_same_bits(t, first[key][0])
            assert_same_bits(coeffs, first[key][1])

    def test_tables_are_read_only(self):
        for table in _series_tables(12, 5.0):
            with pytest.raises(ValueError):
                table[1, 0] = 1
            with pytest.raises(ValueError):
                table *= 2

    def test_writes_into_results_do_not_reach_the_next_call(self):
        ps = PowerSums(np.random.default_rng(67).standard_normal(20), 40)
        p = ps.p
        want_t, want_g = (x.copy() for x in pass_and_gradient(p, 40, 10.0))
        want_grad = norm_const_gradient_truncated(ps, 40, 20).coeffs.copy()
        want_zonal = zonal_gradient(40, ps).coeffs.copy()
        for _ in range(2):
            t, g = pass_and_gradient(p, 40, 10.0)
            assert_same_bits(t, want_t)
            assert_same_bits(g, want_g)
            t[:] = np.nan
            g[:] = np.nan
            # The series gradient is the one ps keeps, shared by every caller:
            # its coefficients are read-only.
            coeffs = norm_const_gradient_truncated(ps, 40, 20).coeffs
            assert_same_bits(coeffs, want_grad)
            with pytest.raises(ValueError, match="read-only"):
                coeffs[:] = np.nan
            coeffs = zonal_gradient(40, ps).coeffs
            assert_same_bits(coeffs, want_zonal)
            coeffs[:] = np.nan

    def test_cache_is_bounded_and_its_size_stated(self):
        maxsize = _series_tables.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
        # A PowerSums with K >= MAX_ORDER runs the largest order, MAX_ORDER + 1.
        tables = _series_tables(MAX_ORDER + 1, 0.5)
        assert [table.shape for table in tables] == [(MAX_ORDER + 1, MAX_ORDER)] * 3
        entry = sum(table.nbytes for table in tables)
        doc = " ".join(_series_tables.__doc__.split())
        assert f"{entry:,} bytes" in doc
        assert f"{maxsize * entry:,} bytes" in doc
