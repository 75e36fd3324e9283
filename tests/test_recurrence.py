"""The generating-function recurrence behind every floating-point series.

Psi, 1/Psi, grad Psi, C_k and grad C_k are evaluated by the O(m^2)
recurrence k e_k = 1/2 sum_j p_j e_{k-j} over the power sums.  Oracles,
none of which shares code with it:

* exact partition sums in Fractions (``zonal_value_exact`` and a direct
  differentiation of the same sum) for k <= 12, on random rational power
  sums, one of them with an exact p_1 = 0;
* the float64 partition sums ``scaled_zonal_value`` /
  ``scaled_zonal_gradient`` times (1/2)_k / (d/2)_k, formed here as the
  sequential product of the factors (1/2 + i) / (d/2 + i), for m <= 25;
* the recurrence itself run in exact rationals, at d = 10^6 and m = 40,
  on a diagonal input given by its power sums.

Every comparison is relative to the sum of the absolute values of the
terms, so cancellation in the series cannot fail it.  A guard test keeps
partition enumeration off the hot path.

The recurrence keeps its (m, a) tables in a bounded cache.  Its terms,
and the gradient coefficients reduced from them, are checked bit for bit
against a copy that builds every table on each call, and the cached
tables against in-place writes.
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
        for pm in enumerate_partitions(k):
            il = pm.i[l - 1]
            if not il:
                continue
            prod = Fraction(il)
            for j, ij in enumerate(pm.i, start=1):
                e = ij - 1 if j == l else ij
                if e:
                    prod *= Fraction(powers[j]) ** e
            total += partition_weight(pm) * prod
        out.append(l * total)
    return out


def random_rational_powers(rng, kmax, d):
    """[d, p_1, ..., p_kmax] as Fractions with small random denominators."""
    return [Fraction(d)] + [
        Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 10)))
        for _ in range(kmax)
    ]


def as_power_sums(powers, d):
    return PowerSums(d=d, p=np.array([float(x) for x in powers]))


def exact_cases():
    rng = np.random.default_rng(41)
    cases = [random_rational_powers(rng, 12, 7) for _ in range(3)]
    cases[1][1] = Fraction(0)
    return cases


class TestAgainstExactPartitionSums:
    @pytest.mark.parametrize("powers", exact_cases())
    def test_zonal_value_and_gradient(self, powers):
        ps = as_power_sums(powers, 7)
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

    @pytest.mark.parametrize("powers", exact_cases())
    @pytest.mark.parametrize("d", [7, 100])
    def test_series_value_inverse_gradient(self, powers, d):
        ps = as_power_sums([Fraction(d)] + powers[1:], d)
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


def float_reference_cases():
    rng = np.random.default_rng(43)
    cases = []
    for d in (5, 100):
        cases.append((d, power_sums(random_symmetric(rng, d, norm=1.5), 25)))
        ps = power_sums(random_trace_zero(rng, d, norm=1.5), 25)
        p = ps.p.copy()
        p[1] = 0.0
        cases.append((d, PowerSums(d=d, p=p)))
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
        # dyadic values n/8 with random multiplicities, so its power sums
        # are exact rationals; it is never materialized as a matrix.
        d, m = 10**6, 40
        values = [Fraction(n, 8) for n in range(-8, 17)]
        counts = np.random.default_rng(47).multinomial(d, [1 / len(values)] * len(values))
        q = [Fraction(d)] + [
            sum(int(c) * v**j for c, v in zip(counts, values)) for j in range(1, m)
        ]
        ps = PowerSums(d=d, p=np.array([float(x) for x in q]))
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
        p = bit_identity_inputs()[kind]
        ps = PowerSums(d=20, p=p)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in ORDERS:
                _, want_g = uncached_series_pass(p, k + 1, 0.5)
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
        p = bit_identity_inputs()["random"]
        ps = PowerSums(d=20, p=p)
        want_t, want_g = (x.copy() for x in pass_and_gradient(p, 40, 10.0))
        want_grad = norm_const_gradient_truncated(ps, 40, 20).coeffs.copy()
        want_zonal = zonal_gradient(40, ps).coeffs.copy()
        for _ in range(2):
            t, g = pass_and_gradient(p, 40, 10.0)
            assert_same_bits(t, want_t)
            assert_same_bits(g, want_g)
            t[:] = np.nan
            g[:] = np.nan
            coeffs = norm_const_gradient_truncated(ps, 40, 20).coeffs
            assert_same_bits(coeffs, want_grad)
            coeffs[:] = np.nan
            coeffs = zonal_gradient(40, ps).coeffs
            assert_same_bits(coeffs, want_zonal)
            coeffs[:] = np.nan

    def test_cache_is_bounded_and_its_size_stated(self):
        maxsize = _series_tables.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
        # zonal_value(MAX_ORDER, ps) runs the largest order, MAX_ORDER + 1.
        tables = _series_tables(MAX_ORDER + 1, 0.5)
        assert [table.shape for table in tables] == [(MAX_ORDER + 1, MAX_ORDER)] * 3
        entry = sum(table.nbytes for table in tables)
        doc = " ".join(_series_tables.__doc__.split())
        assert f"{entry:,} bytes" in doc
        assert f"{maxsize * entry:,} bytes" in doc
