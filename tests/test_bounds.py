"""Tail bounds, admissibility thresholds, order selection, and (d, m) grids.

The main oracle is an in-test re-derivation of both bound formulas from
their statements, written independently of the implementation; frozen
reference values pin specific cells so a silent formula change cannot
pass.
"""

import math
import re

import numpy as np
import pytest

import binghamx.bounds as bounds
from binghamx import (
    BASE_GROWTH,
    DimensionMismatchError,
    GrowthRegime,
    InadmissibleDimensionError,
    OrderRangeError,
    OrderSelectionError,
    admissible_dimension,
    admissible_dimension_inverse,
    compare_bounds,
    first_order_inverse_ratio,
    gradient_tail_bound,
    inverse_tail_bound,
    norm_const_tail_bound,
    regime_check,
    round_half_up,
    select_order,
    tail_bound_table,
)

R_HALF = GrowthRegime(scale=1.0, exponent=0.5)
R_ZERO = GrowthRegime(scale=1.0, exponent=0.0)


def reference_value_bound(m, d, scale, r):
    """The value tail bound recomputed from its statement."""
    g1 = (1.0 + math.sqrt(3.0)) / 2.0
    g2 = scale * g1
    g3 = 2.0 ** 1.5 * math.sqrt(math.e) / g1
    return g3 * g2**m / math.sqrt(math.factorial(m + 1)) * d ** (-m * (1.0 - r) / 2.0)


def reference_gradient_bound(m, d, scale, r):
    """The gradient tail bound recomputed from its statement."""
    g1 = (1.0 + math.sqrt(3.0)) / 2.0
    g2 = scale * g1
    exp = -(1.0 + (m - 1) * (1.0 - r)) / 2.0
    return math.sqrt(2.0 * math.e) * g2 ** (m - 1) / math.sqrt(math.factorial(m - 1)) * d**exp


class TestConstants:
    def test_base_growth(self):
        assert BASE_GROWTH == pytest.approx((1.0 + math.sqrt(3.0)) / 2.0, rel=1e-16)
        assert BASE_GROWTH == pytest.approx(1.3660254037844386, rel=1e-15)


class TestGrowthRegime:
    def test_cap(self):
        assert GrowthRegime(2.0, 0.5).cap(16.0) == pytest.approx(4.0, rel=1e-15)
        assert GrowthRegime(0.9, 0.0).cap(1000.0) == 0.9

    def test_validation(self):
        with pytest.raises(OrderRangeError):
            GrowthRegime(scale=0.0)
        with pytest.raises(OrderRangeError):
            GrowthRegime(scale=-1.0)
        with pytest.raises(OrderRangeError):
            GrowthRegime(scale=1.0, exponent=1.0)
        with pytest.raises(OrderRangeError):
            GrowthRegime(scale=1.0, exponent=-0.1)

    def test_regime_check(self):
        d = 9
        small = np.eye(d) * 0.1
        assert regime_check(small, GrowthRegime(1.0, 0.0), d)
        big = np.eye(d)  # Frobenius norm exactly 3
        assert not regime_check(big, GrowthRegime(1.0, 0.0), d)
        assert regime_check(big, GrowthRegime(3.0, 0.0), d)  # boundary: norm == cap
        # Squaring 1e160 overflows; the norm stays finite and fits the cap.
        assert regime_check(np.diag([1e160, 0.0]), GrowthRegime(2e160, 0.0), 2)
        with pytest.raises(DimensionMismatchError):
            regime_check(big, GrowthRegime(1.0, 0.0), 8)

    @pytest.mark.parametrize("shape, size", [
        ((30, 7), "shape (30, 7)"),
        ((30,), "shape (30,)"),
        ((7, 7), "dimension 7"),
    ], ids=["rectangular", "one-dimensional", "square"])
    def test_regime_check_of_another_shape(self, shape, size):
        # Any Sigma but (d, d) is rejected, also when its first axis is d.
        with pytest.raises(DimensionMismatchError,
                           match=re.escape(f"matrix has {size}, call asked for d = 30")):
            regime_check(np.full(shape, 0.01), GrowthRegime(1.0, 0.0), 30)


class TestThresholds:
    def test_value_threshold_values(self):
        two_g1_sq = 2.0 * BASE_GROWTH**2  # = 2 + sqrt(3)
        assert admissible_dimension(R_ZERO) == pytest.approx(two_g1_sq, rel=1e-14)
        assert admissible_dimension(R_ZERO) == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-14)
        assert admissible_dimension(R_HALF) == pytest.approx(13.928203230275509, rel=1e-13)
        assert admissible_dimension(GrowthRegime(1.0, 0.75)) == pytest.approx(
            193.9948452238571, rel=1e-12
        )

    def test_inverse_threshold_values(self):
        assert admissible_dimension_inverse(R_ZERO) == pytest.approx(
            6.0 * BASE_GROWTH**2, rel=1e-14
        )
        assert admissible_dimension_inverse(R_HALF) == pytest.approx(
            125.35382907247958, rel=1e-13
        )

    def test_scaling_in_gamma0(self):
        # Thresholds scale as scale^(2/(1-r)).
        for r in (0.0, 0.5):
            base = admissible_dimension(GrowthRegime(1.0, r))
            scaled = admissible_dimension(GrowthRegime(2.0, r))
            assert scaled == pytest.approx(base * 4.0 ** (1.0 / (1.0 - r)), rel=1e-12)

    def test_overflowing_power_is_infinite(self):
        # (2 g2^2)^100 exceeds float64: no d is admissible, and the
        # dimension check reports the infinite threshold.
        regime = GrowthRegime(1e150, 0.99)
        assert admissible_dimension(regime) == math.inf
        assert admissible_dimension_inverse(regime) == math.inf
        with pytest.raises(InadmissibleDimensionError, match="need d >= inf"):
            norm_const_tail_bound(3, 1e300, regime)


class TestValueBound:
    def test_frozen_reference_cell(self):
        assert norm_const_tail_bound(3, 20.0, R_HALF) == pytest.approx(
            0.18781560289809351, rel=1e-13
        )

    def test_matches_independent_rederivation(self):
        for scale, r in ((1.0, 0.5), (1.0, 0.0), (0.9, 0.0), (1.3, 0.25)):
            regime = GrowthRegime(scale, r)
            d0 = admissible_dimension(regime)
            for m in (1, 2, 3, 6, 10, 20):
                for d in (d0, d0 * 2, 100 + d0, 62501.0):
                    got = norm_const_tail_bound(m, d, regime)
                    ref = reference_value_bound(m, d, scale, r)
                    assert got == pytest.approx(ref, rel=1e-12), (scale, r, m, d)

    def test_decreasing_in_d_and_m(self):
        ds = [20.0, 25.0, 50.0, 1000.0, 62501.0]
        for m in (1, 3, 6, 10):
            vals = [norm_const_tail_bound(m, d, R_HALF) for d in ds]
            assert vals == sorted(vals, reverse=True)
        for d in ds:
            vals = [norm_const_tail_bound(m, d, R_HALF) for m in range(1, 21)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_admissibility_boundary(self):
        thr = admissible_dimension(R_HALF)
        assert norm_const_tail_bound(3, thr, R_HALF) > 0.0  # equality allowed
        with pytest.raises(InadmissibleDimensionError) as err:
            norm_const_tail_bound(3, thr - 1e-9, R_HALF)
        assert err.value.threshold == pytest.approx(thr, rel=1e-15)

    def test_order_validation(self):
        with pytest.raises(OrderRangeError):
            norm_const_tail_bound(0, 100.0, R_HALF)
        with pytest.raises(OrderRangeError):
            norm_const_tail_bound(41, 100.0, R_HALF)


class TestGradientBound:
    def test_frozen_reference_cell(self):
        assert gradient_tail_bound(3, 20.0, R_HALF) == pytest.approx(
            0.15382778874430997, rel=1e-13
        )

    def test_matches_independent_rederivation(self):
        for scale, r in ((1.0, 0.5), (1.0, 0.0), (0.9, 0.0), (1.3, 0.25)):
            regime = GrowthRegime(scale, r)
            d0 = admissible_dimension(regime)
            for m in (2, 3, 6, 10, 20):
                for d in (d0, d0 * 2, 100 + d0, 62501.0):
                    got = gradient_tail_bound(m, d, regime)
                    ref = reference_gradient_bound(m, d, scale, r)
                    assert got == pytest.approx(ref, rel=1e-12), (scale, r, m, d)

    def test_requires_m_at_least_two(self):
        with pytest.raises(OrderRangeError):
            gradient_tail_bound(1, 100.0, R_HALF)

    def test_admissibility(self):
        with pytest.raises(InadmissibleDimensionError):
            gradient_tail_bound(3, 10.0, R_HALF)


class TestPowerOverflow:
    """g2^m alone overflows float64 while the bound itself is tiny."""

    REGIME = GrowthRegime(scale=1e10, exponent=0.9)
    D = float(10**206)

    @staticmethod
    def log_reference(m, d, scale, r, gradient):
        """Both bounds recomputed in logarithms, which cannot overflow."""
        g2 = scale * (1.0 + math.sqrt(3.0)) / 2.0
        if gradient:
            return math.exp(0.5 * math.log(2.0 * math.e) + (m - 1) * math.log(g2)
                            - 0.5 * math.lgamma(m)
                            - (1.0 + (m - 1) * (1.0 - r)) / 2.0 * math.log(d))
        g3 = 2.0 ** 1.5 * math.sqrt(math.e) * 2.0 / (1.0 + math.sqrt(3.0))
        return math.exp(math.log(g3) + m * math.log(g2) - 0.5 * math.lgamma(m + 2)
                        - m * (1.0 - r) / 2.0 * math.log(d))

    def test_bounds_finite_where_the_power_overflows(self):
        with pytest.raises(OverflowError):
            (1e10 * BASE_GROWTH) ** 40
        for m in (32, 33, 40):
            got = norm_const_tail_bound(m, self.D, self.REGIME)
            ref = self.log_reference(m, self.D, 1e10, 0.9, gradient=False)
            assert got == pytest.approx(ref, rel=1e-9), m
            got = gradient_tail_bound(m, self.D, self.REGIME)
            ref = self.log_reference(m, self.D, 1e10, 0.9, gradient=True)
            assert got == pytest.approx(ref, rel=1e-9), m

    def test_cli_prints_the_table(self, capsys):
        from binghamx.cli import run

        code = run(["bounds", "--gamma0", "1e10", "--r", "0.9", "--d", str(10**206),
                    "--m", "2,40", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[2].startswith("1e+206,0.65324393342170883,")


class TestInverseBound:
    def test_ratio_at_threshold(self):
        # b1 at the inverse threshold is 2 e^(1/2) / (g1 sqrt(6)) < 1,
        # independent of the regime.
        expected = 2.0 * math.sqrt(math.e) / (BASE_GROWTH * math.sqrt(6.0))
        assert expected == pytest.approx(0.9854687011676537, rel=1e-13)
        for regime in (R_HALF, R_ZERO, GrowthRegime(0.9, 0.0)):
            thr = admissible_dimension_inverse(regime)
            assert first_order_inverse_ratio(thr, regime) == pytest.approx(
                expected, rel=1e-12
            )

    def test_strictly_above_threshold_required(self):
        thr = admissible_dimension_inverse(R_ZERO)
        with pytest.raises(InadmissibleDimensionError):
            inverse_tail_bound(3, thr, R_ZERO)
        assert inverse_tail_bound(3, thr * 1.001, R_ZERO) > 0.0

    def test_formula_composition(self):
        # inverse bound = value bound at l plus b1^2 / (1 - b1).
        for regime in (R_ZERO, GrowthRegime(0.9, 0.0)):
            d = 4.0 * admissible_dimension_inverse(regime)
            for l in (2, 3, 6):
                b1 = first_order_inverse_ratio(d, regime)
                expected = norm_const_tail_bound(l, d, regime) + b1 * b1 / (1.0 - b1)
                assert inverse_tail_bound(l, d, regime) == pytest.approx(
                    expected, rel=1e-14
                )

    def test_decreasing_in_d(self):
        ds = [12.0, 15.0, 20.0, 50.0, 500.0]
        vals = [inverse_tail_bound(3, d, R_ZERO) for d in ds]
        assert vals == sorted(vals, reverse=True)


class TestNonFiniteDimension:
    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bound", [norm_const_tail_bound, gradient_tail_bound,
                                       inverse_tail_bound])
    def test_rejected_as_the_regime_scale_is(self, bound, d):
        # nan read as below the admissible dimension and +inf gave a bound of
        # 0.0; a non-finite d fails as a non-finite regime scale does.
        with pytest.raises(OrderRangeError) as exc:
            bound(3, d, R_ZERO)
        assert str(exc.value) == f"d must be finite and positive, got {d}"
        with pytest.raises(OrderRangeError, match="must be finite and positive, got inf"):
            GrowthRegime(scale=math.inf)


class TestCompareBounds:
    def test_crossover_at_m6_r_half(self):
        # 4 d^0.5 vs 42: crossover between d = 110 and d = 111.
        assert compare_bounds(6, 110.0, R_HALF) == "norm_const"
        assert compare_bounds(6, 111.0, R_HALF) == "gradient"

    def test_exact_tie(self):
        # 4 * 1 * 2.25^0.5 = 6.0 = 2 * 3 exactly in floating point.
        assert compare_bounds(2, 2.25, R_HALF) == "tie"

    def test_agrees_with_direct_comparison(self):
        for regime in (R_HALF, R_ZERO, GrowthRegime(0.9, 0.0)):
            d0 = max(admissible_dimension(regime), 15.0)
            for m in range(2, 13):
                for d in (d0, 2.0 * d0, 60.0 + d0, 1000.0, 62501.0):
                    bv = norm_const_tail_bound(m, d, regime)
                    bg = gradient_tail_bound(m, d, regime)
                    if abs(bv - bg) <= 1e-12 * max(bv, bg):
                        continue  # too close to call through floats
                    want = "norm_const" if bv < bg else "gradient"
                    assert compare_bounds(m, d, regime) == want, (regime, m, d)


class TestSelectOrder:
    def test_frozen_selections(self):
        assert select_order(R_HALF, 20.0, 0.01) == 6
        assert select_order(R_HALF, 62501.0, 0.001) == 3

    def test_returned_order_is_minimal(self):
        for d in (20.0, 100.0, 5000.0):
            for eps in (0.05, 0.005, 1e-6):
                m = select_order(R_HALF, d, eps)
                worst = max(
                    norm_const_tail_bound(m, d, R_HALF),
                    gradient_tail_bound(m, d, R_HALF),
                )
                assert worst <= eps
                if m > 2:
                    prev = max(
                        norm_const_tail_bound(m - 1, d, R_HALF),
                        gradient_tail_bound(m - 1, d, R_HALF),
                    )
                    assert prev > eps

    def test_never_below_two(self):
        assert select_order(R_HALF, 62501.0, 1e6) == 2

    def test_unreachable_eps(self):
        with pytest.raises(OrderSelectionError) as err:
            select_order(R_HALF, 14.0, 1e-30)
        assert err.value.best_bound > 1e-30
        assert 2 <= err.value.best_order <= 40
        assert str(err.value) == (
            "no order up to 40 reaches eps = 1e-30; "
            "best achievable bound is 5.596926e-30 at m = 40"
        )

    def test_worst_bound_strictly_decreasing(self):
        # Why the last order searched carries the best achievable bound.
        for exponent in (0.0, 0.5, 0.9):
            for scale in (0.5, 1.0, 2.0):
                regime = GrowthRegime(scale, exponent)
                low = max(admissible_dimension(regime), 2.0)
                for d in (low, 1.5 * low, 10.0 * low, 1e3 * low):
                    value = [norm_const_tail_bound(m, d, regime) for m in range(2, 41)]
                    grad = [gradient_tail_bound(m, d, regime) for m in range(2, 41)]
                    assert all(a > b for a, b in zip(value, value[1:])), (regime, d)
                    assert all(a > b for a, b in zip(grad, grad[1:])), (regime, d)
                    with pytest.raises(OrderSelectionError) as err:
                        select_order(regime, d, min(value[-1], grad[-1]) / 2.0)
                    assert err.value.best_order == 40
                    assert err.value.best_bound == max(value[-1], grad[-1])

    def test_validation(self):
        with pytest.raises(OrderRangeError):
            select_order(R_HALF, 20.0, 0.0)
        with pytest.raises(InadmissibleDimensionError):
            select_order(R_HALF, 10.0, 0.01)


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.000005) == "0.00001"
        assert round_half_up(-0.000005) == "-0.00001"
        assert round_half_up(0.123455) == "0.12346"
        assert round_half_up(0.0) == "0.00000"
        assert round_half_up(0.18781560289809351) == "0.18782"

    def test_numpy_scalar_accepted(self):
        assert round_half_up(np.float64(0.18781560289809351)) == "0.18782"

    def test_every_float64_formats(self):
        # 28-digit decimal arithmetic rejected every |x| >= 1e23 and +-inf.
        assert round_half_up(1e23) == "1" + "0" * 23 + ".00000"
        assert round_half_up(-1.4178711120436609e27) == "-1417871112043661" + "0" * 12 + ".00000"
        top = np.finfo(float).max
        assert round_half_up(top) == "17976931348623157" + "0" * 292 + ".00000"
        assert round_half_up(-top) == "-17976931348623157" + "0" * 292 + ".00000"
        assert round_half_up(np.inf) == "Infinity"
        assert round_half_up(-np.inf) == "-Infinity"
        assert round_half_up(np.nan) == "NaN"
        assert round_half_up(-0.0) == "-0.00000"
        assert round_half_up(5e-324) == "0.00000"


class TestTables:
    def test_grid_matches_point_functions(self):
        table = tail_bound_table(R_HALF, [20.0, 100.0], [3, 6, 10])
        for grid in (table.norm_const_bounds, table.gradient_bounds):
            assert [len(row) for row in grid] == [3, 3]
        for a, d in enumerate(table.d_values):
            for b, m in enumerate(table.m_values):
                assert table.norm_const_bounds[a][b] == norm_const_tail_bound(
                    m, d, R_HALF
                )
                assert table.gradient_bounds[a][b] == gradient_tail_bound(m, d, R_HALF)

    def test_markdown_rendering(self, capsys):
        from binghamx.cli import run

        code = run(["bounds", "--gamma0", "1", "--r", "0.5", "--d", "20",
                    "--m", "3,6,10"])
        assert code == 0
        header = "| d | m = 3 | m = 6 | m = 10 |\n|---|---|---|---|\n"
        assert capsys.readouterr().out == (
            "(a) normalizing-constant tail bound\n\n" + header
            + "| 20 | 0.18782 | 0.00349 | 0.00001 |\n\n"
            "(b) gradient tail bound\n\n" + header
            + "| 20 | 0.15383 | 0.00535 | 0.00002 |\n"
        )

    def test_empty_grid_rejected(self):
        with pytest.raises(OrderRangeError):
            tail_bound_table(R_HALF, [], [3])

    def test_orders_checked_before_any_bound(self, monkeypatch):
        def no_bound(*args):
            raise AssertionError("a bound was evaluated before the orders were checked")

        monkeypatch.setattr(bounds, "norm_const_tail_bound", no_bound)
        monkeypatch.setattr(bounds, "gradient_tail_bound", no_bound)
        for m_values in ([3, 50], [0], [1, 3]):
            with pytest.raises(OrderRangeError, match=r"m must be in 2\.\.40"):
                tail_bound_table(R_HALF, [20.0], m_values)
