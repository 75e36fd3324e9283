"""Matrix ingestion, power sums, and gradient-polynomial evaluation.

The power-sum oracle is repeated matrix multiplication, independent of
the eigenvalue path used by the implementation.
"""

import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import dense_horner, random_symmetric, random_trace_zero

import binghamx.symmat as symmat
from binghamx import (
    DimensionMismatchError,
    GradientPolynomial,
    GrowthRegime,
    InsufficientPowersError,
    MatrixFormatError,
    MatrixValidationError,
    PowerSums,
    covariance_derived_bound,
    format_matrix,
    frobenius_norm,
    load_matrix,
    materialize,
    norm_const_gradient_truncated,
    norm_const_truncated,
    power_sums,
    symmetrize,
    zonal_gradient,
)


class TestLoadMatrix:
    def test_identity(self):
        a = load_matrix("2\n1 0\n0 1\n")
        assert np.array_equal(a, np.eye(2))

    def test_whitespace_tolerant(self):
        a = load_matrix("  2   1\t0\n\n0    1")
        assert np.array_equal(a, np.eye(2))

    def test_symmetrizes_small_asymmetry(self):
        a = load_matrix("2\n0 1\n1.0000000001 0")
        assert a[0, 1] == a[1, 0] == pytest.approx(1.00000000005, rel=1e-15)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(MatrixValidationError, match="not symmetric"):
            load_matrix("2\n0 1\n0.5 0")

    def test_empty(self):
        with pytest.raises(MatrixFormatError, match="empty"):
            load_matrix("   ")

    def test_bad_header(self):
        with pytest.raises(MatrixFormatError, match="header"):
            load_matrix("two\n1 0\n0 1")

    def test_d_below_two(self):
        with pytest.raises(MatrixValidationError, match=">= 2"):
            load_matrix("1\n5")

    def test_wrong_count_names_position(self):
        with pytest.raises(MatrixFormatError, match=r"row 2, column 2"):
            load_matrix("2\n1 0\n0")

    def test_bad_token_names_position(self):
        with pytest.raises(MatrixFormatError, match=r"row 2, column 1.*'x'"):
            load_matrix("2\n1 0\nx 1")

    @pytest.mark.parametrize("tok", ["1_0", "1e1_0", "\u0661", "1\u0660"])
    def test_only_ascii_decimal_numbers(self, tok):
        # float() reads these as 10, 1e10, 1 and 10; the format does not.
        with pytest.raises(MatrixFormatError,
                           match=rf"^row 1, column 2: expected a number, got '{tok}'$"):
            load_matrix(f"2\n1 {tok}\n{tok} 1")
        with pytest.raises(MatrixFormatError,
                           match=rf"^dimension header must be an integer, got '{tok}'$"):
            load_matrix(f"{tok}\n" + "0 " * 100)

    def test_unicode_whitespace_separates(self):
        a = load_matrix("2\u00a01\u20030\u2028 0\u30001\u0085")
        assert np.array_equal(a, np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(MatrixValidationError, match="non-finite"):
            load_matrix("2\n1 inf\ninf 1")

    def test_entries_near_dbl_max_stay_finite(self):
        # a_ij + a_ji overflows for these pairs; the mean of each pair is finite.
        top = float(np.finfo(float).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = load_matrix("2\n1e308 0\n0 -1e308")
            assert np.array_equal(a, np.diag([1e308, -1e308]))
            b = load_matrix(f"3\n{top!r} 1.5e308 0.1\n1.5000000000000001e308 -{top!r} 0\n"
                            "0.1000000000000001 0 5e-324")
        assert b[0, 0] == top and b[1, 1] == -top
        assert b[0, 1] == b[1, 0] == 1.5e308 / 2 + 1.5000000000000001e308 / 2
        # Pairs whose sum stays finite keep the bits of (a + a') / 2.
        assert b[0, 2] == b[2, 0] == (0.1 + 0.1000000000000001) / 2
        assert b[2, 2] == 5e-324 and b[1, 2] == b[2, 1] == 0.0

    def test_asymmetry_past_dbl_max_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MatrixValidationError, match="relative asymmetry inf"):
                load_matrix("2\n0 1.7e308\n-1.7e308 0")

    def test_format_round_trip(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 7):
            s = random_symmetric(rng, d)
            again = load_matrix(format_matrix(s))
            assert np.array_equal(again, s)


class TestSymmetrize:
    HALF_MAX = float(np.finfo(float).max) / 2.0

    @classmethod
    def edge_matrix(cls, rng, d):
        """Entries up to DBL_MAX / 2 in size, so no pair sum overflows: a
        quarter near +-DBL_MAX / 2, a quarter subnormal, some +-0.0, the rest O(1)."""
        a = rng.standard_normal((d, d))
        kind = rng.integers(0, 8, (d, d))
        near = kind < 2
        a[near] = np.sign(a[near]) * cls.HALF_MAX * rng.uniform(0.999, 1.0, near.sum())
        a[kind == 2] = cls.HALF_MAX
        tiny = (kind == 3) | (kind == 4)
        a[tiny] = rng.integers(-2**52, 2**52, tiny.sum()) * 5e-324
        a[kind == 5] = rng.choice([0.0, -0.0], (kind == 5).sum())
        return a

    @staticmethod
    def mirror_sum(a):
        return (a + a.T) / 2.0

    def test_bits_of_the_mirror_sum(self):
        rng = np.random.default_rng(29)
        for d in (2, 3, 17, 64):
            a = self.edge_matrix(rng, d)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = symmetrize(a)
            assert np.array_equal(got.view(np.int64), self.mirror_sum(a).view(np.int64))

    def test_overflowing_pair_halved_before_adding(self):
        rng = np.random.default_rng(31)
        top = float(np.finfo(float).max)
        a = self.edge_matrix(rng, 9)
        pairs = {(0, 1): (1.5e308, 1.7e308), (2, 7): (-top, -1.2e308), (8, 3): (top, top)}
        for (i, j), (x, y) in pairs.items():
            a[i, j], a[j, i] = x, y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = symmetrize(a)
        for (i, j), (x, y) in pairs.items():
            assert got[i, j] == got[j, i] == x / 2.0 + y / 2.0
        # Every pair whose sum is finite keeps the bits of the plain mirror sum.
        with np.errstate(over="ignore"):
            ref = self.mirror_sum(a)
        finite = np.isfinite(ref)
        assert finite.sum() == 81 - 2 * len(pairs)
        assert np.array_equal(got.view(np.int64)[finite], ref.view(np.int64)[finite])


def ascii_number(tok, kind=float):
    """``kind(tok)``; a token with "_" or a non-ASCII character raises ValueError."""
    if "_" in tok or not tok.isascii():
        raise ValueError(tok)
    return kind(tok)


def reference_load_matrix(text):
    """Parse every token in row-major order: the loader before mirror sharing."""
    tokens = text.split()
    if not tokens:
        raise MatrixFormatError("empty input: expected dimension header")
    try:
        d = ascii_number(tokens[0], int)
    except ValueError:
        raise MatrixFormatError(
            f"dimension header must be an integer, got {tokens[0]!r}"
        ) from None
    if d < 2:
        raise MatrixValidationError(f"dimension must be >= 2, got {d}")
    body = tokens[1:]
    if len(body) != d * d:
        n = min(len(body), d * d)
        row, col = divmod(n, d)
        raise MatrixFormatError(
            f"expected {d * d} entries for d = {d}, got {len(body)} "
            f"(at row {row + 1}, column {col + 1})"
        )
    entries = np.empty(d * d, dtype=np.float64)
    for idx, tok in enumerate(body):
        try:
            entries[idx] = ascii_number(tok)
        except ValueError:
            row, col = divmod(idx, d)
            raise MatrixFormatError(
                f"row {row + 1}, column {col + 1}: expected a number, got {tok!r}"
            ) from None
    a = entries.reshape(d, d)
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise MatrixValidationError(
            f"non-finite entry at row {i + 1}, column {j + 1}"
        )
    asym = np.abs(a - a.T) / (1.0 + np.abs(a))
    worst = float(asym.max())
    if worst > symmat.ASYMMETRY_TOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise MatrixValidationError(
            f"matrix is not symmetric: entries ({i + 1},{j + 1}) and "
            f"({j + 1},{i + 1}) differ, relative asymmetry {worst:.3e} "
            f"exceeds {symmat.ASYMMETRY_TOL:.0e}"
        )
    return (a + a.T) / 2.0


def repr_text(a, lower=repr):
    """``a`` in the text format, upper triangle by repr, lower by ``lower``."""
    d = a.shape[0]
    rows = [[repr(float(x)) if j >= i else lower(float(x)) for j, x in enumerate(r)]
            for i, r in enumerate(a)]
    return f"{d}\n" + "".join(" ".join(r) + "\n" for r in rows)


def benchmark_like(d):
    """Trace-zero symmetric matrix at 0.9 of the (1, 0.5) regime cap."""
    rng = np.random.default_rng([1, 0])
    a = rng.standard_normal((d, d))
    s = (a + a.T) / 2.0
    s -= np.trace(s) / d * np.eye(d)
    return s * (0.9 * d**0.25 / np.sqrt(np.sum(s * s)))


PARSE_CASES = [
    pytest.param("2\n0.5 -0.25\n-0.25 1\n", id="symmetric-d2"),
    pytest.param(repr_text(random_symmetric(np.random.default_rng(2), 6)), id="symmetric-d6"),
    pytest.param("3\n1 0.1 -0\n1e-1 2 1e1\n0 10 3\n", id="mirror-spellings"),
    pytest.param("3\n1 0.1 0\n0.1 2 10\n0 1_0 3\n", id="underscore-below"),
    pytest.param("3\n1 0.1 0\n0.1 2 \u0661\n0 1 3\n", id="arabic-indic-above"),
    pytest.param("2\n1 1_0\n0 x\n", id="underscore-before-bad"),
    pytest.param("2\n1 x\n1_0 1\n", id="bad-before-underscore"),
    pytest.param("3\n1 0 0\n-0 2 -0\n0 0 3\n", id="zero-signs-below"),
    pytest.param("2\n0 1\n1.0000000019 0\n", id="asymmetry-within"),
    pytest.param("2\n0 1\n1.0000000021 0\n", id="asymmetry-beyond"),
    pytest.param("3\n1 0 0\n0 2 0\nnan 0 3\n", id="nan-below"),
    pytest.param("3\n1 0 0\n0 2 0\n0 -inf 3\n", id="inf-below"),
    pytest.param("3\n1 0 0\n0 2 0\n0 x 3\n", id="bad-below"),
    pytest.param("3\n1 0 x\n0 2 0\nx 0 3\n", id="bad-both"),
    pytest.param("3\n1 0 z\ny 2 0\n0 0 3\n", id="bad-above-and-below"),
    pytest.param("3\n1 0 0\n0 2 z\ny 0 3\n", id="bad-below-parsed-first"),
    pytest.param("2\n1 0\n0\n", id="short"),
    pytest.param("2\n1 0\n0 1 7\n", id="long"),
    pytest.param("two\n1 0\n0 1\n", id="header"),
]


def assert_parses_like_reference(text):
    try:
        ref = reference_load_matrix(text)
    except (MatrixFormatError, MatrixValidationError) as exc:
        with pytest.raises(type(exc)) as got:
            load_matrix(text)
        assert str(got.value) == str(exc)
    else:
        got = load_matrix(text)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


class TestMirrorSharedParse:
    """The mirror-sharing loader gives the full row-major scan's bits and errors."""

    @pytest.mark.parametrize("text", PARSE_CASES)
    def test_small_inputs(self, text):
        assert_parses_like_reference(text)

    def test_lower_triangle_spelled_differently(self):
        # Every lower token differs from its mirror's text, most not in value.
        a = benchmark_like(60)
        assert_parses_like_reference(repr_text(a, lower=lambda x: f"{x:.17g}"))
        assert_parses_like_reference(repr_text(a, lower=lambda x: f"{x:.15e}"))

    def test_benchmark_size(self):
        assert_parses_like_reference(repr_text(benchmark_like(1000)))


class TestPowerSums:
    def test_against_repeated_multiplication(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5, 8):
            s = random_symmetric(rng, d)
            ps = power_sums(s, 8)
            assert ps.d == d
            assert ps.p[0] == d
            acc = np.eye(d)
            for j in range(1, 9):
                acc = acc @ s
                ref = float(np.trace(acc))
                assert ps.p[j] == pytest.approx(ref, rel=1e-10)

    def test_diagonal_fast_path_exact_rank_one(self):
        # 1.5**j is exactly representable for these j, so the repeated
        # multiplications in the fast path incur no rounding at all.
        theta = 1.5
        s = np.zeros((6, 6))
        s[0, 0] = theta
        ps = power_sums(s, 10)
        for j in range(1, 11):
            assert ps.p[j] == theta**j

    def test_invariants_random(self):
        # p2 >= 0, Cauchy-Schwarz on p1, power-mean bound on |p_j|.
        rng = np.random.default_rng(17)
        for _ in range(1000):
            d = int(rng.integers(2, 13))
            s = random_symmetric(rng, d)
            ps = power_sums(s, 10)
            p = ps.p
            assert p[2] >= 0.0
            assert abs(p[1]) <= np.sqrt(d * p[2]) * (1 + 1e-12)
            for j in range(2, 11):
                assert abs(p[j]) <= p[2] ** (j / 2.0) * (1 + 1e-10)

    def test_frobenius_norm_matches_p2(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            s = random_symmetric(rng, int(rng.integers(2, 10)))
            ps = power_sums(s, 2)
            assert frobenius_norm(s) == pytest.approx(np.sqrt(ps.p[2]), rel=1e-12)

    def test_frobenius_norm_past_square_overflow(self):
        # Squares above 1.3e154 overflow; the scaled sum gives the finite norm.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frobenius_norm(np.diag([1e160, 0.0])) == 1e160
            assert frobenius_norm(np.full((2, 2), 1e308)) == np.inf
        rng = np.random.default_rng(29)
        for scale in (1.0, 1e150, 1e-150):
            s = scale * random_symmetric(rng, 5)
            assert frobenius_norm(s) == float(np.sqrt(np.sum(s * s)))

    def test_frobenius_norm_past_square_underflow(self):
        # Squares below 2.2e-308 lose digits or vanish; the scaled sum keeps them.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frobenius_norm(np.diag([1e-170, 0.0])) == 1e-170
            assert frobenius_norm(np.diag([3e-160, 4e-160])) == 5e-160
            assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_keeps_the_eigenvalues_it_summed(self):
        # eigvalsh's lambda for dense input, the diagonal as it stands for
        # diagonal input; p is the running product of that lambda, summed.
        rng = np.random.default_rng(37)
        dense = random_symmetric(rng, 7)
        diag = np.diag([0.3, -0.1, 0.0, 0.25, -0.45, -0.0, 0.1])
        for s, lam in ((dense, np.linalg.eigvalsh(dense)), (diag, np.diagonal(diag))):
            ps = power_sums(s, 6)
            assert np.array_equal(ps.eigenvalues, lam)
            assert np.array_equal(ps.p, self.running_product(lam, 6))

    def test_built_from_a_spectrum(self):
        # PowerSums(lambda, K) has the bits of power_sums on a matrix of that
        # lambda, dense or diagonal, signed zeros included.
        rng = np.random.default_rng(39)
        dense = random_symmetric(rng, 7)
        diag = np.diag([0.3, -0.0, 0.0, -0.45, 1e-200, -0.0, 2.5])
        for s, lam in ((dense, np.linalg.eigvalsh(dense)), (diag, np.diagonal(diag).copy())):
            for K in (1, 2, 6, 40):
                want, got = power_sums(s, K), PowerSums(lam, K)
                assert got.d == want.d == 7 and got.K == want.K == K
                assert got.p.tobytes() == want.p.tobytes()
                assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()

    @staticmethod
    def running_product(lam, K):
        """The reference: p[j] = sum of lambda^j, one power at a time."""
        p = np.empty(K + 1)
        p[0] = len(lam)
        pw = lam.copy()
        for j in range(1, K + 1):
            p[j] = pw.sum()
            if j < K:
                pw *= lam
        return p

    def test_blocked_product_has_the_running_products_bits(self):
        # Blocks of 2^16 // d powers: one block up to d = 1638 at these K,
        # several from d = 3e4 on (K = 39 ends inside a block of two), one
        # power per block at d = 10^6.  Signed zeros, the smallest subnormal
        # and powers of -1e300 that overflow to -inf and +inf stay bit for bit.
        rng = np.random.default_rng(43)
        special = np.array([-1e300, -0.0, 5e-324, 0.0, 0.9, -1.1])
        for d in (2, 3, 20, 100, 1000, 3 * 10**4, 10**6):
            mixed = rng.uniform(-1.5, 1.5, d)
            mixed[::3] = np.resize(special, len(mixed[::3]))
            for lam in (np.resize(special, d), mixed):
                for K in (1, 2, 12, 39, 40, 60):
                    with np.errstate(over="ignore"):
                        got = PowerSums(lam, K).p
                        want = self.running_product(lam, K)
                    assert got.tobytes() == want.tobytes(), (d, K)

    def test_spectrum_at_d_million_needs_no_matrix(self):
        # A copy of lambda and one block of 2^16 // d powers, at least one:
        # O(d) memory at any K, where a d x d array would take 8 TB.  At
        # d = 3e4 the 40 powers take 20 blocks of two rows; 8 KiB covers p
        # and the array headers, far below one more row.
        rng = np.random.default_rng(41)
        for d, bound in ((10**6, 3 * 8 * 10**6), (3 * 10**4, 8 * 3 * 10**4 * (1 + 2) + 8192)):
            lam = rng.uniform(-1.0, 1.0, d)
            tracemalloc.start()
            try:
                ps = PowerSums(lam, 40)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ps.d == d and ps.K == 40 and np.isfinite(ps.p).all()
            assert peak < bound, (d, peak)

    def test_equality_is_identity(self):
        # Each instance keeps its own series memo, so twins are not equal,
        # and instances are hashable.
        s = random_symmetric(np.random.default_rng(47), 5)
        a, b = power_sums(s, 3), power_sums(s, 3)
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    def test_arrays_are_read_only(self):
        # A write to p or lambda would leave the series terms the instance
        # keeps stale, so there is none.
        ps = power_sums(random_symmetric(np.random.default_rng(41), 6), 5)
        for a in (ps.p, ps.eigenvalues):
            with pytest.raises(ValueError):
                a[1] = 5.0
            with pytest.raises(ValueError):
                a *= 2.0

    def test_callers_arrays_are_not_aliased(self):
        d = 12
        sigma = random_symmetric(np.random.default_rng(43), d, norm=0.8)
        ps = power_sums(sigma, 11)
        regime = GrowthRegime(scale=0.9, exponent=0.0)
        want = (norm_const_truncated(ps, 12, d),
                covariance_derived_bound(ps, sigma, 3, 12, d, regime))
        lam = ps.eigenvalues.copy()
        view = lam.view()
        view.flags.writeable = False  # read-only, but lam can still write it
        for own in (PowerSums(lam, 11), PowerSums(view, 11)):
            lam[0] = 9.0
            got = (norm_const_truncated(own, 12, d),
                   covariance_derived_bound(own, sigma, 3, 12, d, regime))
            assert got == want
            assert own.p.tobytes() == ps.p.tobytes()
            assert own.eigenvalues.tobytes() == ps.eigenvalues.tobytes()
            lam[:] = ps.eigenvalues
        # A read-only array that owns its memory cannot change: it is kept.
        assert PowerSums(ps.eigenvalues, 11).eigenvalues is ps.eigenvalues
        assert PowerSums([2.0, 0.0], 1).eigenvalues.dtype == np.float64

    def test_require(self):
        ps = power_sums(np.eye(3), 4)
        ps.require(4)
        with pytest.raises(InsufficientPowersError):
            ps.require(5)

    def test_argument_validation(self):
        with pytest.raises(InsufficientPowersError):
            power_sums(np.eye(3), 0)
        with pytest.raises(InsufficientPowersError, match=">= 1"):
            PowerSums(np.array([0.5, -0.5]), 0)
        # The sums of a matrix's entrywise powers are not its power sums.
        with pytest.raises(MatrixValidationError, match="1-D spectrum"):
            PowerSums(np.diag([0.5, -0.5]), 2)
        with pytest.raises(MatrixValidationError):
            power_sums(np.ones((2, 3)), 2)
        with pytest.raises(MatrixValidationError, match=">= 2"):
            power_sums(np.ones((1, 1)), 1)
        with pytest.raises(MatrixValidationError):
            power_sums(np.array([[np.nan, 0.0], [0.0, 1.0]]), 2)

    @pytest.mark.parametrize("spectrum, message", [
        ([], "dimension must be >= 2, got 0"),
        ([0.5], "dimension must be >= 2, got 1"),
        ([np.nan, 1.0], "spectrum has non-finite entries"),
        ([np.inf, 0.0], "spectrum has non-finite entries"),
    ], ids=["empty", "one", "nan", "inf"])
    def test_rejects_what_power_sums_rejects(self, spectrum, message):
        with pytest.raises(MatrixValidationError, match=message):
            PowerSums(np.array(spectrum, dtype=np.float64), 3)

    def test_overflowing_spectrum_is_rejected(self):
        # Finite entries whose eigenvalue 3.4e308 overflows float64.
        # The message names max |sigma_ij|, d and the float64 limit.
        message = ("eigenvalues overflow float64: max |sigma_ij| = 1.7e+308 at d = 2; "
                   "they stay finite while d * max |sigma_ij| <= 1.7976931348623157e+308")
        with pytest.raises(MatrixValidationError, match=f"^{re.escape(message)}$"):
            power_sums(np.full((2, 2), 1.7e308), 3)

    def test_dense_limit_guard(self, monkeypatch):
        monkeypatch.setattr(symmat, "DENSE_EIGEN_LIMIT", 4)
        dense = random_symmetric(np.random.default_rng(0), 5)
        with pytest.raises(MatrixValidationError, match="diagonal"):
            power_sums(dense, 2)
        # diagonal matrices are exempt from the limit
        assert power_sums(np.diag(np.arange(5.0)), 3).p[1] == 10.0


class TestMaterialize:
    def test_zonal_gradient_closed_form_case(self):
        # coefficients ((2/3) tr Sigma, 4/3) at Sigma = diag(1, -1)
        s = np.diag([1.0, -1.0])
        g = GradientPolynomial(d=2, coeffs=np.array([0.0, 4.0 / 3.0]))
        out = materialize(g, s)
        assert np.allclose(out, np.diag([4.0 / 3.0, -4.0 / 3.0]), atol=1e-15)

    def test_constant_polynomial(self):
        g = GradientPolynomial(d=3, coeffs=np.array([2.5]))
        assert np.array_equal(materialize(g, np.zeros((3, 3))), 2.5 * np.eye(3))

    def test_horner_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            s = random_symmetric(rng, d)
            coeffs = rng.standard_normal(int(rng.integers(1, 6)))
            g = GradientPolynomial(d=d, coeffs=coeffs)
            direct = np.zeros((d, d))
            acc = np.eye(d)
            for c in coeffs:
                direct += c * acc
                acc = acc @ s
            assert np.allclose(materialize(g, s), direct, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        g = GradientPolynomial(d=3, coeffs=np.array([1.0]))
        with pytest.raises(DimensionMismatchError):
            materialize(g, np.eye(4))

    @pytest.mark.parametrize("shape", [(6, 5), (5, 6), (6,), (6, 6, 1)])
    def test_matrix_of_another_shape(self, shape):
        # Rejected before any product, with the shape named.
        g = GradientPolynomial(d=6, coeffs=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatchError, match=re.escape(f"matrix has shape {shape}")):
            materialize(g, np.ones(shape))

    dense_horner = staticmethod(dense_horner)

    @staticmethod
    def horner_cases(rng):
        """(Sigma, coefficients): diagonal, then dense and block-diagonal Sigma."""
        for k in range(40):
            d = int(rng.integers(2, 40))
            x = rng.uniform(-3.0, 3.0, d)
            x[rng.random(d) < 0.2] = 0.0
            x[rng.random(d) < 0.1] = -0.0
            degree = k % 3 if k < 12 else int(rng.integers(0, 40))
            yield np.diag(x), rng.standard_normal(degree + 1)
        for d in (2, 7, 30):
            for degree in range(40):
                s = random_symmetric(rng, d, norm=2.0)
                if degree % 4 >= 2:
                    # Block-diagonal: structural zeros, some of them -0.0.
                    block = np.sort(rng.integers(0, 3, d))
                    zero = block[:, None] != block[None, :]
                    s[zero] = 0.0
                    neg = np.triu(zero & (rng.random((d, d)) < 0.5))
                    s[neg | neg.T] = -0.0
                yield s, rng.standard_normal(degree + 1)

    @staticmethod
    def block_size(degree):
        """The smallest block size with the fewest products, (k - 1) + degree // k."""
        products = {k: k - 1 + degree // k for k in range(1, degree + 1)}
        return min(k for k in products if products[k] == min(products.values()))

    @classmethod
    def serial_paterson_stockmeyer(cls, g, s):
        """Paterson-Stockmeyer in plain loops, rounding as materialize is meant to.

        Powers Sigma^1 .. Sigma^k by repeated products; then, from the top
        block down, each block is one ``np.dot`` of its weights over a
        stacked array of its own rows: the top block's c_i over Sigma^i
        (i >= 1), every lower block's c_i over Sigma^i and 1.0 over
        out @ Sigma^k; then c_0 is added to the diagonal.
        """
        c, d = g.coeffs, g.d
        degree = len(c) - 1
        k = cls.block_size(degree)
        powers = [s]
        for _ in range(k - 1):
            powers.append(powers[-1] @ s)
        out = None
        for j in reversed(range(0, degree + 1, k)):
            n = min(k, degree + 1 - j) - 1
            if out is None:
                rows, w = powers[:n], list(c[j + 1:j + 1 + n])
            else:
                rows, w = powers[:k - 1] + [out @ powers[k - 1]], list(c[j + 1:j + k]) + [1.0]
            if rows:
                stacked = np.array(rows).reshape(len(rows), -1)
                out = np.dot(np.array(w), stacked).reshape(d, d)
            else:
                out = np.zeros((d, d))
            for i in range(d):
                out[i, i] += c[j]
        return (out + out.T) / 2.0

    @classmethod
    def termwise_paterson_stockmeyer(cls, g, s):
        """The same scheme with each block's terms c_i Sigma^i (i >= 1)
        rounded one at a time, summed left to right and then added to
        out @ Sigma^k: one fixed order of the additions that the gemv of
        materialize leaves to the BLAS kernel."""
        c, d = g.coeffs, g.d
        degree = len(c) - 1
        k = cls.block_size(degree)
        powers = [np.eye(d), s]
        for _ in range(k - 1):
            powers.append(powers[-1] @ s)
        out = None
        for j in reversed(range(0, degree + 1, k)):
            terms = [c[j + i] * powers[i] for i in range(1, min(k, degree + 1 - j))]
            if out is None:
                out = sum(terms[1:], terms[0]) if terms else np.zeros((d, d))
            else:
                out = out @ powers[k]
                if terms:
                    out = out + sum(terms[1:], terms[0])
            for i in range(d):
                out[i, i] += c[j]
        return (out + out.T) / 2.0

    def test_matches_dense_horner_bitwise(self):
        # Bit for bit: Horner's zeros and their signs everywhere, Horner's
        # values on diagonal Sigma and wherever the split has block size 1,
        # and the serial Paterson-Stockmeyer reference's values on the rest.
        rng = np.random.default_rng(11)
        for k, (s, coeffs) in enumerate(self.horner_cases(rng)):
            if k % 2:
                # A negative c * I has -0.0 off the diagonal.
                coeffs = -np.abs(coeffs)
            g = GradientPolynomial(d=s.shape[0], coeffs=coeffs)
            got, ref = materialize(g, s), self.dense_horner(g, s)
            # Exact zeros, and their signs, are Horner's.
            assert np.array_equal(got == 0.0, ref == 0.0)
            assert np.array_equal(np.signbit(got[got == 0.0]), np.signbit(ref[ref == 0.0]))
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            if g.degree == 0 or symmat._diagonal(s) is not None:
                # Degree 0 and diagonal Sigma (the -0.0 block pattern at d = 2 too)
                # take no dense product.
                assert np.array_equal(got, ref)
                continue
            serial = self.serial_paterson_stockmeyer(g, s)
            assert np.array_equal(got, serial)
            assert np.array_equal(np.signbit(got), np.signbit(serial))
            if g.degree <= 2:
                # The split has block size 1: the steps are Horner's.
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_close_to_termwise_block_sums(self):
        # The block sums' order of additions is the BLAS kernel's; any order
        # stays within rounding of the term-by-term sums.  The scale is the
        # largest entry of sum_l |c_l| |Sigma|^l, which bounds every term: a
        # result that cancels (d = 7, degree 30 here) can be far smaller.
        rng = np.random.default_rng(12)
        for d in (2, 7, 30, 100):
            for degree in range(1, 40):
                s = random_symmetric(rng, d, norm=2.0)
                c = rng.standard_normal(degree + 1)
                g = GradientPolynomial(d=d, coeffs=c)
                got, ref = materialize(g, s), self.termwise_paterson_stockmeyer(g, s)
                scale = self.termwise_paterson_stockmeyer(
                    GradientPolynomial(d=d, coeffs=np.abs(c)), np.abs(s)).max()
                assert np.abs(got - ref).max() <= 1e-15 * scale, (d, degree)

    def test_one_dot_per_block(self, monkeypatch):
        dots = []

        def counted(*args, real=np.dot, **kwargs):
            dots.append(np.shape(args[1]))
            return real(*args, **kwargs)

        rng = np.random.default_rng(5)
        sigma = random_symmetric(rng, 5, norm=1.0)
        # Blocks with a term: every lower block, and the top one unless it is c_L I.
        want = {1: 1, 2: 2, 3: 2, 4: 2, 10: 4, 38: 8, 39: 8}
        for degree, blocks in want.items():
            g = GradientPolynomial(d=5, coeffs=rng.standard_normal(degree + 1))
            ref = materialize(g, sigma)
            dots.clear()
            monkeypatch.setattr(np, "dot", counted)
            got = materialize(g, sigma)
            monkeypatch.undo()
            assert len(dots) == blocks, degree
            assert all(shape[1] == 25 for shape in dots)
            assert np.array_equal(got, ref)

    def test_any_memory_layout(self):
        # The dots write the accumulator through a flat view, whatever the
        # layout of Sigma: Fortran order, or a strided view.
        rng = np.random.default_rng(8)
        for degree in (1, 3, 10, 38):
            s = random_symmetric(rng, 6, norm=1.0)
            g = GradientPolynomial(d=6, coeffs=rng.standard_normal(degree + 1))
            want = materialize(g, s)
            wide = np.zeros((12, 12))
            wide[::2, ::2] = s
            for layout in (np.asfortranarray(s), wide[::2, ::2]):
                got = materialize(g, layout)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), degree

    def test_product_count(self):
        class Counted(np.ndarray):
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                if ufunc is np.matmul:
                    Counted.products += 1
                inputs = [np.asarray(x) for x in inputs]
                if out is None:
                    return getattr(ufunc, method)(*inputs, **kwargs)
                getattr(ufunc, method)(*inputs, out=tuple(np.asarray(x) for x in out), **kwargs)
                return out[0]

        rng = np.random.default_rng(4)
        sigma = random_symmetric(rng, 5, norm=1.0)
        want = {1: 1, 2: 2, 3: 2, 10: 5, 38: 11, 39: 11}
        for degree, products in want.items():
            Counted.products = 0
            g = GradientPolynomial(d=5, coeffs=rng.standard_normal(degree + 1))
            got = materialize(g, sigma.view(Counted))
            assert Counted.products == products
            assert np.array_equal(np.asarray(got), materialize(g, sigma))

    @staticmethod
    def exact_polynomial(coeffs, s):
        """sum_l c_l Sigma^l in exact rationals, by Horner's rule."""
        d = len(s)
        c = [Fraction(x) for x in coeffs]
        a = [[Fraction(x) for x in row] for row in s]
        out = [[c[-1] if i == j else Fraction(0) for j in range(d)] for i in range(d)]
        for cl in reversed(c[:-1]):
            out = [[sum(out[i][k] * a[k][j] for k in range(d)) for j in range(d)]
                   for i in range(d)]
            for i in range(d):
                out[i][i] += cl
        return out

    @staticmethod
    def rounding_bound(coeffs, s):
        """gamma_N * sum_l |c_l| ||Sigma||_F^l with N = (L + 2)(d + 2).

        Each term c_l Sigma^l meets one rounding for c_l, at most s - 1
        block additions, at most (s - 1) + L // s <= L products of d-term
        dot products (|fl(AB) - AB| <= gamma_d |A||B|), each followed by at
        most two additions, and the mirror sum: fewer than N roundings for
        s <= 2d + 3.  The entries of |Sigma|^l are at most ||Sigma||_F^l.
        """
        d, degree = s.shape[0], len(coeffs) - 1
        n = (degree + 2) * (d + 2)
        u = np.finfo(float).eps / 2
        norm = np.sqrt(np.sum(s * s))
        return n * u / (1 - n * u) * sum(abs(c) * norm**l for l, c in enumerate(coeffs))

    def exact_cases(self):
        rng = np.random.default_rng(21)
        for d in range(2, 7):
            for degree in (1, 2, 3, 5, 10, 17, 26, 39):
                s = random_symmetric(rng, d, norm=float(rng.uniform(0.5, 2.0)))
                norm = np.sqrt(np.sum(s * s))
                coeffs = rng.standard_normal(degree + 1) / norm ** np.arange(degree + 1)
                yield s, coeffs

    def test_within_rounding_bound_of_exact(self):
        for s, coeffs in self.exact_cases():
            d = s.shape[0]
            got = materialize(GradientPolynomial(d=d, coeffs=coeffs), s)
            exact = self.exact_polynomial(coeffs, s)
            err = max(abs(Fraction(got[i, j]) - exact[i][j]) for i in range(d) for j in range(d))
            assert err <= self.rounding_bound(coeffs, s)

    def test_rounding_bound_detects_a_perturbed_coefficient(self):
        # A coefficient off by 1e-10 (relative) breaks the bound: the check
        # above can see an evaluation error of that size.
        for s, coeffs in self.exact_cases():
            d = s.shape[0]
            exact = self.exact_polynomial(coeffs, s)
            powers = [np.linalg.matrix_power(s, l) for l in range(len(coeffs))]
            l = int(np.argmax([abs(c) * np.abs(p).max() for c, p in zip(coeffs, powers)]))
            wrong = coeffs.copy()
            wrong[l] *= 1 + 1e-10
            got = materialize(GradientPolynomial(d=d, coeffs=wrong), s)
            err = max(abs(Fraction(got[i, j]) - exact[i][j]) for i in range(d) for j in range(d))
            assert err > self.rounding_bound(coeffs, s)

    def test_memory_powers_plus_three(self):
        d, degree = 300, 38
        rng = np.random.default_rng(6)
        sigma = random_symmetric(rng, d, norm=1.0)
        g = GradientPolynomial(d=d, coeffs=rng.standard_normal(degree + 1))
        s = symmat._split(degree)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            materialize(g, sigma)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= (s + 3) * 8 * d * d

    def test_diagonal_overflow_matches_dense(self):
        # Where the dense product would turn an overflowed diagonal entry
        # into nan across its row and column, the diagonal path keeps
        # exact zeros off the diagonal; the CLI rejects either result.
        s = np.diag([1e200, 2.0, -1.0])
        g = GradientPolynomial(d=3, coeffs=np.array([1.0, 1.0, 1.0, 1.0]))
        with np.errstate(over="ignore"):
            got = materialize(g, s)
        assert np.array_equal(np.diag(got), [np.inf, 15.0, 0.0])
        assert np.array_equal(got[~np.eye(3, dtype=bool)], np.zeros(6))
        # Dense Horner's plain mirror sum doubles first and turns an entry
        # above max/2 into inf; materialize keeps it.
        s = np.diag([1e308, 2.0, -1.0])
        g = GradientPolynomial(d=3, coeffs=np.array([0.0, 1.0]))
        with np.errstate(over="ignore"):
            got, ref = materialize(g, s), self.dense_horner(g, s)
        assert np.array_equal(np.diag(ref), [np.inf, 2.0, -1.0])
        assert np.array_equal(got, s)
        assert np.array_equal(got[~np.isinf(ref)], ref[~np.isinf(ref)])

    def test_dense_result_above_half_dbl_max_stays_finite(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            linear = materialize(GradientPolynomial(2, np.array([0.0, 1.5e308])), swap)
            constant = materialize(GradientPolynomial(2, np.array([1.7e308])), swap)
        assert np.array_equal(linear, 1.5e308 * swap)
        assert np.array_equal(constant, 1.7e308 * np.eye(2))

    def test_output_symmetric(self):
        rng = np.random.default_rng(9)
        s = random_symmetric(rng, 6)
        g = GradientPolynomial(d=6, coeffs=rng.standard_normal(5))
        out = materialize(g, s)
        assert np.array_equal(out, out.T)


def lib_series_kind(rng, d, kind):
    """A matrix like those of the benchmark's library batch, ||Sigma||_F = 1."""
    if kind == "trace-zero":
        return random_trace_zero(rng, d, 1.0)
    if kind == "dense":
        a = rng.standard_normal((d, d)) + 0.3
        s = (a + a.T) / 2.0
        return s / np.sqrt(np.sum(s * s))
    u = rng.standard_normal(d)
    return np.outer(u, u) / (u @ u)


def full_degree(monkeypatch):
    """Make materialize evaluate every term, as it did before the cut."""
    monkeypatch.setattr(symmat, "_significant_degree", lambda coeffs, sigma: len(coeffs) - 1)


class TestSignificantDegree:
    """Dense materialize drops the top terms that cannot move a float64 entry."""

    @staticmethod
    def gradient(sigma, m=40):
        d = sigma.shape[0]
        return norm_const_gradient_truncated(power_sums(sigma, m - 1), m, d)

    @staticmethod
    def cut_allowance(coeffs, s):
        """2^-55 |c_1| omega, omega the largest off-diagonal |sigma_ij|."""
        omega = np.abs(s[~np.eye(len(s), dtype=bool)]).max()
        return 2.0**-55 * abs(coeffs[1]) * omega

    def test_within_rounding_and_cut_of_exact(self):
        # A rational Sigma, d = 8, m = 40: each entry is within the rounding
        # allowance of the whole polynomial plus the cut's 2^-55 |c_1| omega
        # of G formed exactly from the float coefficients.
        rng = np.random.default_rng(31)
        s = np.round(random_trace_zero(rng, 8, 1.0) * 2**20) / 2**20
        coeffs = self.gradient(s).coeffs
        assert symmat._significant_degree(coeffs, s) < len(coeffs) - 1
        got = materialize(GradientPolynomial(d=8, coeffs=coeffs), s)
        exact = TestMaterialize.exact_polynomial(coeffs, s)
        err = max(abs(Fraction(got[i, j]) - exact[i][j]) for i in range(8) for j in range(8))
        assert err <= (TestMaterialize.rounding_bound(coeffs, s)
                       + self.cut_allowance(coeffs, s))

    @pytest.mark.parametrize("kind", ["trace-zero", "dense", "rank-one"])
    def test_cut_engages_at_m40(self, kind, monkeypatch):
        # d = 100, m = 40: at most degree 12 of 38 is kept, and materialize
        # evaluates just that prefix; the full evaluation differs from it by
        # no more than the cut allows.
        rng = np.random.default_rng(32)
        s = lib_series_kind(rng, 100, kind)
        g = self.gradient(s)
        kept = symmat._significant_degree(g.coeffs, s)
        assert kept <= 12
        got = materialize(g, s)
        short = GradientPolynomial(d=100, coeffs=g.coeffs[:kept + 1])
        full_degree(monkeypatch)
        assert np.array_equal(got, materialize(short, s))
        full = materialize(g, s)
        rounding = 1e-15 * np.abs(full).max()
        assert np.abs(got - full).max() <= self.cut_allowance(g.coeffs, s) + rounding

    @staticmethod
    def assert_full_degree(g, s, monkeypatch):
        """The cut keeps every term: no warning, and the full evaluation's bits."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept = symmat._significant_degree(g.coeffs, s)
        assert kept == g.degree
        with np.errstate(all="ignore"):
            got = materialize(g, s)
            full_degree(monkeypatch)
            want = materialize(g, s)
        monkeypatch.undo()
        assert got.tobytes() == want.tobytes()

    def test_homogeneous_zonal_gradients_are_whole(self, monkeypatch):
        # Every term of grad C_k has degree k - 1 in Sigma: none is negligible.
        rng = np.random.default_rng(33)
        for d in (8, 20):
            s = random_trace_zero(rng, d, 1.0)
            ps = power_sums(s, 39)
            for k in (3, 12, 25, 39):
                self.assert_full_degree(zonal_gradient(k, ps), s, monkeypatch)

    def test_zero_first_coefficient_keeps_every_term(self, monkeypatch):
        # c_1 = 0 leaves no threshold, even for top terms far below rounding.
        s = random_trace_zero(np.random.default_rng(34), 20, 1.0)
        coeffs = self.gradient(s).coeffs.copy()
        coeffs[1] = 0.0
        self.assert_full_degree(GradientPolynomial(d=20, coeffs=coeffs), s, monkeypatch)

    def test_powers_past_dbl_max(self, monkeypatch):
        # ||Sigma||_F = 1e10: nu^32 = 1e320 is past DBL_MAX, yet c_l nu^l is
        # about 1 (c_32 is subnormal), so every term counts, and G is finite.
        rng = np.random.default_rng(35)
        s = random_trace_zero(rng, 20, 1e10)
        g = GradientPolynomial(d=20, coeffs=rng.standard_normal(33) * 1e-10 ** np.arange(33))
        assert g.coeffs[-1] != 0.0
        self.assert_full_degree(g, s, monkeypatch)
        assert np.isfinite(materialize(g, s)).all()

    @pytest.mark.parametrize("norm, coeffs", [
        # ||Sigma||_F^2 = 2.25e308 overflows while Sigma^2 stays finite:
        # c_2 nu^2 = 2e-12 is far below 2^-55 |c_1| omega, yet nu is unknown.
        (1.5e154, [1.0, 1.0, 1e-320]),
        # ||Sigma||_F^2 = 1e-398 flushes to zero: c_2 nu^2 = 1e-198 is far
        # above 2^-55 |c_1| omega = 4e-217, and must stay.
        (1e-199, [1.0, 1.0, 1e200]),
    ])
    def test_squares_outside_the_normal_range(self, norm, coeffs, monkeypatch):
        s = random_trace_zero(np.random.default_rng(36), 20, norm)
        g = GradientPolynomial(d=20, coeffs=np.array(coeffs))
        self.assert_full_degree(g, s, monkeypatch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [2, 20, 38])
    def test_non_finite_coefficient(self, bad, where, monkeypatch):
        s = random_trace_zero(np.random.default_rng(37), 20, 1.0)
        coeffs = self.gradient(s).coeffs.copy()
        coeffs[where] = bad
        self.assert_full_degree(GradientPolynomial(d=20, coeffs=coeffs), s, monkeypatch)

    def test_cli_dense_size_is_whole(self, monkeypatch):
        # d = 1000 at 0.9 of the (1, 0.5) regime cap, m = 12: every term
        # counts, so grad and cov print the bytes they printed before the cut.
        s = benchmark_like(1000)
        self.assert_full_degree(self.gradient(s, 12), s, monkeypatch)
