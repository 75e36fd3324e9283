"""The oracles themselves, validated against third parties and theory.

* the scalar series is checked against scipy's and mpmath's confluent
  hypergeometric implementations (both imported lazily; scipy and
  mpmath never touch package code);
* the sphere sampler is checked against closed-form moments of the
  uniform distribution and the exact constant-weight cases;
* reproducibility is bit-level by construction, so it is asserted
  bit-level.
"""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_trace_zero

import binghamx
from binghamx import (
    OrderRangeError,
    SamplingOverflowError,
    fd_gradient,
    kummer_partial_sum,
    mc_covariance,
    mc_eigen_moments,
    mc_moments,
    mc_norm_const,
    oracle,
)
from binghamx.oracle import (
    BLOCKS,
    CHUNK_BYTES,
    DRAWS_IN_FLIGHT,
    FAMILY_ALPHA,
    McEstimate,
    _block_sizes,
    _chunk_rows,
    _eigen_block,
    _normal_chunks,
    family_threshold,
    t_upper_quantile,
)


class TestKummerSeries:
    """The full series, as ``kummer_partial_sum`` at a term count past convergence."""

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for d in (3, 10, 41):
            for theta in (-3.0, -0.7, 0.0, 0.4, 1.5, 5.0):
                ref = float(scipy_special.hyp1f1(0.5, d / 2.0, theta))
                got = kummer_partial_sum(d / 2.0, theta, 500)
                assert got == pytest.approx(ref, rel=1e-12)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for b, theta in ((1.5, 2.0), (10.0, -4.0), (31.25, 0.9)):
                ref = float(mpmath.hyp1f1(mpmath.mpf(1) / 2, b, theta))
                assert kummer_partial_sum(b, theta, 500) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("b, theta, terms", [(1.5, 400.0, 2000), (3.0, 1.2, 200)])
    def test_monte_carlo_truths(self, b, theta, terms):
        # The values the Monte-Carlo tests below take as Psi: matching
        # mpmath at 40 digits, and converged, since twice the terms
        # changes no bit.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.hyp1f1(mpmath.mpf(1) / 2, b, theta))
        got = kummer_partial_sum(b, theta, terms)
        assert got == pytest.approx(ref, rel=1e-13)
        assert kummer_partial_sum(b, theta, 2 * terms) == got

    def test_identity_direction_equals_exp(self):
        # b = 1/2 makes every Pochhammer ratio 1: series = e^theta.
        for theta in (0.3, -1.2, 2.5):
            got = kummer_partial_sum(0.5, theta, 500)
            assert got == pytest.approx(math.exp(theta), rel=1e-14)


class TestKummerPartialSum:
    def test_explicit_three_terms(self):
        # 1 + (1/2)/(5/2) + (1/2)(3/2)/((5/2)(7/2)) / 2 = 1 + 1/5 + 3/70.
        got = kummer_partial_sum(2.5, 1.0, 3)
        assert got == pytest.approx(1.0 + 0.2 + 3.0 / 70.0, rel=1e-15)

    def test_single_term(self):
        assert kummer_partial_sum(7.0, -3.0, 1) == 1.0

    def test_converges_to_full_series(self):
        b, theta = 5.0, 1.3
        full = kummer_partial_sum(b, theta, 500)
        errs = [abs(kummer_partial_sum(b, theta, t) - full) for t in (2, 4, 8, 16)]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-14

    def test_validation(self):
        with pytest.raises(OrderRangeError):
            kummer_partial_sum(2.0, 1.0, 0)
        with pytest.raises(OrderRangeError):
            kummer_partial_sum(-1.0, 1.0, 2)


class TestBlockSizes:
    def test_partition_property(self):
        for n in (1000, 1009, 123457):
            sizes = _block_sizes(n)
            assert len(sizes) == BLOCKS
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1


def block_generator(seed, block):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, block])))


def normal_block(d, size, seed, block):
    """The standard Gaussians of block b drawn at once, a (size, d) array."""
    return block_generator(seed, block).standard_normal((size, d))


def weight_sums(w):
    """The sum of the weights w and of their squares, as the worker forms them."""
    return float(w.sum()), float((w * w).sum())


def whole_eigen_block(lam, size, seed, block):
    """The eigenbasis worker half on the whole block at once: (w, num, top)."""
    zz = normal_block(len(lam), size, seed, block) ** 2
    r = np.einsum("ij->i", zz)
    e = np.einsum("ij,j->i", zz, lam) / r
    top = float(e.max())
    w = np.exp(e - top)
    return w, np.einsum("i,ij->j", w / r, zz), top


def jackknife_se(centered):
    """Jackknife standard errors from the delete-one-block estimates less their mean."""
    return np.sqrt((BLOCKS - 1) / BLOCKS * np.sum(centered * centered, axis=0))


def traced_peak(estimator, data, n):
    """The tracemalloc peak of one estimator call, after a call that imports the pool."""
    estimator(np.zeros((2,) * data.ndim), 1000, seed=0)
    tracemalloc.start()
    try:
        estimator(data, n, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_memory_bound(d, n):
    """Bytes a dense pass may hold: four d x d arrays (V, the sum of squares, a
    mapped deviation and the temporary it is formed from), the (BLOCKS, d)
    deviations, per draw in flight one chunk and 8 bytes per row of a block,
    and 256 KiB of slack.  A draw in flight also holds two vectors of one
    float per row of its chunk (r, and the buffer in which the shifted
    exponents become their weights), about 2 CHUNK_BYTES / d bytes; the
    slack covers them only at larger d, about 17 and up at n = 2e6."""
    arrays = 4 * 8 * d * d + BLOCKS * 8 * d
    return arrays + DRAWS_IN_FLIGHT * (CHUNK_BYTES + 8 * n // BLOCKS) + 256 * 1024


class TestNormalChunks:
    """The eigenbasis worker's chunked draw is the block's draw, bit for bit."""

    @pytest.mark.parametrize("d, size, rows", [
        (3, 20, 1),  # one row per chunk
        (3, 20, 6),  # a ragged last chunk of two rows
        (5, 21, 4),  # a last row of its own joins the chunk before it
        (7, 40, 40),  # one chunk
        (2, 25, 100),  # fewer rows than a chunk
        (200, 4001, _chunk_rows(200)),  # the verify point: six chunks and 71 rows
        (200, 2 * _chunk_rows(200) + 1, _chunk_rows(200)),
    ])
    def test_chunks_are_the_block(self, d, size, rows):
        got = []
        first = None
        for start, chunk in _normal_chunks(d, size, 2026, 7, rows):
            first = chunk if first is None else first
            assert start == sum(len(c) for c in got)
            assert np.shares_memory(chunk, first)  # one reused buffer
            got.append(chunk.copy())
        assert np.array_equal(np.concatenate(got), normal_block(d, size, 2026, 7))
        lengths = [len(c) for c in got]
        assert all(n == min(rows, size) for n in lengths[:-1])
        assert lengths[-1] <= rows + 1 and (rows == 1 or 1 not in lengths)

    def test_chunk_rows(self):
        assert _chunk_rows(200) == CHUNK_BYTES // 1600
        assert _chunk_rows(62501) == 2 and _chunk_rows(10**6) == 2

    def test_one_chunk_block_is_the_whole_block(self):
        # At d = 2 a block of 2470 rows fits in one chunk: the sums of the
        # weights and of their squares, numerator and shift are those of the
        # whole block at once, bit for bit.
        lam = np.array([-0.4, 0.4])
        for b, size in enumerate(_block_sizes(123457)[:5]):
            assert size <= _chunk_rows(2)
            den, sq, num, top = _eigen_block(lam, size, 2026, b)
            ref_w, ref_num, ref_top = whole_eigen_block(lam, size, 2026, b)
            assert (den, sq) == weight_sums(ref_w)
            assert np.array_equal(num, ref_num) and top == ref_top

    @pytest.mark.parametrize("d, size", [
        (200, 4001),
        (9000, 2 * _chunk_rows(9000) + 1),
        (62501, 4),  # two-row chunks from here on
        (62501, 5),
        (62501, 20),  # a block at n = 1000
        (70000, 21),
    ])
    def test_chunked_weights_are_the_whole_blocks(self, d, size):
        # Every exponent, and so every weight, both sums of them and the shift,
        # is that of the whole block; only the numerator's summation order
        # moves.  At d = 9000 and above, a lone last row, which einsum would
        # reduce in another order, joins the chunk before it.
        lam = np.linspace(-2.0, 2.0, d)
        den, sq, num, top = _eigen_block(lam, size, 11, 3)
        ref_w, ref_num, ref_top = whole_eigen_block(lam, size, 11, 3)
        assert (den, sq) == weight_sums(ref_w) and top == ref_top
        np.testing.assert_allclose(num, ref_num, rtol=1e-13, atol=0)


class TestMcNormConst:
    def test_zero_matrix_is_exactly_one(self):
        est = mc_norm_const(np.zeros((5, 5)), 2000, seed=1)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_scaled_identity_constant_weights(self):
        # x' (c I) x = c on the sphere, so every weight is exp(c): the
        # estimate is exact and the standard error is zero up to the
        # roundoff of the normalization.
        est = mc_norm_const(0.5 * np.eye(10), 5000, seed=3)
        assert est.value == pytest.approx(math.exp(0.5), rel=1e-12)
        assert est.std_error < 1e-8

    def test_concordance_with_scalar_series(self):
        # Rank-one Sigma: the true constant is the scalar series value.
        d, theta = 6, 1.2
        s = np.zeros((d, d))
        s[0, 0] = theta
        est = mc_norm_const(s, 200_000, seed=7)
        truth = kummer_partial_sum(d / 2.0, theta, 200)
        assert est.std_error > 0.0
        assert abs(est.value - truth) <= 4.0 * est.std_error

    def test_bit_reproducible(self):
        s = np.diag([0.4, -0.2, 0.1])
        a = mc_norm_const(s, 10_000, seed=42)
        b = mc_norm_const(s, 10_000, seed=42)
        c = mc_norm_const(s, 10_000, seed=43)
        assert a.value == b.value and a.std_error == b.std_error
        assert a.value != c.value

    def test_metadata(self):
        est = mc_norm_const(np.zeros((3, 3)), 1500, seed=9)
        assert est.n_samples == 1500 and est.seed == 9

    def test_overflow(self):
        with pytest.raises(SamplingOverflowError, match="Psi exceeds float64"):
            mc_norm_const(800.0 * np.eye(4), 1000, seed=0)

    def test_forms_no_numerators(self):
        # The pass keeps (BLOCKS, d) numerators in the eigenbasis and maps them
        # one d x d product at a time: no (BLOCKS, d, d) numerators, 64 MB here.
        d = 400
        sigma = random_trace_zero(np.random.default_rng(29), d, norm=0.9)
        assert traced_peak(mc_norm_const, sigma, 1000) < dense_memory_bound(d, 1000)

    def test_validation(self):
        with pytest.raises(OrderRangeError):
            mc_norm_const(np.zeros((3, 3)), 999, seed=0)
        with pytest.raises(OrderRangeError):
            mc_norm_const(np.zeros((3, 3)), 1000, seed=-1)


class TestMcCovariance:
    def test_uniform_case_matches_identity_over_d(self):
        # Sigma = 0: Cov(X) = I/d for the uniform sphere distribution.
        d = 5
        est = mc_covariance(np.zeros((d, d)), 100_000, seed=11)
        resid = np.abs(est.value - np.eye(d) / d)
        assert np.all(resid <= 4.0 * est.std_error + 1e-15)

    def test_unit_trace(self):
        rng = np.random.default_rng(31)
        s = random_trace_zero(rng, 8, norm=0.8)
        est = mc_covariance(s, 20_000, seed=13)
        assert float(np.trace(est.value)) == pytest.approx(1.0, abs=1e-12)

    def test_nearly_symmetric(self):
        rng = np.random.default_rng(33)
        s = random_trace_zero(rng, 6, norm=0.7)
        est = mc_covariance(s, 20_000, seed=15)
        assert np.allclose(est.value, est.value.T, atol=1e-13)

    def test_diagonal_se_positive_off_diagonal_se_sane(self):
        # At Sigma = 0 eigh returns V = I, so the eigenbasis is the standard
        # basis and the off-diagonal entries are the estimator's exact zeros
        # (their mean under the sign flips y_i -> -y_i), with standard error 0.
        est = mc_covariance(np.zeros((4, 4)), 50_000, seed=17)
        diagonal = np.diag(est.std_error)
        assert np.all(diagonal > 0.0) and np.all(diagonal < 0.05)
        off = ~np.eye(4, dtype=bool)
        assert np.all(est.value[off] == 0.0) and np.all(est.std_error[off] == 0.0)

    def test_bit_reproducible(self):
        s = np.diag([0.4, -0.4])
        a = mc_covariance(s, 10_000, seed=19)
        b = mc_covariance(s, 10_000, seed=19)
        assert np.array_equal(a.value, b.value)
        assert np.array_equal(a.std_error, b.std_error)

    def test_rank_one_pull(self):
        # Positive weight along e1 pulls mass toward that axis, so the
        # (0,0) entry must exceed 1/d visibly.
        d = 4
        s = np.zeros((d, d))
        s[0, 0] = 2.0
        est = mc_covariance(s, 100_000, seed=21)
        assert est.value[0, 0] > 1.0 / d + 10.0 * est.std_error[0, 0]


class TestMcMoments:
    """The dense pass is one eigh, the eigenbasis pass and one mapping V diag(.) V'.

    Both halves must equal the separate estimators and a serial reference
    bit for bit.
    """

    @staticmethod
    def serial_reference(sigma, n, seed):
        """Reference: eigh, the serial eigenbasis loop, then the mapping out of place.

        All BLOCKS delete-one-block deviations of E_w[q] are mapped to
        V diag(delta_b) V' at once, and the jackknife sums their squares.
        """
        lam, vecs = np.linalg.eigh((sigma + sigma.T) / 2.0)
        psi, value, centered = TestMcEigenMoments.serial_reference(lam, n, seed)
        mapped = np.array([(vecs * delta) @ vecs.T for delta in centered])
        return psi, ((vecs * value) @ vecs.T, jackknife_se(mapped))

    def assert_same(self, sigma, n, seed):
        psi, cov = mc_moments(sigma, n, seed)
        ref_psi = mc_norm_const(sigma, n, seed)
        ref_cov = mc_covariance(sigma, n, seed)
        assert psi == ref_psi
        assert psi.value == ref_psi.value and psi.std_error == ref_psi.std_error
        assert np.array_equal(cov.value, ref_cov.value)
        assert np.array_equal(cov.std_error, ref_cov.std_error)
        assert (cov.n_samples, cov.seed) == (n, seed)
        (value, se), (cov_value, cov_se) = self.serial_reference(sigma, n, seed)
        assert psi.value == value and psi.std_error == se
        assert np.array_equal(cov.value, cov_value)
        assert np.array_equal(cov.std_error, cov_se)

    def test_bit_identical_to_separate_estimators(self):
        rng = np.random.default_rng(41)
        for d in (2, 7, 30):
            sigma = random_trace_zero(rng, d, norm=0.9)
            for n in (1000, 1009, 123457):
                for seed in (0, 2026):
                    self.assert_same(sigma, n, seed)

    def test_norm_const_skips_the_mapping(self, monkeypatch):
        sigma = random_trace_zero(np.random.default_rng(43), 12, norm=0.9)
        expected = mc_moments(sigma, 5000, 7)[0]

        def no_mapping(*args):
            raise AssertionError("mc_norm_const mapped V diag(.) V'")

        monkeypatch.setattr(oracle, "_eigen_map", no_mapping)
        psi = mc_norm_const(sigma, 5000, 7)
        assert psi == expected
        assert psi.value == expected.value and psi.std_error == expected.std_error

    def test_zero_matrix(self):
        self.assert_same(np.zeros((4, 4)), 3000, seed=5)
        psi, cov = mc_moments(np.zeros((4, 4)), 3000, seed=5)
        assert psi.value == 1.0 and psi.std_error == 0.0

    def test_overflow(self):
        # Every shifted weight is 1; Psi = e^800 itself exceeds float64.
        with pytest.raises(SamplingOverflowError, match="Psi exceeds float64"):
            mc_moments(800.0 * np.eye(4), 1000, seed=0)

    @pytest.mark.parametrize("estimator", [mc_moments, mc_norm_const, mc_covariance])
    @pytest.mark.parametrize("sigma, n, truth", [
        (np.diag([400.0, 0.0, 0.0]), 20_000, kummer_partial_sum(1.5, 400.0, 2000)),
        (349.5 * np.eye(3), 200_000, math.exp(349.5)),
    ], ids=["squares", "their-sum"])
    def test_squared_weights_stay_finite(self, estimator, sigma, n, truth):
        # Unshifted weights would fit in float64 here but the sum of their
        # squares would not: at diag(400, 0, 0) each block's, at 349.5 I only
        # the sum over the blocks.  Shifted, every weight is at most 1, and Psi,
        # 1F1(1/2; 3/2; 400) = 6.535e170 and e^349.5, lies within 4 SE.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimator(sigma, n, 1)
        for est in got if isinstance(got, tuple) else (got,):
            assert np.isfinite(est.value).all() and np.isfinite(est.std_error).all()
            if np.ndim(est.value) == 0:
                assert abs(est.value - truth) <= 4.0 * est.std_error

    def test_symmetric_part(self):
        # x' Sigma x depends only on (Sigma + Sigma') / 2.  eigh reads one
        # triangle, and the lower one of [[0, 1], [0, 0]] is the zero matrix,
        # whose Psi is 1.
        lopsided = np.array([[0.0, 1.0], [0.0, 0.0]])
        for sigma in (lopsided, np.random.default_rng(67).standard_normal((7, 7)) / 4.0):
            psi, cov = mc_moments(sigma, 1000, 0)
            ref_psi, ref_cov = mc_moments((sigma + sigma.T) / 2.0, 1000, 0)
            assert psi == ref_psi
            assert np.array_equal(cov.value, ref_cov.value)
            assert np.array_equal(cov.std_error, ref_cov.std_error)
        assert mc_moments(lopsided, 1000, 0)[0].value != 1.0

    def test_memory_a_few_square_arrays(self):
        # A few d x d arrays beside the eigenbasis pass: no (BLOCKS, d, d)
        # numerators, which at d = 300 are 36 MB.
        d, n = 300, 20_000
        sigma = random_trace_zero(np.random.default_rng(71), d, norm=0.9)
        assert traced_peak(mc_moments, sigma, n) < dense_memory_bound(d, n)

    def test_memory_per_row_of_a_draw(self):
        # At n = 2e6 a draw in flight holds 8 bytes per row of its block,
        # 320 KB, and 4 * 8 * d^2 is small at d = 50, so the bound sees 8 more
        # bytes per row: they would add 0.64 MB.
        n = 2_000_000
        sigma = random_trace_zero(np.random.default_rng(73), 50, norm=0.9)
        assert traced_peak(mc_moments, sigma, n) < dense_memory_bound(50, n)
        # A chunk of d = 20 has 6553 rows, and each draw in flight also holds
        # two vectors of one float per chunk row: r, and the buffer in which
        # the shifted exponents become their weights.
        sigma = random_trace_zero(np.random.default_rng(79), 20, norm=0.9)
        chunk_vectors = DRAWS_IN_FLIGHT * 2 * 8 * _chunk_rows(20)
        assert traced_peak(mc_moments, sigma, n) < dense_memory_bound(20, n) + chunk_vectors

    def test_effective_sample_size(self):
        # Constant weights: every sample counts.  diag(4, 0, 0) concentrates
        # the weights, and both estimates carry the one ESS of their weights.
        psi, cov = mc_moments(0.5 * np.eye(3), 5000, seed=3)
        assert psi.ess == pytest.approx(5000.0, rel=1e-12)
        psi, cov = mc_moments(np.diag([4.0, 0.0, 0.0]), 5000, seed=3)
        assert 1.0 < psi.ess < 0.9 * 5000 and cov.ess == psi.ess
        assert math.isnan(McEstimate(1.0, 0.0, 1000, 0).ess)

    def test_validation(self):
        with pytest.raises(OrderRangeError):
            mc_moments(np.zeros((3, 3)), 999, seed=0)
        with pytest.raises(OrderRangeError):
            mc_moments(np.zeros((3, 3)), 1000, seed=-1)


class TestBlockStream:
    """The pipelined sampling loop and the in-place jackknife against serial code."""

    @pytest.mark.parametrize("d", (2, 30))
    @pytest.mark.parametrize("n", (1000, 123457))
    def test_stream_matches_serial_loop(self, monkeypatch, d, n):
        # The pool workers draw, block by block, the Gaussians of the serial
        # loop over whole blocks, and sum their weights and squared weights
        # as that loop would.
        lam = np.linalg.eigvalsh(random_trace_zero(np.random.default_rng(43 + d), d, norm=0.9))
        drawn, sums = {}, {}
        real_chunks, real_block = oracle._normal_chunks, oracle._eigen_block

        def chunks(d, size, seed, block, rows):
            for start, chunk in real_chunks(d, size, seed, block, rows):
                drawn.setdefault(block, []).append(chunk.copy())
                yield start, chunk

        def record(eigenvalues, size, seed, b):
            den, sq, num, top = real_block(eigenvalues, size, seed, b)
            sums[b] = den, sq
            return den, sq, num, top

        monkeypatch.setattr(oracle, "_normal_chunks", chunks)
        monkeypatch.setattr(oracle, "_eigen_block", record)
        mc_eigen_moments(lam, n, 2026)
        assert sorted(drawn) == sorted(sums) == list(range(BLOCKS))
        for b, size in enumerate(_block_sizes(n)):
            z = normal_block(d, size, 2026, b)
            assert np.array_equal(np.concatenate(drawn[b]), z)
            e = np.einsum("ij,j->i", z * z, lam) / np.einsum("ij->i", z * z)
            assert sums[b] == weight_sums(np.exp(e - e.max()))

    @pytest.mark.parametrize("d", (2, 30))
    @pytest.mark.parametrize("n", (1000, 123457))
    def test_eigen_stream_matches_serial_loop(self, monkeypatch, d, n):
        # The workers evaluate whole blocks in the pool; each block is
        # evaluated once, with its own size, as a serial call would.
        lam = np.linalg.eigvalsh(random_trace_zero(np.random.default_rng(43 + d), d, norm=0.9))
        seen = {}
        real = oracle._eigen_block

        def record(eigenvalues, size, seed, b):
            assert b not in seen
            seen[b] = real(eigenvalues, size, seed, b)
            return seen[b]

        monkeypatch.setattr(oracle, "_eigen_block", record)
        mc_eigen_moments(lam, n, 2026)
        assert sorted(seen) == list(range(BLOCKS))
        for b, size in enumerate(_block_sizes(n)):
            den, sq, num, top = seen[b]
            ref_den, ref_sq, ref_num, ref_top = real(lam, size, 2026, b)
            assert type(den) is type(sq) is type(top) is float and num.shape == (d,)
            assert (den, sq) == (ref_den, ref_sq)
            assert np.array_equal(num, ref_num)
            # Every weight is at most 1 and the block's largest is 1.
            assert top == ref_top and 1.0 <= sq <= den <= size

    def test_in_place_jackknife_matches_out_of_place(self, monkeypatch):
        # A synthetic worker returns block b's chosen denominator, its square
        # as the sum of squared weights, its chosen numerator and its chosen
        # shift.
        rng = np.random.default_rng(47)
        for d in (1, 5, 40):
            scale = np.exp(rng.normal(0.0, 3.0, (BLOCKS, 1)))
            nums = rng.standard_normal((BLOCKS, d)) * scale
            dens = rng.uniform(1.0, 5.0, BLOCKS)
            shifts = rng.uniform(-20.0, 20.0, BLOCKS)
            seen = []

            def synthetic(eigenvalues, size, seed, b):
                seen.append(b)
                return dens[b], dens[b] ** 2, nums[b], shifts[b]

            monkeypatch.setattr(oracle, "_eigen_block", synthetic)
            _, est = mc_eigen_moments(np.zeros(d), 1000, 3)
            assert sorted(seen) == list(range(BLOCKS))

            common = np.exp(shifts - shifts.max())
            dens = dens * common
            nums = nums * common[:, None]
            num_tot = nums.sum(axis=0)
            den_tot = float(dens.sum())
            leave_out = (num_tot[None] - nums) / (den_tot - dens)[:, None]
            centered = leave_out - leave_out.mean(axis=0)
            assert est.value.shape == est.std_error.shape == (d,)
            assert np.array_equal(est.value, num_tot / den_tot)
            assert np.array_equal(est.std_error, jackknife_se(centered))


class TestMcEigenMoments:
    """The eigenbasis estimator that ``verify`` runs."""

    @staticmethod
    def serial_reference(eigenvalues, n, seed):
        """Every block drawn, weighted and reduced on the calling thread.

        Block b's Gaussians z give q = (z*z) / r, r = |z|^2 per row, the
        exponents e = q @ lambda, the weights exp(e - s_b) with s_b the
        block's largest exponent, and the numerator w @ q.  The numerator
        is summed over chunks of max(2, CHUNK_BYTES // 8d) rows, a last row
        of its own joining the chunk before it: chunk c weights its rows by
        exp(e - s_c) e^(s_c - t), with s_c the chunk's largest exponent and
        t the largest shift so far, and the running sum is rescaled by
        e^(t - s_c) whenever s_c exceeds t.  The blocks are then brought to
        the largest shift S, and Psi and its standard error scaled back by
        e^S, applied as two factors e^(S / 2).  Returns Psi and its standard
        error, E_w[q], and the delete-one-block estimates of E_w[q] less
        their mean.
        """
        d = len(eigenvalues)
        rows = max(2, CHUNK_BYTES // (8 * d))
        nums = np.empty((BLOCKS, d))
        dens, squares, shifts = np.empty(BLOCKS), np.empty(BLOCKS), np.empty(BLOCKS)
        for b, size in enumerate(_block_sizes(n)):
            zz = block_generator(seed, b).standard_normal((size, d)) ** 2
            r = np.einsum("ij->i", zz)
            e = np.einsum("ij,j->i", zz, eigenvalues) / r
            shifts[b] = e.max()
            w = np.exp(e - shifts[b])
            assert np.isfinite(w).all() and w.max() == 1.0
            dens[b] = float(w.sum())
            squares[b] = float((w * w).sum())
            starts = list(range(0, size, rows))
            if size - starts[-1] == 1 and len(starts) > 1:
                starts.pop()
            top, num = -math.inf, np.zeros(d)
            for lo, hi in zip(starts, starts[1:] + [size]):
                s_c = float(e[lo:hi].max())
                if s_c > top:
                    num *= math.exp(top - s_c)
                    top = s_c
                w_c = np.exp(e[lo:hi] - s_c) * math.exp(s_c - top) / r[lo:hi]
                num += np.einsum("i,ij->j", w_c, zz[lo:hi])
            nums[b] = num
        top = shifts.max()
        common = np.exp(shifts - top)
        dens, squares, nums = dens * common, squares * (common * common), nums * common[:, None]
        total = total_sq = 0.0
        for b in range(BLOCKS):
            total += float(dens[b])
            total_sq += float(squares[b])
        mean = total / n
        var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
        half = np.exp(float(top) / 2.0)
        num_tot = nums.sum(axis=0)
        den_tot = float(dens.sum())
        leave_out = (num_tot[None, :] - nums) / (den_tot - dens)[:, None]
        centered = leave_out - leave_out.mean(axis=0)
        psi = (float(mean * half * half), float(float(np.sqrt(var / n)) * half * half))
        return psi, num_tot / den_tot, centered

    @pytest.mark.parametrize("d", (2, 30, 200))
    @pytest.mark.parametrize("n", (1000, 123457))
    def test_bit_equal_to_serial_reference(self, d, n):
        sigma = random_trace_zero(np.random.default_rng(53 + d), d, norm=0.9 * d**0.25)
        lam = np.linalg.eigvalsh(sigma)
        psi, cov = mc_eigen_moments(lam, n, 2026)
        (value, se), cov_value, centered = self.serial_reference(lam, n, 2026)
        assert psi.value == value and psi.std_error == se
        assert np.array_equal(cov.value, cov_value)
        assert np.array_equal(cov.std_error, jackknife_se(centered))
        assert (psi.n_samples, psi.seed, cov.n_samples, cov.seed) == (n, 2026, n, 2026)
        assert float(np.sum(cov.value)) == pytest.approx(1.0, abs=1e-13)

    def test_agrees_with_dense_estimator(self):
        # mc_moments runs this pass on the eigenvalues of one eigh: the same
        # Psi bit for bit, and the covariance V diag(estimate) V'.
        d, n, seed = 6, 100_000, 61
        sigma = random_trace_zero(np.random.default_rng(59), d, norm=1.5)
        assert np.array_equal(sigma, sigma.T)
        lam, vecs = np.linalg.eigh(sigma)
        psi, diag = mc_eigen_moments(lam, n, seed)
        psi_dense, cov_dense = mc_moments(sigma, n, seed)
        assert psi_dense == psi
        rotated = vecs @ np.diag(diag.value) @ vecs.T
        np.testing.assert_allclose(cov_dense.value, rotated, rtol=0, atol=1e-15)

    def test_zero_matrix(self):
        psi, diag = mc_eigen_moments(np.zeros(4), 3000, seed=5)
        assert psi.value == 1.0 and psi.std_error == 0.0
        assert np.all(np.abs(diag.value - 0.25) <= 4.0 * diag.std_error)

    def test_constant_weights_give_exact_psi(self):
        est, _ = mc_eigen_moments(np.full(10, 0.5), 5000, seed=3)
        assert est.value == pytest.approx(math.exp(0.5), rel=1e-12)
        assert est.std_error < 1e-8

    def test_overflow(self):
        # Every shifted weight is 1; Psi = e^800 itself exceeds float64.
        with pytest.raises(SamplingOverflowError, match="Psi exceeds float64"):
            mc_eigen_moments(np.full(4, 800.0), 1000, seed=0)

    def test_nan_eigenvalue(self):
        with pytest.raises(SamplingOverflowError, match="non-finite weights"):
            mc_eigen_moments(np.array([np.nan, 0.0]), 1000, seed=0)

    @pytest.mark.parametrize("d, top, seed", [(3, 400.0, 1), (200, 800.0, 1), (200, 1000.0, 1)])
    def test_shifted_weights_keep_every_estimate_finite(self, d, top, seed):
        # Unshifted, the weights at d = 3 reach e^400 and their squares
        # overflow, which made the standard error of Psi nan.  Shifted by
        # lambda_max instead of each block's largest exponent, the weights at
        # d = 200, where no sample comes near the top eigenvector, would be
        # subnormal (standard error 0) or all 0 (0 / 0 covariance).
        lam = np.zeros(d)
        lam[-1] = top
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi, diag = mc_eigen_moments(lam, 20_000, seed=seed)
        assert np.isfinite([psi.value, psi.std_error]).all()
        assert 0.0 < psi.std_error < psi.value and math.log(psi.value) < top
        assert np.isfinite(diag.value).all() and np.isfinite(diag.std_error).all()
        assert np.all(diag.std_error > 0.0)
        assert float(np.sum(diag.value)) == pytest.approx(1.0, abs=1e-13)

    def test_psi_fits_although_e_to_the_shift_does_not(self):
        # 1F1(1/2; 3/2; 712) = e^712 / 1424 (1 + O(1/712)), about 1.5e306, and
        # some samples come close enough to the top eigenvector that the
        # largest exponent exceeds log(DBL_MAX) = 709.78.
        mpmath = pytest.importorskip("mpmath")
        lam = np.array([0.0, 0.0, 712.0])
        psi, _ = mc_eigen_moments(lam, 20_000, seed=2)
        truth = float(mpmath.hyp1f1(0.5, 1.5, 712))
        assert np.isfinite(psi.std_error) and psi.std_error > 0.0
        assert abs(psi.value - truth) <= 4.0 * psi.std_error

    def test_memory_one_chunk_per_draw(self):
        # A pool worker holds one chunk of Gaussians and 8 bytes per row of its
        # block, and returns only sums of them: per draw in flight one chunk and
        # 8 bytes per row, plus 24 bytes per chunk row (16 KB at d = 200).  Ten
        # times the samples adds only the bytes per block row; a whole block at
        # n = 2e6 is 64 MB.
        d = 200
        lam = np.linspace(-1.0, 1.0, d)
        peaks = {n: traced_peak(mc_eigen_moments, lam, n) for n in (200_000, 2_000_000)}
        for n, peak in peaks.items():
            assert peak < DRAWS_IN_FLIGHT * (CHUNK_BYTES + 8 * n // BLOCKS) + 256 * 1024, n
        rows_added = (2_000_000 - 200_000) // BLOCKS
        assert peaks[2_000_000] - peaks[200_000] < DRAWS_IN_FLIGHT * 8 * rows_added + 64 * 1024

    def test_memory_at_d62501(self):
        # The largest dimension of the paper's tables, diagonal Sigma.  Beyond
        # the (BLOCKS, d) numerators that the jackknife needs, a draw in flight
        # holds one chunk (two rows), two d-vectors and 8 bytes per row; one
        # block of the 20 x d Gaussians is 10 MB.
        d, n = 62501, 1000
        lam = np.linspace(-0.01, 0.01, d)
        peak = traced_peak(mc_eigen_moments, lam, n)
        per_draw = CHUNK_BYTES + 2 * 8 * d + 8 * n // BLOCKS
        assert peak < BLOCKS * 8 * d + DRAWS_IN_FLIGHT * per_draw + 1024 * 1024

    def test_effective_sample_size(self):
        # Constant weights: every sample counts.  On diag(0, ..., 0, 745) at
        # d = 200 one sample carries the weights, and verify calls psi
        # inconclusive.
        psi, cov = mc_eigen_moments(np.full(10, 0.5), 5000, seed=3)
        assert psi.ess == pytest.approx(5000.0, rel=1e-12) and cov.ess == psi.ess
        lam = np.zeros(200)
        lam[-1] = 745.0
        psi, _ = mc_eigen_moments(lam, 200_000, seed=1)
        assert 1.0 <= psi.ess < 1.1


class TestFamilyThreshold:
    def test_t_quantile_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for nu in (1, 3, 5, 49, 51):
            for q in (0.1, 1e-3, 1.6e-4, 2.5e-6, 1e-9, 1e-30):
                ref = float(stats.t.isf(q, nu))
                assert t_upper_quantile(q, nu) == pytest.approx(ref, rel=1e-12), (nu, q)

    def test_threshold_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for d in (2, 30, 200, 1000):
            k = d + 1
            ref = float(stats.t.ppf(1.0 - FAMILY_ALPHA / (2 * k), BLOCKS - 1))
            assert abs(family_threshold(k) - ref) <= 1e-10

    def test_stated_values(self):
        # The README states these rounded values.
        assert round(family_threshold(3), 2) == 3.86
        assert round(family_threshold(201), 2) == 5.13
        assert round(family_threshold(1001), 2) == 5.59

    def test_validation(self):
        with pytest.raises(OrderRangeError):
            family_threshold(0)
        with pytest.raises(OrderRangeError):
            t_upper_quantile(0.5, 49)
        with pytest.raises(OrderRangeError):
            t_upper_quantile(1e-3, 4)


class TestHelperThread:
    """The draw-ahead pool never outlives the sampling call."""

    @staticmethod
    def meeting_draws(monkeypatch, started):
        """Draws 0 and 1 wait for each other, so both pool workers must exist.

        The worker draws through the block's generator before its first chunk.
        """
        barrier = threading.Barrier(DRAWS_IN_FLIGHT, timeout=30)
        real = oracle._block_rng

        def generator(seed, block):
            started.append(block)
            if block < DRAWS_IN_FLIGHT:
                barrier.wait()
            return real(seed, block)

        monkeypatch.setattr(oracle, "_block_rng", generator)

    def test_no_thread_left_after_overflow(self):
        start = threading.active_count()
        with pytest.raises(SamplingOverflowError, match="Psi exceeds float64"):
            mc_moments(800.0 * np.eye(4), 1000, seed=0)
        assert threading.active_count() == start
        with pytest.raises(SamplingOverflowError, match="Psi exceeds float64"):
            mc_eigen_moments(np.full(4, 800.0), 1000, seed=0)
        assert threading.active_count() == start
        # A nan weight is caught in the worker that evaluates the block, and a
        # nan or infinite entry of Sigma before eigh.
        with pytest.raises(SamplingOverflowError, match="non-finite weights"):
            mc_eigen_moments(np.array([0.0, np.nan, 0.0]), 1000, seed=0)
        assert threading.active_count() == start
        for bad in (np.nan, np.inf, -np.inf):
            sigma = np.zeros((3, 3))
            sigma[0, 2] = bad
            with pytest.raises(SamplingOverflowError, match="non-finite entry"):
                mc_moments(sigma, 1000, seed=0)
            assert threading.active_count() == start

    def failing_block_leaves_no_thread(self, monkeypatch, estimator, data):
        # Block 3's worker returns a numerator of the wrong shape, so storing
        # it raises in the reduction, on the calling thread.
        start = threading.active_count()
        started, seen = [], {}
        real = oracle._eigen_block

        def failing(eigenvalues, size, seed, b):
            den, sq, num, shift = real(eigenvalues, size, seed, b)
            time.sleep(0.02)  # time for the pool to start any queued draw
            seen[b] = threading.active_count()
            return den, sq, num[:-1] if b == 3 else num, shift

        self.meeting_draws(monkeypatch, started)
        monkeypatch.setattr(oracle, "_eigen_block", failing)
        with pytest.raises(ValueError, match="broadcast"):
            estimator(data, 5000, 1)
        # The pool's two workers while streaming: blocks 0 to 3 were evaluated
        # before the failure.  No draw started more than two blocks ahead of
        # the block reduced: block 3 failed after block 5 was submitted, and
        # the pool finished blocks 4 and 5 on leaving.
        assert [seen[b] for b in range(4)] == [start + DRAWS_IN_FLIGHT] * 4
        assert sorted(started) == list(range(3 + DRAWS_IN_FLIGHT + 1))
        assert threading.active_count() == start

    def test_no_thread_left_after_reduction_raises(self, monkeypatch):
        self.failing_block_leaves_no_thread(monkeypatch, mc_moments, np.zeros((3, 3)))

    def test_no_thread_left_after_eigen_reduction_raises(self, monkeypatch):
        self.failing_block_leaves_no_thread(monkeypatch, mc_eigen_moments, np.zeros(3))

    def test_no_thread_left_after_worker_raises(self, monkeypatch):
        # A worker that raises reaches the caller through its future, in block
        # order: block 4 was submitted when block 2 was reduced, no block after
        # it, and no thread outlives the call.
        start = threading.active_count()
        started = []
        real = oracle._eigen_block

        def failing(eigenvalues, size, seed, b):
            if b == 3:
                raise RuntimeError("draw failed")
            return real(eigenvalues, size, seed, b)

        self.meeting_draws(monkeypatch, started)
        monkeypatch.setattr(oracle, "_eigen_block", failing)
        with pytest.raises(RuntimeError, match="draw failed"):
            mc_eigen_moments(np.zeros(3), 5000, 1)
        assert sorted(started) == [0, 1, 2, 4]
        assert threading.active_count() == start

    def test_cli_import_loads_no_thread_pool(self):
        src = str(Path(binghamx.__file__).resolve().parents[1])
        paths = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, binghamx.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestFdGradient:
    def test_gradient_of_trace_is_identity(self):
        rng = np.random.default_rng(35)
        s = random_trace_zero(rng, 4, norm=0.5)
        g = fd_gradient(lambda m: float(np.trace(m)), s, 1e-5)
        assert np.allclose(g, np.eye(4), atol=1e-9)

    def test_gradient_of_trace_square(self):
        # f(S) = tr(S^2): under the halved off-diagonal convention the
        # gradient is exactly 2 S.
        rng = np.random.default_rng(37)
        s = random_trace_zero(rng, 5, norm=0.9)
        g = fd_gradient(lambda m: float(np.trace(m @ m)), s, 1e-5)
        assert np.allclose(g, 2.0 * s, rtol=1e-7, atol=1e-8)

    def test_validation(self):
        with pytest.raises(OrderRangeError):
            fd_gradient(lambda m: 0.0, np.eye(2), 0.0)
