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
from itertools import product, zip_longest
from pathlib import Path

import numpy as np
import pytest
from conftest import random_trace_zero

import binghamx
from binghamx import (
    ConvergenceError,
    OrderRangeError,
    SamplingOverflowError,
    fd_gradient,
    kummer_partial_sum,
    kummer_series,
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
    _dense_block,
    _dense_draw,
    _eigen_block,
    _evaluated,
    _moments,
    _normal_block,
    _normal_chunks,
    _sphere_block,
    _weights,
    family_threshold,
    t_upper_quantile,
)


class TestKummerSeries:
    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for d in (3, 10, 41):
            for theta in (-3.0, -0.7, 0.0, 0.4, 1.5, 5.0):
                ref = float(scipy_special.hyp1f1(0.5, d / 2.0, theta))
                assert kummer_series(d / 2.0, theta) == pytest.approx(ref, rel=1e-12)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for b, theta in ((1.5, 2.0), (10.0, -4.0), (31.25, 0.9)):
            ref = float(mpmath.hyp1f1(mpmath.mpf(1) / 2, b, theta))
            assert kummer_series(b, theta) == pytest.approx(ref, rel=1e-13)

    def test_identity_direction_equals_exp(self):
        # b = 1/2 makes every Pochhammer ratio 1: series = e^theta.
        for theta in (0.3, -1.2, 2.5):
            assert kummer_series(0.5, theta) == pytest.approx(math.exp(theta), rel=1e-14)

    def test_convergence_error(self):
        with pytest.raises(ConvergenceError):
            kummer_series(1.5, 50.0, max_terms=10)

    def test_validation(self):
        with pytest.raises(OrderRangeError):
            kummer_series(0.0, 1.0)


class TestKummerPartialSum:
    def test_explicit_three_terms(self):
        # 1 + (1/2)/(5/2) + (1/2)(3/2)/((5/2)(7/2)) / 2 = 1 + 1/5 + 3/70.
        got = kummer_partial_sum(2.5, 1.0, 3)
        assert got == pytest.approx(1.0 + 0.2 + 3.0 / 70.0, rel=1e-15)

    def test_single_term(self):
        assert kummer_partial_sum(7.0, -3.0, 1) == 1.0

    def test_converges_to_full_series(self):
        b, theta = 5.0, 1.3
        full = kummer_series(b, theta)
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


def whole_eigen_block(lam, size, seed, block):
    """The eigenbasis worker half on the whole block at once: (w, num, top)."""
    zz = block_generator(seed, block).standard_normal((size, len(lam))) ** 2
    r = np.einsum("ij->i", zz)
    e = np.einsum("ij,j->i", zz, lam) / r
    top = float(e.max())
    w = np.exp(e - top)
    return w, np.einsum("i,ij->j", w / r, zz), top


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
        ref = block_generator(2026, 7).standard_normal((size, d))
        assert np.array_equal(np.concatenate(got), ref)
        assert np.array_equal(ref, _normal_block(d, size, 2026, 7))
        lengths = [len(c) for c in got]
        assert all(n == min(rows, size) for n in lengths[:-1])
        assert lengths[-1] <= rows + 1 and (rows == 1 or 1 not in lengths)

    def test_chunk_rows(self):
        assert _chunk_rows(200) == CHUNK_BYTES // 1600
        assert _chunk_rows(62501) == 2 and _chunk_rows(10**6) == 2

    def test_one_chunk_block_is_the_whole_block(self):
        # At d = 2 a block of 2470 rows fits in one chunk: weights, numerator
        # and shift are those of the whole block at once, bit for bit.
        lam = np.array([-0.4, 0.4])
        for b, size in enumerate(_block_sizes(123457)[:5]):
            assert size <= _chunk_rows(2)
            got, ref = _eigen_block(lam, size, 2026, b), whole_eigen_block(lam, size, 2026, b)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
            assert got[2] == ref[2]

    @pytest.mark.parametrize("d, size", [
        (200, 4001),
        (9000, 2 * _chunk_rows(9000) + 1),
        (62501, 4),  # two-row chunks from here on
        (62501, 5),
        (62501, 20),  # a block at n = 1000
        (70000, 21),
    ])
    def test_chunked_weights_are_the_whole_blocks(self, d, size):
        # Every exponent, and so every weight and the shift, is that of the
        # whole block; only the numerator's summation order moves.  At d = 9000
        # and above, a lone last row, which einsum would reduce in another
        # order, joins the chunk before it.
        lam = np.linspace(-2.0, 2.0, d)
        w, num, top = _eigen_block(lam, size, 11, 3)
        ref_w, ref_num, ref_top = whole_eigen_block(lam, size, 11, 3)
        assert np.array_equal(w, ref_w) and top == ref_top
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
        truth = kummer_series(d / 2.0, theta)
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
        with pytest.raises(SamplingOverflowError):
            mc_norm_const(800.0 * np.eye(4), 1000, seed=0)

    def test_forms_no_numerators(self):
        # The Psi half of the pass keeps only running sums: no (BLOCKS, d, d)
        # numerators, not even one d x d numerator per block.
        d = 400
        sigma = random_trace_zero(np.random.default_rng(29), d, norm=0.9)
        mc_norm_const(np.zeros((2, 2)), 1000, seed=0)  # imports the pool first
        tracemalloc.start()
        try:
            mc_norm_const(sigma, 1000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8

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
        est = mc_covariance(np.zeros((4, 4)), 50_000, seed=17)
        assert np.all(est.std_error > 0.0)
        # SE of diagonal entries of xx' is larger than a vanishing signal
        # would suggest; just sanity-check the scale.
        assert np.all(est.std_error < 0.05)

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
    """The single pass must reproduce both separate estimators bit for bit."""

    @staticmethod
    def separate_loops(sigma, n, seed):
        """Reference: each estimator with its own block loop, drawing every block."""
        d = sigma.shape[0]
        total = total_sq = 0.0
        for b, size in enumerate(_block_sizes(n)):
            w = _weights(_sphere_block(d, size, seed, b), sigma)
            total += float(w.sum())
            total_sq += float((w * w).sum())
        mean = total / n
        var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
        psi = (mean, float(np.sqrt(var / n)))

        nums = np.empty((BLOCKS, d, d))
        dens = np.empty(BLOCKS)
        for b, size in enumerate(_block_sizes(n)):
            x = _sphere_block(d, size, seed, b)
            w = _weights(x, sigma)
            nums[b] = x.T @ (x * w[:, None])
            dens[b] = float(w.sum())
        num_tot = nums.sum(axis=0)
        den_tot = float(dens.sum())
        leave_out = (num_tot[None, :, :] - nums) / (den_tot - dens)[:, None, None]
        centered = leave_out - leave_out.mean(axis=0)
        se = np.sqrt((BLOCKS - 1) / BLOCKS * np.sum(centered * centered, axis=0))
        return psi, (num_tot / den_tot, se)

    def assert_same(self, sigma, n, seed):
        psi, cov = mc_moments(sigma, n, seed)
        ref_psi = mc_norm_const(sigma, n, seed)
        ref_cov = mc_covariance(sigma, n, seed)
        assert psi == ref_psi
        assert psi.value == ref_psi.value and psi.std_error == ref_psi.std_error
        assert np.array_equal(cov.value, ref_cov.value)
        assert np.array_equal(cov.std_error, ref_cov.std_error)
        assert (cov.n_samples, cov.seed) == (n, seed)
        (value, se), (cov_value, cov_se) = self.separate_loops(sigma, n, seed)
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

    def test_zero_matrix(self):
        self.assert_same(np.zeros((4, 4)), 3000, seed=5)
        psi, cov = mc_moments(np.zeros((4, 4)), 3000, seed=5)
        assert psi.value == 1.0 and psi.std_error == 0.0

    def test_overflow(self):
        with pytest.raises(SamplingOverflowError):
            mc_moments(800.0 * np.eye(4), 1000, seed=0)

    @pytest.mark.parametrize("estimator", [mc_moments, mc_norm_const, mc_covariance])
    @pytest.mark.parametrize("sigma, n, exponent", [
        (np.diag([400.0, 0.0, 0.0]), 20_000, r"399\.96"),
        (349.5 * np.eye(3), 200_000, r"349\.5\b"),
    ], ids=["squares", "their-sum"])
    def test_squared_weights_overflow_raises(self, estimator, sigma, n, exponent):
        # The weights fit in float64 but the sum of their squares does not:
        # at diag(400, 0, 0) each block's, at 349.5 I only the sum over the
        # blocks.  The standard error of Psi was nan, after an overflow
        # warning in the first case and silently in the second.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SamplingOverflowError, match="x' Sigma x reaches " + exponent):
                estimator(sigma, n, 1)

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

    @staticmethod
    def serial_blocks(sigma, n, seed):
        """Reference: every block drawn and weighted on the calling thread."""
        d = sigma.shape[0]
        for b, size in enumerate(_block_sizes(n)):
            x = _sphere_block(d, size, seed, b)
            yield b, x, _weights(x, sigma)

    @pytest.mark.parametrize("d", (2, 30))
    @pytest.mark.parametrize("n", (1000, 123457))
    def test_stream_matches_serial_loop(self, d, n):
        sigma = random_trace_zero(np.random.default_rng(43 + d), d, norm=0.9)
        seen = []

        def record(x, sigma):
            w, num, shift = _dense_block(x, sigma)
            seen.append((x, w))
            return w, num, shift

        _moments(sigma, n, 2026, _dense_draw, record)
        pairs = zip_longest(seen, self.serial_blocks(sigma, n, 2026))
        count = 0
        for got, ref in pairs:
            assert got is not None and ref is not None
            assert ref[0] == count
            assert np.array_equal(got[0], ref[1])
            assert np.array_equal(got[1], ref[2])
            count += 1
        assert count == BLOCKS

    @pytest.mark.parametrize("d", (2, 30))
    @pytest.mark.parametrize("n", (1000, 123457))
    def test_eigen_stream_matches_serial_loop(self, d, n):
        # The eigenbasis worker half evaluates whole blocks in the pool; the
        # main half must still see block b's weights and numerator in index order.
        lam = np.linalg.eigvalsh(random_trace_zero(np.random.default_rng(43 + d), d, norm=0.9))
        seen = []

        def record(drawn, lam):
            seen.append(drawn)
            return _evaluated(drawn, lam)

        _moments(lam, n, 2026, _eigen_block, record)
        assert len(seen) == BLOCKS
        for b, (size, (w, num, top)) in enumerate(zip(_block_sizes(n), seen)):
            ref_w, ref_num, ref_top = _eigen_block(lam, size, 2026, b)
            assert w.shape == (size,) and num.shape == (d,)
            assert np.array_equal(w, ref_w)
            assert np.array_equal(num, ref_num)
            assert top == ref_top and w.max() == 1.0

    def test_in_place_jackknife_matches_out_of_place(self):
        # One in-place jackknife serves the (BLOCKS, d, d) numerators of the
        # dense pass and the (BLOCKS, d) numerators of the eigenbasis pass.
        # A synthetic worker half hands on the block index, and a synthetic
        # main half returns block b's chosen numerator, one weight equal to
        # its chosen denominator and its chosen shift: none on the dense
        # shapes, as on the dense path, and one per block on the others.
        rng = np.random.default_rng(47)
        for dense, d in product((True, False), (1, 5, 40)):
            shape = (BLOCKS, d, d) if dense else (BLOCKS, d)
            scale = np.exp(rng.normal(0.0, 3.0, (BLOCKS,) + (1,) * (len(shape) - 1)))
            nums = rng.standard_normal(shape) * scale
            dens = rng.uniform(1.0, 5.0, BLOCKS)
            shifts = np.zeros(BLOCKS) if dense else rng.uniform(-20.0, 20.0, BLOCKS)
            seen = []

            def synthetic(b, data):
                seen.append(b)
                return np.array([dens[b]]), nums[b], shifts[b]

            _, est = _moments(np.zeros(d), 1000, 3, lambda data, size, seed, b: b, synthetic)
            assert seen == list(range(BLOCKS))

            common = np.exp(shifts - shifts.max())
            dens = dens * common
            nums = nums * common.reshape(scale.shape)
            num_tot = nums.sum(axis=0)
            den_tot = float(dens.sum())
            leave_out = (num_tot[None] - nums) / (den_tot - dens).reshape(scale.shape)
            centered = leave_out - leave_out.mean(axis=0)
            se = np.sqrt((BLOCKS - 1) / BLOCKS * np.sum(centered * centered, axis=0))
            assert est.value.shape == est.std_error.shape == shape[1:]
            assert np.array_equal(est.value, num_tot / den_tot)
            assert np.array_equal(est.std_error, se)


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
        e^S, applied as two factors e^(S / 2).
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
        se = np.sqrt((BLOCKS - 1) / BLOCKS * np.sum(centered * centered, axis=0))
        psi = (float(mean * half * half), float(float(np.sqrt(var / n)) * half * half))
        return psi, (num_tot / den_tot, se)

    @pytest.mark.parametrize("d", (2, 30, 200))
    @pytest.mark.parametrize("n", (1000, 123457))
    def test_bit_equal_to_serial_reference(self, d, n):
        sigma = random_trace_zero(np.random.default_rng(53 + d), d, norm=0.9 * d**0.25)
        lam = np.linalg.eigvalsh(sigma)
        psi, cov = mc_eigen_moments(lam, n, 2026)
        (value, se), (cov_value, cov_se) = self.serial_reference(lam, n, 2026)
        assert psi.value == value and psi.std_error == se
        assert np.array_equal(cov.value, cov_value)
        assert np.array_equal(cov.std_error, cov_se)
        assert (psi.n_samples, psi.seed, cov.n_samples, cov.seed) == (n, 2026, n, 2026)
        assert float(np.sum(cov.value)) == pytest.approx(1.0, abs=1e-13)

    def test_agrees_with_dense_estimator(self):
        # Same seed, so the same uniform draws: the dense pass reads them as
        # x, this pass as y = V'x, and the estimates differ by sampling
        # error only.  Each of the d(d+1)/2 entries of V diag(estimate) V'
        # must lie within the family threshold of mc_moments' value, in
        # units of the two estimates' combined SE.
        d, n, seed = 6, 100_000, 61
        sigma = random_trace_zero(np.random.default_rng(59), d, norm=1.5)
        lam, vecs = np.linalg.eigh(sigma)
        psi, diag = mc_eigen_moments(lam, n, seed)
        psi_dense, cov_dense = mc_moments(sigma, n, seed)
        rotated = (vecs * diag.value) @ vecs.T
        rotated_se = np.sqrt(((vecs * diag.std_error) ** 2) @ (vecs**2).T)
        thr = family_threshold(d * (d + 1) // 2 + 1)
        combined = np.sqrt(cov_dense.std_error**2 + rotated_se**2)
        assert np.all(np.abs(rotated - cov_dense.value) <= thr * combined)
        assert abs(psi.value - psi_dense.value) <= thr * math.hypot(
            psi.std_error, psi_dense.std_error)

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

    @staticmethod
    def traced_peak(lam, n):
        mc_eigen_moments(np.zeros(3), 1000, seed=0)  # imports the pool first
        tracemalloc.start()
        try:
            mc_eigen_moments(lam, n, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_one_chunk_per_draw(self):
        # A pool worker holds one chunk of Gaussians and 8 bytes per row of its
        # block, and the caller a block's weights and their squares: per draw in
        # flight one chunk and 16 bytes per row, whatever d.  Ten times the
        # samples adds only those bytes per row; a whole block at n = 2e6 is
        # 64 MB.
        d = 200
        lam = np.linspace(-1.0, 1.0, d)
        peaks = {n: self.traced_peak(lam, n) for n in (200_000, 2_000_000)}
        for n, peak in peaks.items():
            assert peak < DRAWS_IN_FLIGHT * (CHUNK_BYTES + 16 * n // BLOCKS) + 256 * 1024, n
        rows_added = (2_000_000 - 200_000) // BLOCKS
        assert peaks[2_000_000] - peaks[200_000] < DRAWS_IN_FLIGHT * 16 * rows_added + 64 * 1024

    def test_memory_at_d62501(self):
        # The largest dimension of the paper's tables, diagonal Sigma.  Beyond
        # the (BLOCKS, d) numerators that the jackknife needs, a draw in flight
        # holds one chunk (two rows) and two d-vectors; one block of the
        # 20 x d Gaussians is 10 MB.
        d, n = 62501, 1000
        lam = np.linspace(-0.01, 0.01, d)
        peak = self.traced_peak(lam, n)
        per_draw = CHUNK_BYTES + 2 * 8 * d + 16 * n // BLOCKS
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

        Both paths draw through the block's generator: the dense worker at
        once, the eigenbasis worker before its first chunk.
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
        with pytest.raises(SamplingOverflowError):
            mc_moments(800.0 * np.eye(4), 1000, seed=0)
        assert threading.active_count() == start
        with pytest.raises(SamplingOverflowError):
            mc_eigen_moments(np.full(4, 800.0), 1000, seed=0)
        assert threading.active_count() == start
        # A nan weight is caught in the worker that evaluates the block.
        with pytest.raises(SamplingOverflowError, match="non-finite weights"):
            mc_eigen_moments(np.array([0.0, np.nan, 0.0]), 1000, seed=0)
        assert threading.active_count() == start

    def failing_block_leaves_no_thread(self, monkeypatch, data, draw, block):
        start = threading.active_count()
        started, seen = [], []

        def failing(drawn, data):
            b = len(seen)
            time.sleep(0.02)  # time for the workers to start any queued draw
            seen.append((threading.active_count(), max(started) - b))
            if b == 3:
                raise RuntimeError("block failed")
            return block(drawn, data)

        self.meeting_draws(monkeypatch, started)
        with pytest.raises(RuntimeError, match="block failed"):
            _moments(data, 5000, 1, draw, failing)
        # The pool's two workers while streaming; no draw started more than
        # two blocks ahead of the block reduced.
        assert [count for count, _ in seen] == [start + DRAWS_IN_FLIGHT] * 4
        assert all(ahead <= DRAWS_IN_FLIGHT for _, ahead in seen)
        assert threading.active_count() == start

    def test_no_thread_left_after_reduction_raises(self, monkeypatch):
        self.failing_block_leaves_no_thread(
            monkeypatch, np.zeros((3, 3)), _dense_draw, _dense_block)

    def test_no_thread_left_after_eigen_reduction_raises(self, monkeypatch):
        self.failing_block_leaves_no_thread(monkeypatch, np.zeros(3), _eigen_block, _evaluated)

    def test_no_thread_left_after_worker_raises(self, monkeypatch):
        # A worker half that raises reaches the caller through its future, in
        # block order: blocks 0 to 2 are reduced, and no thread outlives the call.
        start = threading.active_count()
        started, reduced = [], []

        def failing_draw(data, size, seed, b):
            if b == 3:
                raise RuntimeError("draw failed")
            return _eigen_block(data, size, seed, b)

        def record(drawn, data):
            reduced.append(max(started))
            return _evaluated(drawn, data)

        self.meeting_draws(monkeypatch, started)
        with pytest.raises(RuntimeError, match="draw failed"):
            _moments(np.zeros(3), 5000, 1, failing_draw, record)
        assert len(reduced) == 3
        assert all(ahead - b <= DRAWS_IN_FLIGHT for b, ahead in enumerate(reduced))
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
