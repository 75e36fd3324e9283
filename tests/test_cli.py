"""End-to-end CLI behavior: outputs, formats, exit codes, stability."""

import codecs
import csv
import io
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import (
    count_series_passes,
    dense_horner,
    fresh_python,
    random_symmetric,
    random_trace_zero,
)

from binghamx import (
    GradientPolynomial,
    GrowthRegime,
    covariance_derived_bound,
    covariance_expansion,
    format_matrix,
    gradient_tail_bound,
    load_matrix,
    materialize,
    norm_const_gradient_truncated,
    norm_const_tail_bound,
    norm_const_truncated,
    power_sums,
    round_half_up,
    tail_bound_table,
)
from binghamx import oracle, series, symmat
from binghamx.cli import _verify_series, run
from binghamx.partitions import MAX_ORDER
from binghamx.oracle import McEstimate


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def write_matrix(tmp_path, sigma, name="sigma.txt"):
    path = tmp_path / name
    path.write_text(format_matrix(sigma))
    return str(path)


def record_value(text, key):
    for line in text.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"no record line for {key!r} in:\n{text}")


def trailing_matrix(text, d):
    lines = text.splitlines()
    start = lines.index(str(d))
    return load_matrix("\n".join(lines[start:]))


@pytest.fixture
def sigma20(tmp_path):
    sigma = 0.04 * np.eye(20)
    return sigma, write_matrix(tmp_path, sigma)


class TestPsi:
    def test_text_output(self, sigma20):
        sigma, path = sigma20
        code, text = invoke(["psi", "--matrix", path, "--m", "3"])
        assert code == 0
        ps = power_sums(sigma, 2)
        expected = norm_const_truncated(ps, 3, 20)
        assert float(record_value(text, "psi")) == expected
        assert record_value(text, "m") == "3"
        assert record_value(text, "d") == "20"
        assert "bound" not in text

    def test_with_regime_bound(self, sigma20):
        _, path = sigma20
        code, text = invoke(
            ["psi", "--matrix", path, "--m", "3", "--gamma0", "1", "--r", "0.5"]
        )
        assert code == 0
        bound = float(record_value(text, "bound"))
        assert bound == norm_const_tail_bound(3, 20.0, GrowthRegime(1.0, 0.5))

    def test_md_format(self, sigma20):
        _, path = sigma20
        code, text = invoke(
            ["psi", "--matrix", path, "--m", "3", "--gamma0", "1", "--r", "0.5",
             "--format", "md"]
        )
        assert code == 0
        assert text.startswith("| quantity | value |")
        assert "| bound | 0.18782 |" in text

    def test_csv_format(self, sigma20):
        _, path = sigma20
        code, text = invoke(["psi", "--matrix", path, "--m", "3", "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "psi,m,d"
        cells = lines[1].split(",")
        assert float(cells[0]) > 1.0 and cells[1] == "3" and cells[2] == "20"

    def test_byte_stable(self, sigma20, tmp_path):
        _, path = sigma20
        regime = ["--gamma0", "1", "--r", "0.5"]
        dense = write_matrix(tmp_path, random_trace_zero(np.random.default_rng(49), 100, 2.8),
                             "dense.txt")
        # At d = 100 the inverse expansion of cov is not admissible in this regime.
        for args in (["psi", "--matrix", path, "--m", "6", *regime],
                     ["grad", "--matrix", dense, "--m", "12", *regime],
                     ["cov", "--matrix", dense, "--l", "3", "--m", "12"]):
            first = invoke(args)
            assert first[0] == 0
            assert invoke(args) == first

    def test_golden_md_and_csv(self, sigma20):
        _, path = sigma20
        args = ["psi", "--matrix", path, "--m", "6", "--gamma0", "1", "--r", "0.5"]
        assert invoke(args + ["--format", "md"]) == (0, (
            "| quantity | value |\n|---|---|\n| psi | 1.04081 |\n| m | 6 |\n| d | 20 |\n"
            "| bound | 0.00349 |\n| gamma0 | 1.00000 |\n| r | 0.50000 |\n"
        ))
        assert invoke(args + ["--format", "csv"]) == (0, (
            "psi,m,d,bound,gamma0,r\n"
            "1.0408107741866666,6,20,0.0034932193115566972,1,0.5\n"
        ))


class TestGrad:
    def test_matrix_output_round_trips(self, tmp_path):
        rng = np.random.default_rng(41)
        sigma = random_trace_zero(rng, 6, norm=0.5)
        path = write_matrix(tmp_path, sigma)
        code, text = invoke(["grad", "--matrix", path, "--m", "4"])
        assert code == 0
        got = trailing_matrix(text, 6)
        ps = power_sums(sigma, 3)
        expected = materialize(norm_const_gradient_truncated(ps, 4, 6), sigma)
        assert np.array_equal(got, expected)  # 17g text is lossless

    def test_m2_is_identity_over_d(self, sigma20):
        sigma, path = sigma20
        code, text = invoke(["grad", "--matrix", path, "--m", "2"])
        assert code == 0
        got = trailing_matrix(text, 20)
        assert np.allclose(got, np.eye(20) / 20.0, atol=1e-18)

    def test_with_regime_bound(self, sigma20):
        _, path = sigma20
        code, text = invoke(
            ["grad", "--matrix", path, "--m", "3", "--gamma0", "1", "--r", "0.5"]
        )
        assert code == 0
        bound = float(record_value(text, "bound"))
        assert bound == gradient_tail_bound(3, 20.0, GrowthRegime(1.0, 0.5))


class TestCov:
    def test_matrix_and_descriptor(self, tmp_path):
        rng = np.random.default_rng(43)
        sigma = random_trace_zero(rng, 8, norm=0.6)
        path = write_matrix(tmp_path, sigma)
        code, text = invoke(["cov", "--matrix", path, "--l", "3", "--m", "4"])
        assert code == 0
        assert "alpha = " in text and "(3 - 2r)/2" in text
        assert "derived_bound" not in text
        got = trailing_matrix(text, 8)
        ps = power_sums(sigma, 3)
        assert np.array_equal(got, covariance_expansion(ps, sigma, 3, 4, 8))

    def test_derived_bound_with_regime(self, tmp_path):
        rng = np.random.default_rng(45)
        d = 16
        sigma = random_trace_zero(rng, d, norm=0.8)
        path = write_matrix(tmp_path, sigma)
        code, text = invoke(
            ["cov", "--matrix", path, "--l", "3", "--m", "4",
             "--gamma0", "0.9", "--r", "0"]
        )
        assert code == 0
        assert float(record_value(text, "derived_bound")) > 0.0
        assert "O(d^-1.5)" in text
        ps = power_sums(sigma, 3)
        regime = GrowthRegime(0.9, 0.0)
        assert float(record_value(text, "derived_bound")) == covariance_derived_bound(
            ps, sigma, 3, 4, d, regime
        )
        got = trailing_matrix(text, d)
        assert np.array_equal(got, covariance_expansion(ps, sigma, 3, 4, d))

    def test_csv_layout(self, tmp_path):
        sigma = np.diag([0.2, -0.2, 0.0])
        path = write_matrix(tmp_path, sigma)
        code, text = invoke(
            ["cov", "--matrix", path, "--l", "2", "--m", "3", "--format", "csv"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "l,m,d,alpha"
        assert len(lines) == 2 + 3  # header, values, then 3 matrix rows
        row = [float(x) for x in lines[2].split(",")]
        assert len(row) == 3


class TestSeventeenDigitMatrixOutput:
    """Row templates must print exactly what a per-entry f-string printed."""

    @staticmethod
    def matrices():
        edge = np.array([[0.0, -0.0, np.nan],
                         [np.inf, -np.inf, 5e-324],
                         [1e308, 0.1, 1.0 / 3.0]])
        dense = np.random.default_rng(47).standard_normal((50, 50))
        not_square = dense[:3, :5]
        return (edge, dense, edge.T.copy(), np.eye(4), not_square,
                *TestSeventeenDigitMatrixOutput.mirrors())

    @staticmethod
    def mirrors():
        """Mirrors that differ only in zero sign, by one ulp or in nan payload; then views."""
        rng = np.random.default_rng(53)
        s = random_trace_zero(rng, 12, 3.0)
        signs = s.copy()
        signs[np.triu_indices(12, 1)] = 0.0
        signs[np.tril_indices(12, -1)] = -0.0
        ulp = s.copy()
        below = np.tril_indices(12, -1)
        ulp[below] = np.nextafter(ulp[below], np.inf)
        payloads = np.full((3, 3), np.nan)
        payloads.view(np.int64)[np.tril_indices(3, -1)] += np.arange(1, 4)
        payloads.view(np.int64)[2, 0] |= np.int64(-2**63)  # a negative nan
        wide = rng.standard_normal((30, 30))
        return signs, ulp, payloads, s.T, wide.T, (wide + wide.T)[::2, 1::2]

    def test_text_matches_per_entry_format(self):
        for a in self.matrices():
            lines = [str(a.shape[0])]
            lines += [" ".join(f"{x:.17g}" for x in row) for row in a]
            assert format_matrix(a) == "\n".join(lines) + "\n"

    def test_csv_matches_per_entry_format(self):
        for a in self.matrices():
            expected = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in a)
            assert format_matrix(a, "csv") == expected

    def test_md_matches_per_entry_format(self):
        # The delimiter row has one cell per column: 5 for the 3 x 5 matrix.
        for a in self.matrices():
            expected = "|" + "---|" * a.shape[1] + "\n" + "".join(
                "| " + " | ".join(round_half_up(x) for x in row) + " |\n" for row in a)
            assert format_matrix(a, "md") == expected

    def test_unknown_format_named(self):
        with pytest.raises(ValueError, match="one of text, csv, md, got 'json'"):
            format_matrix(np.eye(2), "json")

    def test_mirror_cases_differ_from_transpose_in_bits(self):
        for a in self.mirrors()[:3]:
            assert not np.array_equal(a.view(np.int64), a.T.view(np.int64))


# Sigma is tridiagonal with a zero diagonal and power-of-two entries, and
# not diagonal, so grad and cov take the eigvalsh and matrix-product path.
# LAPACK's tridiagonal reduction leaves it as it is, and every entry of a
# product is a sum of at most two exact terms: the bytes do not depend on
# the BLAS kernel.
GOLDEN_OFF_DIAGONAL = [0.5, -0.25, 0.5, -0.125]
GOLDEN_SIGMA = {
    "tridiagonal": np.diag(GOLDEN_OFF_DIAGONAL, 1) + np.diag(GOLDEN_OFF_DIAGONAL, -1),
    "diagonal": np.diag([0.5, -0.25, 0.125, 0.375, -0.75]),
}
GOLDEN_ORDERS = {"grad": ["--m", "4"], "cov": ["--l", "3", "--m", "4"]}
GOLDEN_MATRIX_OUTPUT = {
    ("tridiagonal", "grad", "text"): (
        "m = 4\n"
        "d = 5\n"
        "5\n"
        "0.20684523809523811 0.028571428571428571 -0.0015873015873015873 0 0\n"
        "0.028571428571428571 0.20763888888888893 -0.014285714285714285 -0.0015873015873015873 "
        "0\n"
        "-0.0015873015873015873 -0.014285714285714285 0.20763888888888893 0.028571428571428571 "
        "-0.00079365079365079365\n"
        "0 -0.0015873015873015873 0.028571428571428571 0.20704365079365081 -0.0071428571428571426\n"
        "0 0 -0.00079365079365079365 -0.0071428571428571426 0.20386904761904764\n"
    ),
    ("tridiagonal", "grad", "csv"): (
        "m,d\n"
        "4,5\n"
        "0.20684523809523811,0.028571428571428571,-0.0015873015873015873,0,0\n"
        "0.028571428571428571,0.20763888888888893,-0.014285714285714285,-0.0015873015873015873,"
        "0\n"
        "-0.0015873015873015873,-0.014285714285714285,0.20763888888888893,0.028571428571428571,"
        "-0.00079365079365079365\n"
        "0,-0.0015873015873015873,0.028571428571428571,0.20704365079365081,-0.0071428571428571426\n"
        "0,0,-0.00079365079365079365,-0.0071428571428571426,0.20386904761904764\n"
    ),
    ("tridiagonal", "grad", "md"): (
        "| quantity | value |\n"
        "|---|---|\n"
        "| m | 4 |\n"
        "| d | 5 |\n"
        "|---|---|---|---|---|\n"
        "| 0.20685 | 0.02857 | -0.00159 | 0.00000 | 0.00000 |\n"
        "| 0.02857 | 0.20764 | -0.01429 | -0.00159 | 0.00000 |\n"
        "| -0.00159 | -0.01429 | 0.20764 | 0.02857 | -0.00079 |\n"
        "| 0.00000 | -0.00159 | 0.02857 | 0.20704 | -0.00714 |\n"
        "| 0.00000 | 0.00000 | -0.00079 | -0.00714 | 0.20387 |\n"
    ),
    ("tridiagonal", "cov", "text"): (
        "l = 3\n"
        "m = 4\n"
        "d = 5\n"
        "alpha = remainder O(d^-alpha), alpha = (3 - 2r)/2 in the growth exponent "
        "r\n"
        "5\n"
        "0.20001195790816326 0.027627551020408158 -0.0015348639455782312 0 0\n"
        "0.027627551020408158 0.2007793898809524 -0.013813775510204079 -0.0015348639455782312 "
        "0\n"
        "-0.0015348639455782312 -0.013813775510204079 0.2007793898809524 0.027627551020408158 "
        "-0.0007674319727891156\n"
        "0 -0.0015348639455782312 0.027627551020408158 0.20020381590136055 -0.0069068877551020395\n"
        "0 0 -0.0007674319727891156 -0.0069068877551020395 0.19713408801020407\n"
    ),
    ("tridiagonal", "cov", "csv"): (
        "l,m,d,alpha\n"
        '3,4,5,"remainder O(d^-alpha), alpha = (3 - 2r)/2 in the growth exponent '
        'r"\n'
        "0.20001195790816326,0.027627551020408158,-0.0015348639455782312,0,0\n"
        "0.027627551020408158,0.2007793898809524,-0.013813775510204079,-0.0015348639455782312,"
        "0\n"
        "-0.0015348639455782312,-0.013813775510204079,0.2007793898809524,0.027627551020408158,"
        "-0.0007674319727891156\n"
        "0,-0.0015348639455782312,0.027627551020408158,0.20020381590136055,-0.0069068877551020395\n"
        "0,0,-0.0007674319727891156,-0.0069068877551020395,0.19713408801020407\n"
    ),
    ("tridiagonal", "cov", "md"): (
        "| quantity | value |\n"
        "|---|---|\n"
        "| l | 3 |\n"
        "| m | 4 |\n"
        "| d | 5 |\n"
        "| alpha | remainder O(d^-alpha), alpha = (3 - 2r)/2 in the growth exponent "
        "r |\n"
        "|---|---|---|---|---|\n"
        "| 0.20001 | 0.02763 | -0.00153 | 0.00000 | 0.00000 |\n"
        "| 0.02763 | 0.20078 | -0.01381 | -0.00153 | 0.00000 |\n"
        "| -0.00153 | -0.01381 | 0.20078 | 0.02763 | -0.00077 |\n"
        "| 0.00000 | -0.00153 | 0.02763 | 0.20020 | -0.00691 |\n"
        "| 0.00000 | 0.00000 | -0.00077 | -0.00691 | 0.19713 |\n"
    ),
    ("diagonal", "grad", "text"): (
        "m = 4\n"
        "d = 5\n"
        "5\n"
        "0.23501984126984127 0 0 0 0\n"
        "0 0.18978174603174602 0 0 0\n"
        "0 0 0.21061507936507937 0 0\n"
        "0 0 0 0.22648809523809524 0\n"
        "0 0 0 0 0.16755952380952382\n"
    ),
    ("diagonal", "grad", "csv"): (
        "m,d\n"
        "4,5\n"
        "0.23501984126984127,0,0,0,0\n"
        "0,0.18978174603174602,0,0,0\n"
        "0,0,0.21061507936507937,0,0\n"
        "0,0,0,0.22648809523809524,0\n"
        "0,0,0,0,0.16755952380952382\n"
    ),
    ("diagonal", "grad", "md"): (
        "| quantity | value |\n"
        "|---|---|\n"
        "| m | 4 |\n"
        "| d | 5 |\n"
        "|---|---|---|---|---|\n"
        "| 0.23502 | 0.00000 | 0.00000 | 0.00000 | 0.00000 |\n"
        "| 0.00000 | 0.18978 | 0.00000 | 0.00000 | 0.00000 |\n"
        "| 0.00000 | 0.00000 | 0.21062 | 0.00000 | 0.00000 |\n"
        "| 0.00000 | 0.00000 | 0.00000 | 0.22649 | 0.00000 |\n"
        "| 0.00000 | 0.00000 | 0.00000 | 0.00000 | 0.16756 |\n"
    ),
    ("diagonal", "cov", "text"): (
        "l = 3\n"
        "m = 4\n"
        "d = 5\n"
        "alpha = remainder O(d^-alpha), alpha = (3 - 2r)/2 in the growth exponent "
        "r\n"
        "5\n"
        "0.22809514951814058 0 0 0 0\n"
        "0 0.18418996244331065 0 0 0\n"
        "0 0 0.2044094564909297 0 0\n"
        "0 0 0 0.21981478528911563 0\n"
        "0 0 0 0 0.16262250212585036\n"
    ),
    ("diagonal", "cov", "csv"): (
        "l,m,d,alpha\n"
        '3,4,5,"remainder O(d^-alpha), alpha = (3 - 2r)/2 in the growth exponent '
        'r"\n'
        "0.22809514951814058,0,0,0,0\n"
        "0,0.18418996244331065,0,0,0\n"
        "0,0,0.2044094564909297,0,0\n"
        "0,0,0,0.21981478528911563,0\n"
        "0,0,0,0,0.16262250212585036\n"
    ),
    ("diagonal", "cov", "md"): (
        "| quantity | value |\n"
        "|---|---|\n"
        "| l | 3 |\n"
        "| m | 4 |\n"
        "| d | 5 |\n"
        "| alpha | remainder O(d^-alpha), alpha = (3 - 2r)/2 in the growth exponent "
        "r |\n"
        "|---|---|---|---|---|\n"
        "| 0.22810 | 0.00000 | 0.00000 | 0.00000 | 0.00000 |\n"
        "| 0.00000 | 0.18419 | 0.00000 | 0.00000 | 0.00000 |\n"
        "| 0.00000 | 0.00000 | 0.20441 | 0.00000 | 0.00000 |\n"
        "| 0.00000 | 0.00000 | 0.00000 | 0.21981 | 0.00000 |\n"
        "| 0.00000 | 0.00000 | 0.00000 | 0.00000 | 0.16262 |\n"
    ),
}


class TestGoldenMatrixOutput:
    @pytest.mark.parametrize("sigma, command, fmt", GOLDEN_MATRIX_OUTPUT)
    def test_golden_bytes(self, tmp_path, capsys, sigma, command, fmt):
        path = write_matrix(tmp_path, GOLDEN_SIGMA[sigma])
        argv = [command, "--matrix", path, *GOLDEN_ORDERS[command], "--format", fmt]
        assert invoke(argv) == (0, GOLDEN_MATRIX_OUTPUT[sigma, command, fmt])
        assert capsys.readouterr().err == ""
        # d = 5 is below the admissible dimension of this regime.
        assert invoke([*argv, "--gamma0", "1", "--r", "0.5"]) == (1, "")
        assert capsys.readouterr().err == (
            "error: d = 5 is below the admissible dimension for the gradient tail "
            "bound: need d >= 13.928203230275509\n")


def golden_diagonal(fmt):
    """0.049916768 I_20, the cov matrix of sigma20 at l = 3, m = 4, as ``fmt`` writes it."""
    first, start, sep, end, value, zero = {
        "text": ("20\n", "", " ", "", "0.049916768", "0"),
        "csv": ("", "", ",", "", "0.049916768", "0"),
        "md": ("|---" * 20 + "|\n", "| ", " | ", " |", "0.04992", "0.00000"),
    }[fmt]
    return first + "".join(start + sep.join(value if j == i else zero for j in range(20))
                           + end + "\n" for i in range(20))


COV_RECORD = {
    "text": "l = 3\nm = 4\nd = 20\n"
            "alpha = remainder O(d^-1.5), alpha = (3 - 2r)/2 at r = 0\n"
            "derived_bound = 0.50480537017342753\ngamma0 = 1\nr = 0\n",
    "csv": "l,m,d,alpha,derived_bound,gamma0,r\n"
           '3,4,20,"remainder O(d^-1.5), alpha = (3 - 2r)/2 at r = 0",0.50480537017342753,1,0\n',
    "md": "| quantity | value |\n|---|---|\n| l | 3 |\n| m | 4 |\n| d | 20 |\n"
          "| alpha | remainder O(d^-1.5), alpha = (3 - 2r)/2 at r = 0 |\n"
          "| derived_bound | 0.50481 |\n| gamma0 | 1.00000 |\n| r | 0.00000 |\n",
}

# Golden bytes of the series subcommands on sigma20, 0.04 I_20: diagonal, so
# no LAPACK bits enter, and admissible for the inverse expansion at r = 0.
GOLDEN_SERIES_OUTPUT = {
    ("psi --m 1", "text"): "psi = 1\nm = 1\nd = 20\n",
    ("psi --m 4", "text"): "psi = 1.0408106666666666\nm = 4\nd = 20\n",
    ("zonal --k 0", "text"): "k = 0\nd = 20\nzonal = 1\n",
    ("zonal --k 0", "csv"): "k,d,zonal\n0,20,1\n",
    ("zonal --k 0", "md"): "| quantity | value |\n|---|---|\n| k | 0 |\n| d | 20 |\n"
                           "| zonal | 1.00000 |\n",
    ("zonal --k 3", "text"): "k = 3\nd = 20\nzonal = 0.04505600000000002\n"
                             "grad_coeff_0 = 0.14080000000000006\n"
                             "grad_coeff_1 = 0.64000000000000012\n"
                             "grad_coeff_2 = 1.6000000000000001\n",
    ("zonal --k 3", "csv"): "k,d,zonal,grad_coeff_0,grad_coeff_1,grad_coeff_2\n"
                            "3,20,0.04505600000000002,0.14080000000000006,"
                            "0.64000000000000012,1.6000000000000001\n",
    ("zonal --k 3", "md"): "| quantity | value |\n|---|---|\n| k | 3 |\n| d | 20 |\n"
                           "| zonal | 0.04506 |\n| grad_coeff_0 | 0.14080 |\n"
                           "| grad_coeff_1 | 0.64000 |\n| grad_coeff_2 | 1.60000 |\n",
    **{("cov --l 3 --m 4 --gamma0 1 --r 0", fmt): COV_RECORD[fmt] + golden_diagonal(fmt)
       for fmt in ("text", "csv", "md")},
}


class TestGoldenSeriesOutput:
    @pytest.mark.parametrize("command, fmt", GOLDEN_SERIES_OUTPUT)
    def test_golden_bytes(self, sigma20, capsys, command, fmt):
        _, path = sigma20
        argv = [*command.split(), "--matrix", path, "--format", fmt]
        assert invoke(argv) == (0, GOLDEN_SERIES_OUTPUT[command, fmt])
        assert capsys.readouterr().err == ""


REGIME = ["--gamma0", "1", "--r", "0"]
CSV_RECORDS = [
    ["psi", "--m", "4"], ["psi", "--m", "4", *REGIME],
    ["grad", "--m", "4"], ["grad", "--m", "4", *REGIME],
    ["cov", "--l", "3", "--m", "4"], ["cov", "--l", "3", "--m", "4", *REGIME],
    ["zonal", "--k", "3"],
]


class TestCsvRecords:
    # The cov record's alpha cell holds a comma, so RFC 4180 quotes it.
    @pytest.mark.parametrize("argv", CSV_RECORDS, ids=" ".join)
    def test_one_field_per_header_name(self, sigma20, argv):
        code, text = invoke([*argv, "--matrix", sigma20[1], "--format", "csv"])
        assert code == 0
        header, values, *matrix = csv.reader(io.StringIO(text))
        assert len(values) == len(header)
        assert all(math.isfinite(float(v)) for key, v in zip(header, values) if key != "alpha")
        assert all(len(row) == 20 for row in matrix)

    def test_choose_m(self):
        code, text = invoke(["choose-m", "--gamma0", "1", "--r", "0.5", "--d", "20",
                             "--eps", "0.01", "--format", "csv"])
        assert code == 0
        header, values = csv.reader(io.StringIO(text))
        assert len(values) == len(header)
        assert all(math.isfinite(float(v)) for v in values)


class TestZonal:
    def test_value_and_gradient_coeffs(self, tmp_path):
        sigma = np.diag([1.0, 2.0, 3.0])
        path = write_matrix(tmp_path, sigma)
        code, text = invoke(["zonal", "--matrix", path, "--k", "2"])
        assert code == 0
        t1, t2 = 6.0, 14.0
        assert float(record_value(text, "zonal")) == pytest.approx(
            (t1**2 + 2 * t2) / 3.0, rel=1e-14
        )
        assert float(record_value(text, "grad_coeff_0")) == pytest.approx(
            2.0 * t1 / 3.0, rel=1e-14
        )
        assert float(record_value(text, "grad_coeff_1")) == pytest.approx(
            4.0 / 3.0, rel=1e-14
        )

    def test_k_zero_value_only(self, tmp_path):
        sigma = np.eye(2)
        path = write_matrix(tmp_path, sigma)
        code, text = invoke(["zonal", "--matrix", path, "--k", "0"])
        assert code == 0
        assert float(record_value(text, "zonal")) == 1.0
        assert "grad_coeff" not in text

    def test_one_series_pass(self, tmp_path, monkeypatch):
        # The value and the gradient read the one a = 1/2 pass.
        path = write_matrix(tmp_path, random_trace_zero(np.random.default_rng(73), 8, norm=0.8))
        calls = count_series_passes(monkeypatch)
        code, _ = invoke(["zonal", "--matrix", path, "--k", "12"])
        assert code == 0
        assert calls == [13]


# Golden bytes of `bounds`: each grid's two csv families and its md/text tables.
# The CLI promises byte-stable output, so any change here is a change of format.
MODERATE_PSI_CSV = (
    "d,m=2,m=3,m=6,m=10,m=40\n"
    "20,0.5815142845221829,0.18781560289809351,0.0034932193115566972,"
    "6.8338960688473858e-06,1.5103238371071902e-32\n"
    "25,0.52012218803150201,0.15887265706416673,0.0024995442691058533,"
    "3.9119503772445019e-06,1.6216978716861533e-33\n"
    "50,0.36778192620265959,0.094466247080047194,0.00088372235128036079,"
    "6.9154165985371508e-07,1.583689327818509e-36\n"
    "62501,0.010402360542078574,0.00044935434037948849,1.999587424994523e-08,"
    "1.2517740491554212e-14,1.700201415687514e-67\n"
)

MODERATE_GRAD_CSV = (
    "d,m=2,m=3,m=6,m=10,m=40\n"
    "20,0.33678172569777165,0.15382778874430997,0.005352577978903603,"
    "1.6946390809696054e-05,1.4461205786145335e-31\n"
    "25,0.28488265504379706,0.12306223099544797,0.0036221837697391641,"
    "9.1743368505374103e-06,1.4685098805815869e-32\n"
    "50,0.16939224015947463,0.061531115497723984,0.0010768816777052979,"
    "1.3637733322613431e-06,1.205922553071989e-35\n"
    "62501,0.00080576015979300824,4.9224104812502192e-05,4.0979183876549598e-09,"
    "4.1516482368591202e-15,2.1773114694676489e-67\n"
)

MODERATE_MD = (
    "(a) normalizing-constant tail bound\n"
    "\n"
    "| d | m = 2 | m = 3 | m = 6 | m = 10 | m = 40 |\n"
    "|---|---|---|---|---|---|\n"
    "| 20 | 0.58151 | 0.18782 | 0.00349 | 0.00001 | 0.00000 |\n"
    "| 25 | 0.52012 | 0.15887 | 0.00250 | 0.00000 | 0.00000 |\n"
    "| 50 | 0.36778 | 0.09447 | 0.00088 | 0.00000 | 0.00000 |\n"
    "| 62501 | 0.01040 | 0.00045 | 0.00000 | 0.00000 | 0.00000 |\n"
    "\n"
    "(b) gradient tail bound\n"
    "\n"
    "| d | m = 2 | m = 3 | m = 6 | m = 10 | m = 40 |\n"
    "|---|---|---|---|---|---|\n"
    "| 20 | 0.33678 | 0.15383 | 0.00535 | 0.00002 | 0.00000 |\n"
    "| 25 | 0.28488 | 0.12306 | 0.00362 | 0.00001 | 0.00000 |\n"
    "| 50 | 0.16939 | 0.06153 | 0.00108 | 0.00000 | 0.00000 |\n"
    "| 62501 | 0.00081 | 0.00005 | 0.00000 | 0.00000 | 0.00000 |\n"
)

LARGE_PSI_CSV = (
    "d,m=2,m=3,m=6,m=10,m=40\n"
    "200,0.69154092462949668,0.24356670281887446,0.0058748711935661503,"
    "1.6253835656524872e-05,4.8330362787430087e-31\n"
    "225,0.67147485741298996,0.23304281689620829,0.0053781629596417555,"
    "1.4028628390979422e-05,2.6819917827880385e-31\n"
    "1000,0.46246128884040649,0.13319998179001125,0.0017569962958261603,"
    "2.1739190027962166e-06,1.5465716091977628e-34\n"
)

LARGE_GRAD_CSV = (
    "d,m=2,m=3,m=6,m=10,m=40\n"
    "200,0.11613878209360476,0.057848525815449227,0.0026103981338772625,"
    "1.1687885887766734e-05,1.3419172483219793e-30\n"
    "225,0.10789639661048074,0.052957552354722243,0.0022864418600454955,"
    "9.6519066704417121e-06,7.1249353329753538e-31\n"
    "1000,0.042473789926689536,0.017300744514715267,0.00042693867255062855,"
    "8.5488895429265848e-07,2.3483453325471673e-34\n"
)

LARGE_MD = (
    "(a) normalizing-constant tail bound\n"
    "\n"
    "| d | m = 2 | m = 3 | m = 6 | m = 10 | m = 40 |\n"
    "|---|---|---|---|---|---|\n"
    "| 200 | 0.69154 | 0.24357 | 0.00587 | 0.00002 | 0.00000 |\n"
    "| 225 | 0.67147 | 0.23304 | 0.00538 | 0.00001 | 0.00000 |\n"
    "| 1000 | 0.46246 | 0.13320 | 0.00176 | 0.00000 | 0.00000 |\n"
    "\n"
    "(b) gradient tail bound\n"
    "\n"
    "| d | m = 2 | m = 3 | m = 6 | m = 10 | m = 40 |\n"
    "|---|---|---|---|---|---|\n"
    "| 200 | 0.11614 | 0.05785 | 0.00261 | 0.00001 | 0.00000 |\n"
    "| 225 | 0.10790 | 0.05296 | 0.00229 | 0.00001 | 0.00000 |\n"
    "| 1000 | 0.04247 | 0.01730 | 0.00043 | 0.00000 | 0.00000 |\n"
)

OVERFLOW_PSI_CSV = (
    "d,m=2,m=3,m=40\n"
    "1e+20,0.00026006109401575098,1.7762503048074458e-06,1.5465716091977697e-99\n"
    "2e+22,1.300305470078755e-06,6.2799931780700841e-10,1.4749256221749917e-145\n"
)

OVERFLOW_GRAD_CSV = (
    "d,m=2,m=3,m=40\n"
    "1e+20,3.1850849114427679e-12,3.0765557748862e-14,3.1315688310723694e-106\n"
    "2e+22,1.5925424557213839e-14,1.0877267255603326e-17,2.9864967642520508e-152\n"
)

OVERFLOW_MD = (
    "(a) normalizing-constant tail bound\n"
    "\n"
    "| d | m = 2 | m = 3 | m = 40 |\n"
    "|---|---|---|---|\n"
    "| 1e+20 | 0.00026 | 0.00000 | 0.00000 |\n"
    "| 2e+22 | 0.00000 | 0.00000 | 0.00000 |\n"
    "\n"
    "(b) gradient tail bound\n"
    "\n"
    "| d | m = 2 | m = 3 | m = 40 |\n"
    "|---|---|---|---|\n"
    "| 1e+20 | 0.00000 | 0.00000 | 0.00000 |\n"
    "| 2e+22 | 0.00000 | 0.00000 | 0.00000 |\n"
)

MODERATE_GRID = ["--gamma0", "1", "--r", "0.5", "--d", "20,25,50,62501", "--m", "2,3,6,10,40"]
LARGE_GRID = ["--gamma0", "1", "--r", "0.75", "--d", "200,225,1000", "--m", "2,3,6,10,40"]
# g2^40 overflows float64 here: the bounds take the decayed-growth fallback.
OVERFLOW_GRID = ["--gamma0", "1e8", "--r", "0", "--d",
                 "100000000000000000000,20000000000000000000000", "--m", "2,3,40"]
GOLDEN_BOUNDS = {
    "moderate": (MODERATE_GRID, MODERATE_PSI_CSV, MODERATE_GRAD_CSV, MODERATE_MD),
    "large": (LARGE_GRID, LARGE_PSI_CSV, LARGE_GRAD_CSV, LARGE_MD),
    "overflow": (OVERFLOW_GRID, OVERFLOW_PSI_CSV, OVERFLOW_GRAD_CSV, OVERFLOW_MD),
}


class TestBounds:
    @pytest.mark.parametrize("grid", GOLDEN_BOUNDS)
    def test_golden_bytes(self, tmp_path, capsys, grid):
        argv, psi_csv, grad_csv, md = GOLDEN_BOUNDS[grid]
        for fmt in ("text", "md"):
            assert invoke(["bounds", *argv, "--format", fmt]) == (0, md)
        csv = "# psi\n" + psi_csv + "# grad\n" + grad_csv
        assert invoke(["bounds", *argv, "--format", "csv"]) == (0, csv)
        prefix = str(tmp_path / "table")
        assert invoke(["bounds", *argv, "--out", prefix]) == (
            0, f"{prefix}_psi.csv\n{prefix}_grad.csv\n")
        assert (tmp_path / "table_psi.csv").read_bytes() == psi_csv.encode()
        assert (tmp_path / "table_grad.csv").read_bytes() == grad_csv.encode()
        assert capsys.readouterr().err == ""

    def test_golden_inadmissible(self, tmp_path, capsys):
        argv = ["bounds", "--gamma0", "1", "--r", "0.5", "--d", "20,5", "--m", "3"]
        prefix = str(tmp_path / "table")
        for extra in (["--format", "text"], ["--format", "md"], ["--format", "csv"],
                      ["--out", prefix]):
            assert invoke([*argv, *extra]) == (1, "")
            assert capsys.readouterr().err == (
                "error: d = 5 is below the admissible dimension for the value tail "
                "bound: need d >= 13.928203230275509\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_leaves_nothing_on_failure(self, tmp_path, capsys):
        # The grad file cannot be replaced: neither file nor a temporary is left.
        (tmp_path / "table_grad.csv").mkdir()
        prefix = str(tmp_path / "table")
        argv = ["bounds", "--gamma0", "1", "--r", "0.5", "--d", "20", "--m", "3"]
        assert invoke([*argv, "--out", prefix]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "table_grad.csv" in err
        assert [p.name for p in tmp_path.iterdir()] == ["table_grad.csv"]
        assert list((tmp_path / "table_grad.csv").iterdir()) == []
        # A missing directory: the error names the file asked for, not a temporary.
        missing = str(tmp_path / "missing" / "table")
        assert invoke([*argv, "--out", missing]) == (2, "")
        assert capsys.readouterr().err.endswith(f": '{missing}_psi.csv'\n")

    @pytest.mark.parametrize("argv, code, out, err", [
        (["--gamma0", "1", "--r", "0.5", "--d", "20", "--eps", "0.01"], 0,
         "m,psi_bound,grad_bound,eps,d\n6,0.0034932193115566972,0.005352577978903603,0.01,20\n",
         ""),
        (["--gamma0", "1", "--r", "0.75", "--d", "1000", "--eps", "1e-6"], 0,
         "m,psi_bound,grad_bound,eps,d\n"
         "11,3.6150267206622078e-07,1.557286367123761e-07,9.9999999999999995e-07,1000\n", ""),
        (["--gamma0", "1", "--r", "0.5", "--d", "14", "--eps", "1e-30"], 1, "",
         "error: no order up to 40 reaches eps = 1e-30; "
         "best achievable bound is 5.596926e-30 at m = 40\n"),
        (["--gamma0", "1", "--r", "0.5", "--d", "10", "--eps", "0.01"], 1, "",
         "error: d = 10 is below the admissible dimension for order selection: "
         "need d >= 13.928203230275509\n"),
        # A threshold past 1e80 prints in exponent form, not as an 81-digit integer.
        (["--gamma0", "1e40", "--r", "0", "--d", "1000", "--eps", "0.1"], 1, "",
         "error: d = 1000 is below the admissible dimension for order selection: "
         "need d >= 3.7320508075688778e+80\n"),
    ])
    def test_golden_choose_m(self, capsys, argv, code, out, err):
        assert invoke(["choose-m", *argv, "--format", "csv"]) == (code, out)
        assert capsys.readouterr().err == err

    def test_markdown_table_frozen_cells(self):
        code, text = invoke(
            ["bounds", "--gamma0", "1", "--r", "0.5", "--d", "20,25", "--m", "3,6,10"]
        )
        assert code == 0
        assert "(a) normalizing-constant tail bound" in text
        assert "(b) gradient tail bound" in text
        assert "| 20 | 0.18782 | 0.00349 | 0.00001 |" in text
        assert "| 20 | 0.15383 | 0.00535 | 0.00002 |" in text

    def test_csv_sections(self):
        code, text = invoke(
            ["bounds", "--gamma0", "1", "--r", "0.5", "--d", "20", "--m", "3",
             "--format", "csv"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "# psi"
        assert lines[1] == "d,m=3"
        assert lines[3] == "# grad"
        cell = float(lines[2].split(",")[1])
        assert cell == norm_const_tail_bound(3, 20.0, GrowthRegime(1.0, 0.5))

    def test_out_files(self, tmp_path):
        prefix = str(tmp_path / "table")
        code, text = invoke(
            ["bounds", "--gamma0", "1", "--r", "0.5", "--d", "20,25", "--m", "3,6",
             "--out", prefix]
        )
        assert code == 0
        assert text == f"{prefix}_psi.csv\n{prefix}_grad.csv\n"
        psi_lines = (tmp_path / "table_psi.csv").read_text().strip().splitlines()
        assert psi_lines[0] == "d,m=3,m=6"
        assert len(psi_lines) == 3
        grad_lines = (tmp_path / "table_grad.csv").read_text().strip().splitlines()
        v = float(grad_lines[1].split(",")[1])
        assert v == gradient_tail_bound(3, 20.0, GrowthRegime(1.0, 0.5))

    def test_csv_round_trip(self):
        # 17 significant digits are lossless: every cell parses back to the table's float.
        regime = GrowthRegime(1.0, 0.5)
        table = tail_bound_table(regime, [20.0, 62501.0], [3, 6])
        code, text = invoke(["bounds", "--gamma0", "1", "--r", "0.5", "--d", "20,62501",
                             "--m", "3,6", "--format", "csv"])
        assert code == 0
        psi, grad = text.removeprefix("# psi\n").split("# grad\n")
        for part, grid in ((psi, table.norm_const_bounds), (grad, table.gradient_bounds)):
            lines = part.splitlines()
            assert lines[0] == "d,m=3,m=6"
            rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
            assert [row[0] for row in rows] == [20.0, 62501.0]
            assert np.array_equal([row[1:] for row in rows], grid)

    def test_row_labels_keep_seventeen_digits(self, tmp_path):
        # Distinct d keep distinct labels; six significant digits print 1.23457e+06 twice.
        argv = ["bounds", "--gamma0", "1", "--r", "0.5", "--d", "1234567,1234568", "--m", "3"]
        _, text = invoke([*argv, "--format", "csv"])
        labels = [line.split(",")[0] for line in text.splitlines()]
        assert labels == ["# psi", "d", "1234567", "1234568", "# grad", "d", "1234567", "1234568"]
        _, text = invoke([*argv, "--format", "md"])
        labels = [line.split(" | ")[0] for line in text.splitlines() if line[:3] == "| 1"]
        assert labels == ["| 1234567", "| 1234568"] * 2
        invoke([*argv, "--out", str(tmp_path / "t")])
        for name in ("t_psi.csv", "t_grad.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert [line.split(",")[0] for line in lines] == ["d", "1234567", "1234568"]

    def test_inadmissible_dimension_keeps_seventeen_digits(self, capsys):
        code, _ = invoke(["choose-m", "--gamma0", "1e5", "--r", "0", "--d", "1000000000",
                          "--eps", "0.01"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: d = 1000000000 is below ")

    def test_inadmissible_dimension_in_grid(self, capsys):
        code, _ = invoke(["bounds", "--gamma0", "1", "--r", "0.5", "--d", "20,5",
                          "--m", "3"])
        assert code == 1
        assert "admissible" in capsys.readouterr().err

    def test_order_range_checked_first(self, capsys):
        # d = 5 is inadmissible, but the order range is checked before any bound.
        for dims, orders, bad in (("20", "3,50", "50"), ("20", "0", "0"), ("5", "3,50", "50")):
            code, text = invoke(["bounds", "--gamma0", "1", "--r", "0.5", "--d", dims,
                                 "--m", orders])
            assert (code, text) == (2, "")
            assert capsys.readouterr().err == f"error: m must be in 2..40, got {bad}\n"

    def test_bad_dimension_list(self):
        code, _ = invoke(["bounds", "--gamma0", "1", "--r", "0.5", "--d", "20,1",
                          "--m", "3"])
        assert code == 2

    def test_non_integer_list_named(self, capsys):
        code, text = invoke(["bounds", "--gamma0", "1", "--r", "0.5", "--d", "20,x",
                             "--m", "3"])
        assert (code, text) == (2, "")
        assert "expected comma-separated integers, got '20,x'" in capsys.readouterr().err


COLD_START_SCRIPT = """
import contextlib, io, sys
from binghamx.cli import run

loaded = [("import", 0, "numpy" in sys.modules)]
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    loaded.append((argv[0], code, "numpy" in sys.modules))
print(loaded)
run(["psi", "--matrix", sys.argv[1], "--m", "6", "--gamma0", "1", "--r", "0.5",
     "--format", "csv"])
"""


class TestColdStart:
    def test_table_commands_load_no_numpy(self, sigma20):
        # A fresh interpreter: this process has numpy loaded already.
        argvs = [["bounds", *MODERATE_GRID], ["bounds", *MODERATE_GRID, "--format", "csv"],
                 ["choose-m", "--gamma0", "1", "--r", "0.5", "--d", "20", "--eps", "0.01"],
                 ["--help"]]
        proc = fresh_python(COLD_START_SCRIPT.replace("ARGVS", repr(argvs)), sigma20[1])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        loaded, psi = proc.stdout.split("\n", 1)
        assert loaded == repr([("import", 0, False)]
                              + [(argv[0], 0, False) for argv in argvs])
        # The matrix commands load numpy when they run, in the same process.
        assert psi == ("psi,m,d,bound,gamma0,r\n"
                       "1.0408107741866666,6,20,0.0034932193115566972,1,0.5\n")


class TestChooseM:
    def test_frozen_selection(self):
        code, text = invoke(
            ["choose-m", "--gamma0", "1", "--r", "0.5", "--d", "20", "--eps", "0.01"]
        )
        assert code == 0
        assert record_value(text, "m") == "6"
        assert float(record_value(text, "psi_bound")) <= 0.01
        assert float(record_value(text, "grad_bound")) <= 0.01

    def test_inadmissible(self, capsys):
        code, _ = invoke(
            ["choose-m", "--gamma0", "1", "--r", "0.5", "--d", "10", "--eps", "0.01"]
        )
        assert code == 1
        assert "13.92" in capsys.readouterr().err

    def test_unreachable_eps(self, capsys):
        code, _ = invoke(
            ["choose-m", "--gamma0", "1", "--r", "0.5", "--d", "14", "--eps", "1e-30"]
        )
        assert code == 1
        assert "best achievable" in capsys.readouterr().err


class TestVerify:
    def test_passing_report(self, tmp_path):
        sigma = np.diag([0.3, -0.3, 0.0, 0.0])
        path = write_matrix(tmp_path, sigma)
        code, text = invoke(
            ["verify", "--matrix", path, "--samples", "50000", "--seed", "0"]
        )
        assert code == 0
        assert text.count("pass") == 3
        assert "FAIL" not in text
        for name in ("psi", "cov[", "cov_trace"):
            assert name in text

    def test_failing_series_detected(self, tmp_path):
        # m = 2 truncation of a large matrix is far from the sampled
        # truth, so the psi check must fail and the exit code must be 1.
        sigma = np.diag([5.0, -5.0, 0.0])
        path = write_matrix(tmp_path, sigma)
        code, text = invoke(
            ["verify", "--matrix", path, "--samples", "50000", "--seed", "1",
             "--l", "2", "--m", "2"]
        )
        assert code == 1
        assert "FAIL" in text

    def test_zero_variance_input_passes_when_converged(self, tmp_path):
        # x' Sigma x is constant on the sphere for Sigma = theta * I, so the
        # sampler has exactly zero variance and the psi tolerance reduces to
        # the float-roundoff floor.  A float-converged series must still pass;
        # a visibly truncated one must still fail.
        sigma = 0.04 * np.eye(20)
        path = write_matrix(tmp_path, sigma)
        code, text = invoke(
            ["verify", "--matrix", path, "--samples", "5000", "--seed", "7",
             "--l", "3", "--m", "12"]
        )
        assert code == 0
        assert "FAIL" not in text
        code, text = invoke(
            ["verify", "--matrix", path, "--samples", "5000", "--seed", "7",
             "--l", "3", "--m", "4"]
        )
        assert code == 1

    def test_reproducible(self, tmp_path):
        sigma = np.diag([0.2, -0.2])
        path = write_matrix(tmp_path, sigma)
        args = ["verify", "--matrix", path, "--samples", "2000", "--seed", "5"]
        assert invoke(args) == invoke(args)

    def test_golden_md_and_csv(self, tmp_path, monkeypatch):
        # Fixed Monte-Carlo estimates, exact in binary, keep the bytes
        # independent of the BLAS kernel; the psi check fails on purpose.
        # verify takes the eigenvalues of diag(0.2, -0.2) ascending, (-0.2, 0.2),
        # so v0 = e2 and the series value of cov[v0] is C[1, 1] = T g(-0.2).
        def fixed_moments(eigenvalues, n, seed):
            diag = np.array([0.4609375, 0.5390625])
            diag_se = np.array([0.0048828125, 0.0048828125])
            return (McEstimate(1.03125, 0.0009765625, n, seed),
                    McEstimate(diag, diag_se, n, seed))

        monkeypatch.setattr(oracle, "mc_eigen_moments", fixed_moments)
        path = write_matrix(tmp_path, np.diag([0.2, -0.2]))
        args = ["verify", "--matrix", path, "--samples", "2000", "--seed", "5"]
        assert invoke(args + ["--format", "md"]) == (1, (
            "| check | series | estimate | std_error | bound | status |\n"
            "|---|---|---|---|---|---|\n"
            "| psi | 1.01003 | 1.03125 | 0.00098 | 0.00377 | FAIL |\n"
            "| cov[v0] | 0.45021 | 0.46094 | 0.00488 | 0.01884 | pass |\n"
            "| cov_trace | 1.00000 | 1.00000 | 0.00000 | 0.00000 | pass |\n"
        ))
        assert invoke(args + ["--format", "csv"]) == (1, (
            "check,series,estimate,std_error,bound,status\n"
            "psi,1.0100250277951457,1.03125,0.0009765625,0.003768383915172134,FAIL\n"
            "cov[v0],0.45021447591467534,0.4609375,0.0048828125,0.018841919575788901,pass\n"
            "cov_trace,1,1,0,9.9999999999999998e-13,pass\n"
        ))

    def test_csv_report(self, tmp_path):
        sigma = np.diag([0.2, -0.2])
        path = write_matrix(tmp_path, sigma)
        code, text = invoke(
            ["verify", "--matrix", path, "--samples", "2000", "--seed", "5",
             "--format", "csv"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "check,series,estimate,std_error,bound,status"
        assert len(lines) == 4

    def test_csv_rows_have_six_fields(self, tmp_path):
        sigma = random_trace_zero(np.random.default_rng(71), 12, norm=0.8)
        path = write_matrix(tmp_path, sigma)
        _, text = invoke(
            ["verify", "--matrix", path, "--samples", "5000", "--seed", "3",
             "--format", "csv"]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert [len(line.split(",")) for line in lines] == [6] * 4
        assert lines[2].startswith("cov[v")

    @pytest.mark.parametrize("dense, passes", [(True, 1), (False, 0)],
                             ids=["dense", "diagonal"])
    def test_one_eigenvalue_pass(self, tmp_path, monkeypatch, dense, passes):
        # Everything comes from the eigenvalues power_sums forms: one eigvalsh
        # for dense Sigma, none for diagonal Sigma, and no eigenvectors.
        sigma = random_trace_zero(np.random.default_rng(71), 12, norm=0.8)
        path = write_matrix(tmp_path, sigma if dense else np.diag(np.diagonal(sigma)))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        def no_eigenvectors(*args, **kwargs):
            raise AssertionError("verify computed eigenvectors")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(np.linalg, "eigh", no_eigenvectors)
        code, text = invoke(["verify", "--matrix", path, "--samples", "5000", "--seed", "3"])
        assert code == 0, text
        assert calls == [(12, 12)] * passes

    @pytest.mark.parametrize("diagonal, psi_status", [
        ((400.0, 0.0, 0.0), "FAIL"),
        ((400.0, -400.0, 0.0), "inconclusive"),
    ], ids=["400-0-0", "400-minus400-0"])
    def test_large_eigenvalue_report_is_finite(self, tmp_path, capsys, diagonal, psi_status):
        # Unshifted weights reach e^400 and their squares overflow: the report
        # showed std_error nan after an overflow warning.  Shifted weights keep
        # every printed number finite and warn of nothing; the m = 12 series is
        # far from Psi here, so cov[v2] fails, and psi fails where at least
        # MIN_ESS = 50 samples carry the weights (51.1 and 37.8 of them).
        path = write_matrix(tmp_path, np.diag(diagonal))
        code, text = invoke(["verify", "--matrix", path, "--samples", "20000", "--seed", "1",
                             "--format", "csv"])
        err = capsys.readouterr().err
        assert err == "" if psi_status == "FAIL" else err.startswith("inconclusive:")
        assert code == 1
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [row[0] for row in rows] == ["psi", "cov[v2]", "cov_trace"]
        assert [row[-1] for row in rows] == [psi_status, "FAIL", "pass"]
        assert np.isfinite([float(x) for row in rows for x in row[1:5]]).all()

    def test_one_series_pass(self, tmp_path, monkeypatch):
        # Psi, T and the gradient coefficients all come from one pass at
        # order K + 1, with K = max(l, m) the highest power sum the CLI forms.
        path = write_matrix(tmp_path, random_trace_zero(np.random.default_rng(71), 12, norm=0.8))
        calls = count_series_passes(monkeypatch)
        for l, m in ((3, 12), (9, 4)):
            calls.clear()
            code, _ = invoke(["verify", "--matrix", path, "--samples", "2000", "--seed", "5",
                              "--l", str(l), "--m", str(m)])
            assert code in (0, 1)
            assert calls == [max(l, m) + 1]

    @staticmethod
    def printed_series(monkeypatch, path, d, ks):
        """The series value verify prints as cov[v<k>], for each k of ``ks``.

        Fixed estimates, zero but for a spike at k, make entry k the worst.
        """
        spike = [0]

        def spiked_moments(eigenvalues, n, seed):
            value = np.zeros(d)
            value[spike[0]] = 1e3
            return (McEstimate(1.0, 0.0, n, seed), McEstimate(value, np.zeros(d), n, seed))

        monkeypatch.setattr(oracle, "mc_eigen_moments", spiked_moments)
        got = []
        for k in ks:
            spike[0] = k
            _, text = invoke(["verify", "--matrix", path, "--samples", "1000",
                              "--seed", "0", "--format", "csv"])
            name, value = text.splitlines()[2].split(",")[:2]
            assert name == f"cov[v{k}]"
            got.append(float(value))
        return np.array(got)

    @staticmethod
    def projected_series(sigma, l=3, m=12):
        """Reference: the series column as v_k' C v_k of the dense product C,
        with v_k the eigenvectors of eigh, eigenvalues ascending."""
        d = sigma.shape[0]
        c = covariance_expansion(power_sums(sigma, max(l, m) - 1), sigma, l, m, d)
        vecs = np.linalg.eigh(sigma)[1]
        return np.sum(vecs * (c @ vecs), axis=0)

    @pytest.mark.parametrize("d", (12, 200))
    def test_series_matches_projection_dense(self, tmp_path, monkeypatch, d):
        sigma = random_trace_zero(np.random.default_rng(2026), d, norm=0.9 * d**0.25)
        ks = list(range(0, d, 1 if d < 20 else 13)) + [d - 1]
        got = self.printed_series(monkeypatch, write_matrix(tmp_path, sigma), d, ks)
        np.testing.assert_allclose(got, self.projected_series(sigma)[ks], rtol=1e-14, atol=0)

    def test_series_matches_projection_diagonal_unsorted(self, tmp_path, monkeypatch):
        sigma = np.diag([0.3, -0.1, 0.0, 0.25, -0.45, -0.0, 0.1, -0.1])
        got = self.printed_series(monkeypatch, write_matrix(tmp_path, sigma), 8, range(8))
        assert np.array_equal(got, self.projected_series(sigma))

    def test_series_column_memory_d3000(self):
        # The series column T g(lambda_k) is formed from d numbers in O(d)
        # memory; one d x d float64 array at this d is 72 MB.
        d = 3000
        lam = np.linspace(-0.02, 0.02, d)[::-1].copy()
        ps = power_sums(np.diag(lam), 11)
        tracemalloc.start()
        try:
            rows = _verify_series(ps, 3, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        (_, psi), (_, cov), (_, sorted_lam) = rows
        assert psi == norm_const_truncated(ps, 12, d)
        assert np.array_equal(sorted_lam, lam[::-1])
        scalar = series.inverse_norm_const_truncated(ps, 3, d)
        coeffs = norm_const_gradient_truncated(ps, 12, d).coeffs
        want = scalar * np.polynomial.polynomial.polyval(sorted_lam, coeffs)
        assert cov == pytest.approx(want, rel=1e-15)


class TestVerifyDecision:
    """The family-wise rule keeps its power and stops the false failures."""

    @staticmethod
    def run_verify(path, n, seed, *extra):
        return invoke(["verify", "--matrix", path, "--samples", str(n),
                       "--seed", str(seed), "--format", "csv", *extra])

    @staticmethod
    def statuses(text):
        return {line.split(",")[0]: line.split(",")[-1]
                for line in text.strip().splitlines()[1:]}

    def test_scaled_psi_fails(self, tmp_path, monkeypatch):
        # A series Psi off by 12 standard errors of the estimate.
        sigma = random_trace_zero(np.random.default_rng(73), 8, norm=1.0)
        path = write_matrix(tmp_path, sigma)
        n, seed = 20_000, 17
        psi, _ = oracle.mc_eigen_moments(np.linalg.eigvalsh(sigma), n, seed)
        real = series.norm_const_truncated

        def scaled(ps, m, d):
            value = real(ps, m, d)
            return value * (1.0 + 12.0 * psi.std_error / value)

        monkeypatch.setattr(series, "norm_const_truncated", scaled)
        code, text = self.run_verify(path, n, seed)
        assert code == 1
        assert self.statuses(text)["psi"] == "FAIL"

    def test_flipped_sigma_term_fails(self, tmp_path, monkeypatch):
        # The Sigma coefficient of the gradient polynomial with its sign
        # flipped: at d = 5 it moves the covariance by many standard errors.
        sigma = np.diag([1.0, -1.0, 0.5, -0.5, 0.0])
        path = write_matrix(tmp_path, sigma)

        real = series.norm_const_gradient_truncated

        def flipped(ps, m, d):
            coeffs = real(ps, m, d).coeffs.copy()
            coeffs[1] = -coeffs[1]
            return GradientPolynomial(d=d, coeffs=coeffs)

        code, text = self.run_verify(path, 20_000, 19)
        assert code == 0
        monkeypatch.setattr(series, "norm_const_gradient_truncated", flipped)
        code, text = self.run_verify(path, 20_000, 19)
        assert code == 1
        status = self.statuses(text)
        assert status["psi"] == "pass"
        assert [v for k, v in status.items() if k.startswith("cov[v")] == ["FAIL"]

    @pytest.mark.parametrize("seed", (101, 102, 103))
    def test_zero_matrix_passes_at_d200(self, tmp_path, seed):
        path = write_matrix(tmp_path, np.zeros((200, 200)))
        code, text = self.run_verify(path, 100_000, seed)
        assert code == 0, text

    @pytest.mark.parametrize("seed", (101, 102, 103))
    def test_benchmark_like_input_passes_at_d200(self, tmp_path, seed):
        # Dense trace-zero Sigma at 0.9 of the --gamma0 1 --r 0.5 cap.
        sigma = random_trace_zero(np.random.default_rng(2026), 200, norm=0.9 * 200**0.25)
        path = write_matrix(tmp_path, sigma)
        code, text = self.run_verify(path, 100_000, seed)
        assert code == 0, text


    @pytest.mark.parametrize("n, ess", [(200_000, "1.01064"), (1000, "1.00141")])
    def test_hopeless_psi_is_inconclusive(self, tmp_path, capsys, n, ess):
        # diag(0, ..., 0, 745): no sample comes near the top eigenvector and one
        # carries the weights.  The estimate, 2.1e29 at n = 2e5 and 9.5e15 at
        # n = 1000, with a standard error as large, passed against the series'
        # 4.6e8; the true Psi is 3.3e193.
        lam = np.zeros(200)
        lam[-1] = 745.0
        path = write_matrix(tmp_path, np.diag(lam))
        code, text = self.run_verify(path, n, 1)
        assert code == 1
        assert self.statuses(text)["psi"] == "inconclusive"
        assert capsys.readouterr().err == (
            f"inconclusive: the effective sample size {ess} of the {n} samples is below 50\n")

    @pytest.mark.parametrize("ess, code", [(49.999, 1), (50.0, 0)])
    def test_inconclusive_golden(self, tmp_path, monkeypatch, capsys, ess, code):
        # Fixed estimates that pass every check; below MIN_ESS = 50 effective
        # samples only the psi status changes, and the run exits 1.
        def fixed_moments(eigenvalues, n, seed):
            return (McEstimate(1.0100250277951457, 0.0009765625, n, seed, ess),
                    McEstimate(np.array([0.5, 0.5]), np.array([0.25, 0.25]), n, seed, ess))

        monkeypatch.setattr(oracle, "mc_eigen_moments", fixed_moments)
        path = write_matrix(tmp_path, np.diag([0.2, -0.2]))
        got = invoke(["verify", "--matrix", path, "--samples", "2000", "--seed", "5",
                      "--format", "md"])
        status = "inconclusive" if code else "pass"
        assert got == (code, (
            "| check | series | estimate | std_error | bound | status |\n"
            "|---|---|---|---|---|---|\n"
            f"| psi | 1.01003 | 1.01003 | 0.00098 | 0.00377 | {status} |\n"
            "| cov[v0] | 0.45021 | 0.50000 | 0.25000 | 0.96471 | pass |\n"
            "| cov_trace | 1.00000 | 1.00000 | 0.00000 | 0.00000 | pass |\n"
        ))
        err = capsys.readouterr().err
        assert err == ("inconclusive: the effective sample size 49.999 of the 2000 samples "
                       "is below 50\n" if code else "")


class TestOverflowParity:
    """grad and cov near the largest ||Sigma||_F the CLI accepts.

    Dense Horner (one product per degree) sets the reference: the printed
    matrix is finite exactly where Horner's is, and where it is not the
    SeriesOverflowError message keeps its bytes.
    """

    @pytest.mark.parametrize("m", [12, 40])
    @pytest.mark.parametrize("command", ["grad", "cov"])
    def test_finite_exactly_where_horner_is(self, tmp_path, monkeypatch, capsys, command, m):
        base = random_symmetric(np.random.default_rng(5), 6, norm=1.0)
        path = tmp_path / "sigma.txt"
        argv = [command, "--matrix", str(path), "--m", str(m)]
        if command == "cov":
            argv += ["--l", "3"]

        def outcome(scale, horner):
            path.write_text(format_matrix(scale * base))
            with monkeypatch.context() as patch:
                if horner:
                    patch.setattr(symmat, "materialize", dense_horner)
                code, text = invoke(argv)
            return code, text, capsys.readouterr().err

        lo, hi = 1.0, 1e300
        assert outcome(lo, True)[0] == 0 and outcome(hi, True)[0] == 2
        while hi / lo > 1 + 1e-12:
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if outcome(mid, True)[0] == 0 else (lo, mid)
        for scale in np.geomspace(lo / 1.01, hi * 1.01, 9).tolist() + [lo, hi]:
            want, got = outcome(scale, True), outcome(scale, False)
            assert got[0] == want[0]
            if want[0] == 0:
                # Read the entries as printed: the mirror sum of load_matrix
                # overflows near DBL_MAX.
                got_m, want_m = (np.array(text.split("\n6\n")[1].split(), dtype=float)
                                 for text in (got[1], want[1]))
                assert np.isfinite(got_m).all()
                assert np.allclose(got_m, want_m, rtol=1e-13, atol=0.0)
            else:
                assert got[2] == want[2]
                assert "is not finite in float64" in got[2]
        assert outcome(lo, False)[0] == 0 and outcome(hi, False)[0] == 2


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _ = invoke(["psi", "--matrix", "/nonexistent/sigma.txt", "--m", "3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_asymmetric_matrix(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n0.5 0\n")
        code, _ = invoke(["psi", "--matrix", str(path), "--m", "3"])
        assert code == 2
        assert "not symmetric" in capsys.readouterr().err

    def test_lone_gamma0_rejected(self, sigma20, capsys):
        _, path = sigma20
        code, _ = invoke(["psi", "--matrix", path, "--m", "3", "--gamma0", "1"])
        assert code == 2
        assert "together" in capsys.readouterr().err

    def test_inadmissible_dimension(self, tmp_path, capsys):
        sigma = 0.1 * np.eye(3)
        path = write_matrix(tmp_path, sigma)
        code, _ = invoke(
            ["psi", "--matrix", path, "--m", "3", "--gamma0", "1", "--r", "0.5"]
        )
        assert code == 1
        assert "13.92" in capsys.readouterr().err

    def test_regime_violation(self, tmp_path, capsys):
        sigma = np.eye(20)  # Frobenius norm ~4.47 > 20^0.25
        path = write_matrix(tmp_path, sigma)
        code, _ = invoke(
            ["psi", "--matrix", path, "--m", "3", "--gamma0", "1", "--r", "0.5"]
        )
        assert code == 1
        assert "exceeds the regime cap" in capsys.readouterr().err

    def test_regime_boundary(self, tmp_path, capsys):
        # diag(3, 0, ..., 0) at d = 40: ||Sigma||_F = 3 exactly.  gamma0 = 3
        # puts the cap on the norm, which the regime allows; one ulp below,
        # the message names that gamma0 to every digit.
        sigma = np.zeros((40, 40))
        sigma[0, 0] = 3.0
        argv = ["psi", "--matrix", write_matrix(tmp_path, sigma), "--m", "3", "--r", "0"]
        code, text = invoke([*argv, "--gamma0", "3"])
        assert code == 0
        assert float(record_value(text, "bound")) > 0.0
        code, _ = invoke([*argv, "--gamma0", "2.9999999999999996"])
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "exceeds the regime cap 2.9999999999999996 = 2.9999999999999996 * d^(0/2)\n"
        )

    @pytest.mark.parametrize("argv, quantity", [
        ("choose-m --gamma0 1 --r 0.5 --d 100 --eps inf", "eps"),
        ("bounds --gamma0 inf --r 0.5 --d 100 --m 3", "regime scale"),
    ], ids=["eps", "gamma0"])
    def test_infinite_positive_input(self, argv, quantity, capsys):
        code, _ = invoke(argv.split())
        assert code == 2
        assert f"{quantity} must be finite and positive, got inf" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        code, _ = invoke(["frobnicate"])
        assert code == 2

    def test_no_arguments(self):
        code, _ = invoke([])
        assert code == 2

    def test_bad_order(self, sigma20, capsys):
        _, path = sigma20
        code, _ = invoke(["psi", "--matrix", path, "--m", "0"])
        assert code == 2
        assert "m must be" in capsys.readouterr().err


# Each order flag: the subcommand line that sets it to {v}, every other flag valid.
ORDER_FLAG_ARGV = {
    ("psi", "m"): "psi --matrix {path} --m {v}",
    ("grad", "m"): "grad --matrix {path} --m {v}",
    ("cov", "l"): "cov --matrix {path} --l {v} --m 4",
    ("cov", "m"): "cov --matrix {path} --l 3 --m {v}",
    ("zonal", "k"): "zonal --matrix {path} --k {v}",
    ("verify", "l"): "verify --matrix {path} --samples 1000 --seed 1 --l {v}",
    ("verify", "m"): "verify --matrix {path} --samples 1000 --seed 1 --m {v}",
    ("bounds", "m"): "bounds --gamma0 1 --r 0.5 --d 100 --m {v}",
}


class TestHelpRanges:
    """Each order flag's --help states low..MAX_ORDER, the range its check names."""

    @pytest.mark.parametrize("command, flag", ORDER_FLAG_ARGV)
    def test_help_states_checked_range(self, sigma20, capsys, command, flag):
        _, path = sigma20
        argv = ORDER_FLAG_ARGV[command, flag].format
        assert invoke(argv(path=path, v=MAX_ORDER + 1).split()) == (2, "")
        low, high = re.fullmatch(rf"error: {flag} must be in (-?\d+)\.\.(\d+), got \d+\n",
                                 capsys.readouterr().err).groups()
        assert int(high) == MAX_ORDER
        below = int(low) - 1
        assert invoke(argv(path=path, v=below).split()) == (2, "")
        assert capsys.readouterr().err == f"error: {flag} must be in {low}..{high}, got {below}\n"
        assert invoke([command, "--help"]) == (0, "")
        entry = re.search(rf"^  --{flag} {flag.upper()}\s(.*?)(?=^  -|\Z)",
                          capsys.readouterr().out, re.M | re.S).group(1)
        assert re.findall(r"\d+\.\.\d+", entry) == [f"{low}..{MAX_ORDER}"]


# One row per fault or pair of faults: (faults, matrix, order, regime flags,
# exit code).  The exit codes are those of the series-first CLI, except the
# lone overflow row, which printed nan and exited 0 there.
MODERATE = ["--gamma0", "1", "--r", "0.5"]  # cap 20^0.25 ~ 2.11; needs d >= 13.92
LOOSE = ["--gamma0", "1e21", "--r", "0"]  # fits OVERFLOW, but needs d > 1e42
OVERFLOW = np.diag([1e20, -1e20, 0.0])
FAULT_MATRICES = {
    "fit": 0.04 * np.eye(200),  # above the inverse-expansion threshold ~125
    "wide": np.eye(20),  # ||Sigma||_F ~ 4.47
    "small_d": 0.1 * np.eye(3),
    "wide_small_d": np.eye(3),  # ||Sigma||_F ~ 1.73 > 3^0.25
    "overflow": OVERFLOW,
}
EXIT_TABLE = [
    ((), "fit", 3, MODERATE, 0),
    (("order",), "fit", 41, MODERATE, 2),
    (("regime",), "wide", 3, MODERATE, 1),
    (("inadmissible",), "small_d", 3, MODERATE, 1),
    (("overflow",), "overflow", 40, [], 2),
    (("order", "regime"), "wide", 41, MODERATE, 2),
    (("order", "inadmissible"), "small_d", 41, MODERATE, 2),
    (("order", "overflow"), "overflow", 41, [], 2),
    (("regime", "inadmissible"), "wide_small_d", 3, MODERATE, 1),
    (("regime", "overflow"), "overflow", 40, MODERATE, 1),
    (("inadmissible", "overflow"), "overflow", 40, LOOSE, 1),
]
REJECTED = [row for row in EXIT_TABLE if row[0] not in ((), ("overflow",))]


def fault_argv(tmp_path, command, matrix, order, regime):
    orders = ["--m", str(order)] if command != "cov" else ["--l", "3", "--m", str(order)]
    path = write_matrix(tmp_path, FAULT_MATRICES[matrix])
    return [command, "--matrix", path, *orders, *regime]


def row_id(row):
    return "+".join(row[0]) or "none"


class TestExitCodes:
    @pytest.mark.parametrize("row", EXIT_TABLE, ids=row_id)
    @pytest.mark.parametrize("command", ["psi", "grad", "cov"])
    def test_fault_table(self, tmp_path, capsys, command, row):
        _, matrix, order, regime, expected = row
        code, text = invoke(fault_argv(tmp_path, command, matrix, order, regime))
        assert code == expected
        if code:
            assert text == ""
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("row", REJECTED, ids=row_id)
    @pytest.mark.parametrize("command", ["psi", "grad", "cov"])
    def test_rejected_before_power_sums(self, tmp_path, capsys, monkeypatch, command, row):
        faults, matrix, order, regime, expected = row

        def no_spectral_work(*args, **kwargs):
            raise AssertionError("power_sums ran on a rejected input")

        monkeypatch.setattr(symmat, "power_sums", no_spectral_work)
        code, text = invoke(fault_argv(tmp_path, command, matrix, order, regime))
        assert (code, text) == (expected, "")
        if "regime" in faults and "order" not in faults:
            assert "exceeds the regime cap" in capsys.readouterr().err


class TestSeriesOverflow:
    @pytest.mark.parametrize("orders", [
        ["psi", "--m", "40"],
        ["grad", "--m", "40"],
        ["cov", "--l", "3", "--m", "40"],
        ["zonal", "--k", "40"],
    ], ids=lambda argv: argv[0])
    def test_one_error_line_and_no_output(self, tmp_path, orders):
        path = write_matrix(tmp_path, OVERFLOW)
        proc = subprocess.run(
            [sys.executable, "-m", "binghamx", *orders, "--matrix", path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {orders[0]} at ")
        assert "= 40 is not finite" in lines[0]
        assert "||Sigma||_F = 1.4142135623730951e+20" in lines[0]


    def test_error_names_finite_norm_of_huge_entries(self, tmp_path, capsys):
        # 1e160 squared overflows, yet ||Sigma||_F = 1e160 is finite.
        path = write_matrix(tmp_path, np.diag([1e160, 0.0]))
        code, text = invoke(["psi", "--matrix", path, "--m", "3"])
        assert (code, text) == (2, "")
        assert f"(||Sigma||_F = {1e160:.17g})" in capsys.readouterr().err

    def test_entries_near_dbl_max_load_finite(self, tmp_path, capsys):
        # 1e308 + 1e308 overflows, yet every entry of the file is finite.
        path = tmp_path / "huge.txt"
        path.write_text("2\n1e308 0\n0 -1e308\n")
        code, text = invoke(["psi", "--matrix", str(path), "--m", "3"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: psi at m = 3 is not finite in float64 "
            "(||Sigma||_F = 1.4142135623730951e+308)\n"
        )
        code, text = invoke(["grad", "--matrix", str(path), "--m", "2"])
        assert code == 0
        assert np.array_equal(trailing_matrix(text, 2), np.eye(2) / 2)


# Inputs that once escaped as a traceback, or as a false success: argv, with
# {zero}, {npy}, {latin1}, {bom_latin1}, {tiny}, {d3} and {huge} standing for
# matrix files, then the exit code and a fragment of the one stderr line.
HUGE_D = "1" + "0" * 400
OVERFLOWING_THRESHOLD = ["--gamma0", "1e150", "--r", "0.99"]
# Finite entries of {huge}, whose eigenvalue 3.4e308 overflows float64.
EIGEN_OVERFLOW = ("eigenvalues overflow float64: max |sigma_ij| = 1.7e+308 at d = 2; "
                  "they stay finite while d * max |sigma_ij| <= 1.7976931348623157e+308")
ESCAPE_TABLE = [
    pytest.param(["choose-m", *OVERFLOWING_THRESHOLD, "--d", "5", "--eps", "0.1"], 1,
                 "need d >= inf", id="choose-m-threshold"),
    pytest.param(["bounds", *OVERFLOWING_THRESHOLD, "--d", "5", "--m", "3"], 1,
                 "need d >= inf", id="bounds-threshold"),
    pytest.param(["psi", "--matrix", "{zero}", "--m", "3", *OVERFLOWING_THRESHOLD], 1,
                 "need d >= inf", id="psi-threshold"),
    pytest.param(["grad", "--matrix", "{zero}", "--m", "3", *OVERFLOWING_THRESHOLD], 1,
                 "need d >= inf", id="grad-threshold"),
    pytest.param(["cov", "--matrix", "{zero}", "--l", "3", "--m", "3",
                  *OVERFLOWING_THRESHOLD], 1, "need d >= inf", id="cov-threshold"),
    pytest.param(["psi", "--matrix", "{npy}", "--m", "3"], 2,
                 "sigma.npy: not UTF-8 text: byte 0x93 at offset 0", id="psi-npy"),
    pytest.param(["verify", "--matrix", "{latin1}", "--samples", "1000", "--seed", "0"], 2,
                 "latin1.txt: not UTF-8 text: byte 0xe9 at offset 8", id="verify-latin1"),
    pytest.param(["psi", "--matrix", "{bom_latin1}", "--m", "3"], 2,
                 "bom_latin1.txt: not UTF-8 text: byte 0x93 at offset 5", id="psi-bom-latin1"),
    pytest.param(["psi", "--matrix", "{tiny}", "--m", "3", "--gamma0", "1e-200", "--r", "0"], 1,
                 f"||Sigma||_F = {1e-170:.17g} exceeds the regime cap", id="psi-norm-underflow"),
    # The first allocation of a block of 2e15 samples, its exponent array of 8 bytes
    # per row, needs 1.6e16 bytes, far past any machine's memory.
    pytest.param(["verify", "--matrix", "{d3}", "--samples", str(10**17), "--seed", "0"], 2,
                 "Unable to allocate", id="verify-memory"),
    pytest.param(["bounds", "--gamma0", "1", "--r", "0.5", "--d", HUGE_D, "--m", "3"], 2,
                 "must fit in float64, got a 401-digit integer", id="bounds-huge-d"),
    pytest.param(["choose-m", "--gamma0", "1", "--r", "0.5", "--d", HUGE_D, "--eps", "0.1"],
                 2, "must fit in float64, got a 401-digit integer", id="choose-m-huge-d"),
    *(pytest.param([*argv, "--matrix", "{huge}"], 2, EIGEN_OVERFLOW, id=f"{argv[0]}-eigen-overflow")
      for argv in (["psi", "--m", "3"], ["grad", "--m", "3"], ["cov", "--l", "2", "--m", "3"],
                   ["zonal", "--k", "2"])),
]


class TestNoTraceback:
    @pytest.mark.parametrize("argv, code, fragment", ESCAPE_TABLE)
    def test_one_error_line(self, tmp_path, argv, code, fragment):
        (tmp_path / "zero.txt").write_text(format_matrix(np.zeros((2, 2))))
        np.save(tmp_path / "sigma.npy", 0.04 * np.eye(3))
        (tmp_path / "latin1.txt").write_bytes(b"2\n1 0\n0 \xe91\n")
        # Offsets count from the start of the file, byte-order mark included.
        (tmp_path / "bom_latin1.txt").write_bytes(codecs.BOM_UTF8 + b"2\n\x93")
        (tmp_path / "tiny.txt").write_text(format_matrix(np.diag([1e-170, 0.0])))
        (tmp_path / "d3.txt").write_text(format_matrix(0.04 * np.eye(3)))
        (tmp_path / "huge.txt").write_text("2\n1.7e308 1.7e308\n1.7e308 1.7e308\n")
        files = {"zero": "zero.txt", "npy": "sigma.npy", "latin1": "latin1.txt",
                 "bom_latin1": "bom_latin1.txt", "tiny": "tiny.txt", "d3": "d3.txt",
                 "huge": "huge.txt"}
        argv = [arg.format(**{k: str(tmp_path / v) for k, v in files.items()}) for arg in argv]
        # Development mode with warnings as errors: an exception left unhandled
        # in a pool worker, or a leaked resource, fails the row.
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "binghamx",
                               *argv], capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and fragment in lines[0]


class TestByteOrderMark:
    @pytest.mark.parametrize("argv", [["psi", "--m", "3"], ["grad", "--m", "3", "--format", "md"],
                                      ["cov", "--l", "3", "--m", "3", "--format", "csv"]])
    def test_same_output_as_without(self, tmp_path, argv):
        text = format_matrix(np.array([[0.1, -0.0], [-0.0, -0.1]])).encode()
        (tmp_path / "plain.txt").write_bytes(text)
        (tmp_path / "bom.txt").write_bytes(codecs.BOM_UTF8 + text)
        plain = invoke([*argv, "--matrix", str(tmp_path / "plain.txt")])
        assert plain[0] == 0
        assert invoke([*argv, "--matrix", str(tmp_path / "bom.txt")]) == plain

    def test_only_a_leading_mark_is_dropped(self, tmp_path, capsys):
        path = tmp_path / "twice.txt"
        path.write_bytes(codecs.BOM_UTF8 * 2 + b"2\n1 0\n0 1\n")
        assert invoke(["psi", "--matrix", str(path), "--m", "3"]) == (2, "")
        assert "got '\\ufeff2'" in capsys.readouterr().err


class TestMarkdownLargeValues:
    def test_values_above_1e23_print_rounded(self, tmp_path):
        # psi = 1.4e27 here: 28-digit decimal rounding raised on it.
        path = write_matrix(tmp_path, np.diag([80.0, 0.0]))
        code, text = invoke(["psi", "--matrix", path, "--m", "40"])
        assert code == 0
        psi = float(record_value(text, "psi"))
        assert psi > 1e27
        code, text = invoke(["psi", "--matrix", path, "--m", "40", "--format", "md"])
        assert code == 0
        line = text.splitlines()[2]
        assert line.startswith("| psi | ") and line.endswith(".00000 |")
        assert float(line[8:-2]) == psi
        code, text = invoke(["grad", "--matrix", path, "--m", "40", "--format", "md"])
        assert code == 0
        assert float(text.splitlines()[-2].split(" | ")[0][2:]) > 1e23


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        sigma = 0.04 * np.eye(4)
        path = write_matrix(tmp_path, sigma)
        proc = subprocess.run(
            [sys.executable, "-m", "binghamx", "psi", "--matrix", path, "--m", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("psi = ")

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "binghamx", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "choose-m" in proc.stdout
