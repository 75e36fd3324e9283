"""The calibration tool of the verify rule: its binomial rule and a short run."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from binghamx import oracle

TOOL = Path(__file__).resolve().parents[1] / "tools" / "verify_calibration.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("verify_calibration", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_binomial_tail(tool):
    assert tool.binomial_tail(0, 50, 1e-3) == 1.0
    assert tool.binomial_tail(1, 50, 1e-3) == pytest.approx(1.0 - 0.999**50, rel=1e-12)
    exact = sum(math.comb(1000, j) * 1e-3**j * 0.999 ** (1000 - j) for j in range(5, 1001))
    assert tool.binomial_tail(5, 1000, 1e-3) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("seeds, fails_at", [(50, 2), (1000, 5)])
def test_stated_rule(tool, seeds, fails_at):
    # The docstring's counts: the smallest count the rule rejects.
    tails = [tool.binomial_tail(k, seeds, oracle.FAMILY_ALPHA) for k in (fails_at - 1, fails_at)]
    assert tails[0] >= tool.LEVEL > tails[1]


def test_input_is_trace_zero_at_the_stated_norm(tool):
    sigma = tool.trace_zero(2026, tool.D, tool.NORM)
    assert np.array_equal(sigma, sigma.T)
    assert abs(np.trace(sigma)) < 1e-12
    assert math.sqrt(np.sum(sigma * sigma)) == pytest.approx(0.9 * 200**0.25, rel=1e-14)


def test_short_run_passes(tool, capsys):
    assert tool.main(["--seeds", "2"], samples=20_000) == 0
    out = capsys.readouterr().out
    assert "failed 0 of 2 runs (0 inconclusive" in out and out.rstrip().endswith("pass")


def test_counts_what_verify_fails(tool, monkeypatch, capsys):
    # The tool counts the runs whose checks, verify's own, do not all pass.
    real = tool._verify_checks

    def fail_seed_2(psi, cov, psi_mc, cov_mc):
        rows = real(psi, cov, psi_mc, cov_mc)
        return rows if psi_mc.seed != 2 else [(*row[:-1], "FAIL") for row in rows]

    monkeypatch.setattr(tool, "_verify_checks", fail_seed_2)
    assert tool.main(["--seeds", "3"], samples=20_000) == 1
    out = capsys.readouterr().out
    assert "failed 1 of 3 runs (0 inconclusive" in out
    assert "P(Binomial(3, 0.001) >= 1) = 0.003" in out and out.rstrip().endswith("FAIL")
