"""Shared helpers for the test suite: random matrix generators, a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import binghamx


def random_symmetric(rng: np.random.Generator, d: int, norm: float | None = None) -> np.ndarray:
    """Symmetrized standard-normal matrix, optionally rescaled in Frobenius norm."""
    a = rng.standard_normal((d, d))
    s = (a + a.T) / 2.0
    if norm is not None:
        s *= norm / np.sqrt(np.sum(s * s))
    return s


def random_trace_zero(rng: np.random.Generator, d: int, norm: float) -> np.ndarray:
    """Random symmetric matrix projected to trace zero, Frobenius norm ``norm``."""
    s = random_symmetric(rng, d)
    s -= (np.trace(s) / d) * np.eye(d)
    s *= norm / np.sqrt(np.sum(s * s))
    return s


def dense_horner(g, sigma: np.ndarray) -> np.ndarray:
    """The gradient polynomial g at Sigma by dense Horner, one product per degree.

    ``out @ Sigma + c I`` per step, then the mirror sum: the reference
    for :func:`binghamx.materialize`'s zeros and its overflow behavior.
    """
    eye = np.eye(g.d)
    out = g.coeffs[-1] * eye
    for c in g.coeffs[-2::-1]:
        out = out @ sigma + c * eye
    return (out + out.T) / 2.0


def count_series_passes(monkeypatch) -> list[int]:
    """Record the order of every recurrence pass that ``binghamx.zonal._terms`` runs.

    Every library call reads its series terms through ``_terms``, so
    these are all the passes the series and zonal calls make.
    """
    from binghamx import zonal

    calls = []

    def counted(p, m, a, real=zonal._series_pass):
        calls.append(m)
        return real(p, m, a)

    monkeypatch.setattr(zonal, "_series_pass", counted)
    return calls


def record_table_orders(monkeypatch) -> list[int]:
    """Record the order of every table that ``binghamx.zonal._series_tables`` is asked for.

    The recurrence pass and every gradient reduction read their tables
    through it.  Each lookup still goes through the cached function, so
    its ``cache_info`` counts them.
    """
    from binghamx import zonal

    orders = []

    def recorded(m, a, real=zonal._series_tables):
        orders.append(m)
        return real(m, a)

    monkeypatch.setattr(zonal, "_series_tables", recorded)
    return orders


def haar_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    """Orthogonal matrix from the QR factorization of a Gaussian matrix.

    The sign fix makes the distribution Haar (uniform over the group).
    """
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def fresh_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter, in development mode with warnings as errors.

    The child imports binghamx from the same source tree as this process;
    its stdout and stderr are captured as text.
    """
    src = str(Path(binghamx.__file__).resolve().parents[1])
    paths = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", script, *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
    )
