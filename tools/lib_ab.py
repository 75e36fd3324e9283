"""In-process A/B timing of the ``lib-series`` library ops on two source trees.

    python3 tools/lib_ab.py PARENT_SRC CHANGE_SRC [--seconds S] [--seed N]

PARENT_SRC and CHANGE_SRC are ``src`` directories that each hold a
``binghamx`` package, for example this checkout's ``src`` and the ``src``
of a ``git archive`` of its parent commit.  Both packages are imported
into this one process under alias names, through symlinks in a
temporary directory, with bytecode writing off, so nothing is written in
either tree.

The matrices are the 32 of ``perfbench/run.py``'s ``lib-series``
workload for ``--seed``, with the same kinds, sizes and generator.  Each
round runs, for every matrix and for both trees in turn, the six ops of
``perfbench/child.py`` (``LIB_OPS`` through ``_lib_op``), one at a time,
timing each; the tree that goes first alternates from round to round, so
drift of the machine reaches both alike.  Rounds repeat until S seconds
have passed (at least one).  BLAS runs on one thread, as in the
benchmark.  The output gives, per op, the sum over the matrices of the
median time for each tree and their ratio, then the ratio of the totals.
The same tree given twice reads about 1.  Column ``faster`` counts, per
op and in total, the rounds whose time summed over the matrices was lower
for the change tree than for the parent; ties count for neither, so a
gain in nine of ten rounds reads as at least 0.9 times the rounds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (after the BLAS thread count is pinned)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ALIASES = ("binghamx_parent", "binghamx_change")


def lib_series_matrices(run, seed: int) -> list:
    """The ``lib-series`` batch of ``perfbench/run.py`` for ``seed``."""
    rng = run.Run("lib-series", seed, 0.0, False).rng
    sigmas = []
    for i in range(run.LIB_MATRICES):
        d, kind = run.LIB_DIMS[i % 2], ("trace-zero", "dense", "rank-one")[i % 3]
        if kind == "trace-zero":
            s = run.dense_trace_zero(rng, d, 1.0)
        elif kind == "dense":
            a = rng.standard_normal((d, d)) + 0.3
            s = (a + a.T) / 2.0
            s /= np.sqrt(np.sum(s * s))
        else:
            u = rng.standard_normal(d)
            u /= np.sqrt(u @ u)
            s = rng.choice([-1.0, 1.0]) * np.outer(u, u)
        sigmas.append(s)
    return sigmas


def import_trees(sources: list[str], where: Path) -> list:
    """Each ``binghamx`` under ``sources`` imported as its alias in ``ALIASES``."""
    for alias, src in zip(ALIASES, sources):
        package = Path(src).resolve() / "binghamx"
        if not (package / "__init__.py").is_file():
            raise SystemExit(f"lib_ab: no binghamx package under {src}")
        (where / alias).symlink_to(package, target_is_directory=True)
    sys.path.insert(0, str(where))
    return [importlib.import_module(alias) for alias in ALIASES]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    import child
    import run

    sigmas = lib_series_matrices(run, args.seed)
    with tempfile.TemporaryDirectory() as where:
        trees = import_trees([args.parent_src, args.change_src], Path(where))
        times = [[[[] for _ in child.LIB_OPS] for _ in sigmas] for _ in trees]
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            order = (0, 1) if rounds % 2 == 0 else (1, 0)
            for i, sigma in enumerate(sigmas):
                for t in order:
                    bx = trees[t]
                    state = {"regime": bx.GrowthRegime(scale=1.0, exponent=0.0)}
                    for k, op in enumerate(child.LIB_OPS):
                        t0 = time.perf_counter()
                        child._lib_op(bx, op, sigma, state)
                        times[t][i][k].append(time.perf_counter() - t0)
            rounds += 1
        elapsed = time.perf_counter() - start

    print(f"lib_ab: seed {args.seed}, {len(sigmas)} matrices, {rounds} rounds "
          f"in {elapsed:.1f} s, one BLAS thread")
    # rounds_s[t][k][r]: tree t's time for op k in round r, summed over the matrices.
    rounds_s = np.sum(times, axis=1)
    print(f"{'op':<12}{'parent_ms':>12}{'change_ms':>12}{'ratio':>8}{'faster':>8}")
    totals = [0.0, 0.0]
    for k, op in enumerate(child.LIB_OPS):
        sums = [1e3 * sum(statistics.median(per_op[k]) for per_op in tree) for tree in times]
        totals = [a + b for a, b in zip(totals, sums)]
        faster = int(np.sum(rounds_s[1, k] < rounds_s[0, k]))
        print(f"{op:<12}{sums[0]:>12.3f}{sums[1]:>12.3f}{sums[1] / sums[0]:>8.3f}{faster:>8}")
    faster = int(np.sum(rounds_s[1].sum(axis=0) < rounds_s[0].sum(axis=0)))
    print(f"{'total':<12}{totals[0]:>12.3f}{totals[1]:>12.3f}"
          f"{totals[1] / totals[0]:>8.3f}{faster:>8}")
    print(f"ratio change/parent = {totals[1] / totals[0]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
