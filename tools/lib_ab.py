"""In-process A/B timing of the ``lib-series`` library ops on two source trees.

    python3 tools/lib_ab.py PARENT_SRC CHANGE_SRC [--seconds S] [--seed N] [--json PATH]
        [--labels PARENT CHANGE]

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

With ``--json PATH`` the run is also written into PATH as the entry of
its workload, ``lib-series``; other entries in PATH stay as they are.
An entry holds the machine, the CPU count, the BLAS threads and the
Python and numpy versions, and with ``--labels`` the names of the two
trees (a commit each, say); the seed, seconds and rounds; and per op and
in total each tree's median, q1 and q3 in ms (each the sum over the
matrices of that quantile, so the medians are the table's), the ratio of
the medians and the rounds the change won.  ``tools/cli_ab.py`` writes
the same schema.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
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


def environment(labels=None) -> dict:
    """The machine, CPU count, BLAS threads and versions that a result holds,
    and the trees' ``labels`` (parent, change) when given."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = {"machine": platform.machine(), "cpus": cpus, "blas_threads": BLAS_THREADS,
           "python": platform.python_version(), "numpy": np.__version__}
    if labels:
        env["labels"] = dict(zip(("parent", "change"), labels))
    return env


def _row(parent: np.ndarray, change: np.ndarray, faster: int) -> dict:
    return {"parent_ms": dict(zip(("q1", "median", "q3"), parent.tolist())),
            "change_ms": dict(zip(("q1", "median", "q3"), change.tolist())),
            "ratio": float(change[1] / parent[1]), "faster": faster}


def summarize(names, times) -> tuple[dict, dict]:
    """Rows per op and the total row of an A/B run.

    ``times[t][i][k][r]`` is tree t's time in seconds for op k on input i
    in round r.  A row holds each tree's q1, median and q3 over the rounds
    in ms, each summed over the inputs, the ratio of the medians and the
    rounds whose time summed over the inputs was lower for the change
    (tree 1); the total row adds up the ops.
    """
    times = np.asarray(times)
    q = 1e3 * np.percentile(times, (25, 50, 75), axis=-1).sum(axis=2)  # q[:, t, k]
    per_round = times.sum(axis=1)  # per_round[t, k, r]
    rows = {name: _row(q[:, 0, k], q[:, 1, k], int(np.sum(per_round[1, k] < per_round[0, k])))
            for k, name in enumerate(names)}
    won = int(np.sum(per_round[1].sum(axis=0) < per_round[0].sum(axis=0)))
    return rows, _row(q[:, 0].sum(axis=1), q[:, 1].sum(axis=1), won)


def table_line(name: str, row: dict, width: int) -> str:
    return (f"{name:<{width}}{row['parent_ms']['median']:>12.3f}"
            f"{row['change_ms']['median']:>12.3f}{row['ratio']:>8.3f}{row['faster']:>8}")


def write_entry(path: str, workload: str, entry: dict) -> None:
    """Set ``workload``'s entry of the results file ``path``, keeping the others."""
    target = Path(path)
    results = json.loads(target.read_text()) if target.exists() else {}
    results[workload] = entry
    target.write_text(json.dumps(results, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", metavar="PATH")
    parser.add_argument("--labels", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="names of the two trees, recorded in the --json env")
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
    rows, total = summarize(child.LIB_OPS, times)
    print(f"{'op':<12}{'parent_ms':>12}{'change_ms':>12}{'ratio':>8}{'faster':>8}")
    for op, row in rows.items():
        print(table_line(op, row, 12))
    print(table_line("total", total, 12))
    print(f"ratio change/parent = {total['ratio']:.4f}")
    if args.json:
        write_entry(args.json, "lib-series", {
            "tool": "tools/lib_ab.py", "env": environment(args.labels), "seed": args.seed,
            "seconds": args.seconds, "rounds": rounds, "elapsed_s": elapsed,
            "ops": rows, "total": total})
    return 0


if __name__ == "__main__":
    sys.exit(main())
