"""Fresh-process A/B timing of a CLI workload on two source trees.

    python3 tools/cli_ab.py PARENT_SRC CHANGE_SRC --workload cli-dense|cli-verify
        [--seconds S] [--seed N] [--json PATH] [--labels PARENT CHANGE]

PARENT_SRC and CHANGE_SRC are ``src`` directories that each hold a
``binghamx`` package, as for ``tools/lib_ab.py``.  The inputs, the ops
and the output verdict are those of ``perfbench/run.py`` for the
workload and ``--seed`` (``cli_dense_ops`` / ``cli_verify_ops``), with the
input files and outputs in a temporary directory.  Each tree's
``binghamx`` is copied into that directory and compiled there once
(``compileall``), and the tree's children import the copy: no child
compiles the package again, even where writing bytecode is off
(``PYTHONDONTWRITEBYTECODE``), and neither tree is written.

Each round runs every op once on each tree as a fresh ``python -m
binghamx`` process, one at a time, timed as the benchmark times it
(``run.spawn``).  Op k of round r runs first on the parent when r + k is
even and on the change when it is odd: ABBA order, so each tree holds
each position equally often, per op over every two rounds and between
neighbouring ops within a round.  Rounds repeat in pairs until S seconds
have passed (at least two rounds).  BLAS runs on one thread, as in the
benchmark.

Each child reports its own peak resident set, ``VmHWM`` of
``/proc/self/status`` (Linux), and the largest peak of the processes it
forked and reaped, ``ru_maxrss`` of ``RUSAGE_CHILDREN`` (0 when it forked
none), on its last stderr lines at exit, through a ``-c`` wrapper that
runs the package as ``-m`` does.  A forked child's pages are not in its
parent's ``VmHWM``, so the two are reported side by side.  The first
stdout of each op on each tree goes through the workload's verdict, and
every later one must have the same SHA-256.

Per op the output gives each tree's median wall time, the ratio, the
rounds the change was faster in (ties count for neither), each tree's
largest ``VmHWM`` and largest forked-child peak, and whether the two
trees' stdout digests agree; then the total of the medians.  With
``--json PATH`` the run is written into PATH as the workload's entry, in
the schema of ``tools/lib_ab.py`` plus per-op ``vmhwm_kb``,
``child_maxrss_kb`` and ``stdout_sha256``, and with the mode of the
children's bytecode and the ``--labels`` of the trees in its env.  Exit
status 1 when an output fails its verdict or a child fails.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import lib_ab

TREES = ("parent", "change")

#: How the children get binghamx's bytecode, recorded in the ``--json`` env.
BYTECODE = "compiled copy of each tree"

# python -m binghamx, reporting on stderr at exit the process's VmHWM and
# the largest peak of its reaped children (ru_maxrss is in kB on Linux).
WRAPPER = """\
import atexit, resource, runpy, sys
def _hwm():
    with open("/proc/self/status", encoding="ascii") as fh:
        sys.stderr.write(next(line for line in fh if line.startswith("VmHWM:")))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sys.stderr.write(f"ChildHWM: {children} kB\\n")
atexit.register(_hwm)
runpy.run_module("binghamx", run_name="__main__", alter_sys=True)
"""


def schedule(r: int, n_ops: int) -> list[tuple[int, int]]:
    """(op, tree) pairs of round ``r`` in run order: ABBA over ops and rounds."""
    return [(k, t) for k in range(n_ops)
            for t in ((0, 1) if (r + k) % 2 == 0 else (1, 0))]


def peak_kb(stderr: str, key: str = "VmHWM") -> int | None:
    """The ``key:`` line (VmHWM or ChildHWM) that the wrapper wrote last on stderr, in kB."""
    lines = [line for line in stderr.splitlines() if line.startswith(f"{key}:")]
    return int(lines[-1].split()[1]) if lines else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", required=True, choices=("cli-dense", "cli-verify"))
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", metavar="PATH")
    parser.add_argument("--labels", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="names of the two trees, recorded in the --json env")
    args = parser.parse_args(argv)

    srcs = [Path(src).resolve() for src in (args.parent_src, args.change_src)]
    for src in srcs:
        if not (src / "binghamx" / "__init__.py").is_file():
            raise SystemExit(f"cli_ab: no binghamx package under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(lib_ab.PERFBENCH))
    import run

    # The verdict's exact references import binghamx, as in run.py: this checkout's.
    sys.path.insert(0, str(run.SRC))

    with tempfile.TemporaryDirectory() as where:
        run.WORK = Path(where)
        bench = run.Run(args.workload, args.seed, args.seconds, False)
        ops, verdict = run.WORKLOADS[args.workload](bench)
        copies = [run.WORK / f"src-{tree}" for tree in TREES]
        for src, copy in zip(srcs, copies):
            shutil.copytree(src / "binghamx", copy / "binghamx",
                            ignore=shutil.ignore_patterns("__pycache__"))
            if not compileall.compile_dir(copy, quiet=1):
                raise SystemExit(f"cli_ab: binghamx from {src} does not compile")
            os.environ["PYTHONPATH"] = str(copy)
            code, _, found = run.spawn([sys.executable, "-c", "import binghamx.cli, sys; "
                                        "sys.stderr.write(binghamx.__file__)"])
            if code != 0 or not Path(found).resolve().is_relative_to(copy.resolve()):
                raise SystemExit(f"cli_ab: binghamx does not import from {copy}: {found}")

        walls = [[[] for _ in ops] for _ in srcs]
        hwm = [[0] * len(ops) for _ in srcs]
        child_hwm = [[0] * len(ops) for _ in srcs]
        digests: list[list[str | None]] = [[None] * len(ops) for _ in srcs]
        out = run.WORK / "stdout.txt"
        start = time.perf_counter()
        rounds = 0
        while rounds < 2 or rounds % 2 or time.perf_counter() - start < args.seconds:
            for k, t in schedule(rounds, len(ops)):
                op, tag = ops[k], f"{TREES[t]} {ops[k].name}"
                # run.spawn hands the child this process's environment.
                os.environ["PYTHONPATH"] = str(copies[t])
                code, wall, err = run.spawn(
                    [sys.executable, "-c", WRAPPER, *op.argv, "--matrix", str(op.matrix)], out)
                walls[t][k].append(wall)
                data = out.read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                if digests[t][k] is None:
                    digests[t][k] = digest
                    why = verdict(op, data.decode())
                    if why is not None:
                        bench.fail(tag, why)
                elif digest != digests[t][k]:
                    bench.fail(tag, "stdout differs from the first call's")
                if code != 0:
                    bench.fail(tag, f"exit code {code}: {err.strip()[-300:]}")
                for key, peaks in (("VmHWM", hwm), ("ChildHWM", child_hwm)):
                    peak = peak_kb(err, key)
                    if peak is None:
                        bench.fail(tag, f"no {key} line on stderr")
                    else:
                        peaks[t][k] = max(peaks[t][k], peak)
            rounds += 1
        elapsed = time.perf_counter() - start

    names = [op.name for op in ops]
    rows, total = lib_ab.summarize(names, [[tree] for tree in walls])
    for k, row in enumerate(rows.values()):
        row["vmhwm_kb"] = dict(zip(TREES, (hwm[0][k], hwm[1][k])))
        row["child_maxrss_kb"] = dict(zip(TREES, (child_hwm[0][k], child_hwm[1][k])))
        row["stdout_sha256"] = dict(zip(TREES, (digests[0][k], digests[1][k])))

    print(f"cli_ab: {args.workload}, seed {args.seed}, {len(ops)} ops, {rounds} rounds "
          f"in {elapsed:.1f} s, one BLAS thread")
    width = max(len(name) for name in names) + 2
    print(f"{'op':<{width}}{'parent_ms':>12}{'change_ms':>12}{'ratio':>8}{'faster':>8}"
          f"{'parent_kb':>11}{'change_kb':>11}{'p_child_kb':>12}{'c_child_kb':>12}  stdout")
    for name, row in rows.items():
        kb, child, sha = row["vmhwm_kb"], row["child_maxrss_kb"], row["stdout_sha256"]
        print(f"{lib_ab.table_line(name, row, width)}{kb['parent']:>11}{kb['change']:>11}"
              f"{child['parent']:>12}{child['change']:>12}  "
              f"{'same' if sha['parent'] == sha['change'] else 'differs'}")
    print(lib_ab.table_line("total", total, width))
    print(f"ratio change/parent = {total['ratio']:.4f}")
    for why in bench.failures:
        print(f"failed {why}")
    if args.json:
        lib_ab.write_entry(args.json, args.workload, {
            "tool": "tools/cli_ab.py", "env": {**lib_ab.environment(args.labels), "bytecode": BYTECODE},
            "seed": args.seed, "seconds": args.seconds, "rounds": rounds, "elapsed_s": elapsed,
            "ops": rows, "total": total, "failed": bench.failures})
    return 1 if bench.failures else 0


if __name__ == "__main__":
    sys.exit(main())
