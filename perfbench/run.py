"""Layered benchmark of binghamx: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported
from the checkout's ``src`` directory and the benchmark exits with code 2
when that is missing.  Inputs are generated from ``--seed``.  Each
workload is a fixed list of operations run by a single closed-loop
client, one operation and one child process at a time; the list is
repeated until ``--seconds`` have passed (at least once), and each
operation's time is the median over its repetitions.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
without tracing.  ``--trace 1`` runs every operation once untraced and
once traced, in turn, and reports the per-layer metrics: self time per
layer (span duration minus its child spans) and work counts, summed over
the operation list.  The last stdout line is the JSON result; earlier
lines give the environment and every metric by name with its unit.
See NOTES.md for the workloads, metrics and first results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# One BLAS thread: with a second one, dense CLI timings followed the load
# on the other CPU, and run-to-run spread doubled on a shared 2-CPU machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

import numpy as np  # noqa: E402  (after the BLAS thread count is pinned)

import check  # noqa: E402

# Regime of the CLI workloads: --gamma0 1 --r 0.5, inputs at 0.9 of its cap.
GAMMA0, R, CAP_SHARE = 1.0, 0.5, 0.9
CLI_D, VERIFY_D, VERIFY_SAMPLES, VERIFY_CALLS = 1000, 200, 200_000, 3
LIB_MATRICES, LIB_DIMS = 32, (20, 100)


class Op:
    """One operation of a workload and everything measured about it."""

    def __init__(self, name: str, argv: list[str] | None = None, matrix: Path | None = None):
        self.name, self.argv, self.matrix = name, argv, matrix
        self.wall: list[float] = []
        self.traced_wall: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.counts: dict[str, int] = {}
        self.digest: str | None = None


class Run:
    """Settings, generated-input stream and failure tally of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.seconds, self.trace = seconds, trace
        self.rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.setup: list[float] = []

    def fail(self, op: str, why: str, known: bool = False) -> None:
        """Count a failed operation; ``known`` marks the recorded verify defect."""
        self.failures.append(f"{op}: {why}")
        if not known:
            self.wrong.append(f"{op}: {why}")


def spawn(cmd: list[str], stdout: Path | None = None) -> tuple[int, float, str]:
    """Run one child to completion; return exit code, wall seconds, stderr."""
    with open(stdout or os.devnull, "wb") as out:
        start = time.monotonic()
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        wall = time.monotonic() - start
    return proc.returncode, wall, proc.stderr.decode(errors="replace")


def sample_setup(run: Run, cmd: list[str]) -> None:
    """Time one fresh set-up process; set-up samples are spread over the run."""
    code, wall, err = spawn(cmd)
    if code != 0:
        raise RuntimeError(f"set-up process {cmd[1:]} failed: {err}")
    run.setup.append(wall)


def dense_trace_zero(rng: np.random.Generator, d: int, norm: float) -> np.ndarray:
    a = rng.standard_normal((d, d))
    s = (a + a.T) / 2.0
    s -= np.trace(s) / d * np.eye(d)
    return s * (norm / np.sqrt(np.sum(s * s)))


def write_matrix(path: Path, a: np.ndarray) -> None:
    """The CLI text format; repr() round-trips, so the CLI reads exactly ``a``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{a.shape[0]}\n")
        for row in a.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


# --- CLI workloads ---------------------------------------------------------

def cli_dense_ops(run: Run):
    d = CLI_D
    norm = CAP_SHARE * GAMMA0 * d ** (R / 2)
    dense = dense_trace_zero(run.rng, d, norm)
    x = run.rng.uniform(-1.0, 1.0, d)
    diag = np.diag(x * (norm / np.sqrt(np.sum(x * x))))
    files = {"dense": WORK / "dense.txt", "diag": WORK / "diag.txt"}
    write_matrix(files["dense"], dense)
    write_matrix(files["diag"], diag)
    regime = ["--gamma0", f"{GAMMA0:g}", "--r", f"{R:g}"]
    ops = [Op("psi", ["psi", "--m", "12", *regime], files["dense"]),
           Op("grad", ["grad", "--m", "12", *regime], files["dense"]),
           Op("cov", ["cov", "--l", "3", "--m", "12", *regime], files["dense"]),
           Op("grad-diag", ["grad", "--m", "12"], files["diag"])]

    refs = {}
    for kind, sigma in (("dense", dense), ("diag", diag)):
        p = check.power_sums(sigma, 11)
        series = check.Series(p, d, 12)
        if not check.zonal_agrees(series, p, 11):
            run.fail(f"psi[{kind}]", "exact recurrence disagrees with zonal_value_exact")
        refs[kind] = (sigma, p, series)

    def verdict(op: Op, text: str) -> str | None:
        sigma, p, series = refs["diag" if op.name == "grad-diag" else "dense"]
        record, matrix = check.parse_record(text)
        if record.get("d") != str(d) or record.get("m") != "12":
            return "record lacks d or m"
        if "--gamma0" in op.argv:
            bound = record.get("derived_bound" if op.name == "cov" else "bound", "nan")
            if not check.positive(bound):
                return f"bound {bound} is not finite and positive"
        if op.name == "psi":
            return None if check.close(float(record["psi"]), *series.psi(12)) else \
                f"psi {record['psi']} != exact {series.psi(12)[0]!r}"
        scalar = series.inverse(3)[0] if op.name == "cov" else 1.0
        if matrix is None or not check.matrix_ok(matrix, sigma, p, series.grad(12)[0],
                                                 scalar, run.rng):
            return "matrix output fails the reference checks"
        return None

    return ops, verdict


def cli_verify_ops(run: Run):
    d = VERIFY_D
    sigma = dense_trace_zero(run.rng, d, CAP_SHARE * GAMMA0 * d ** (R / 2))
    path = WORK / "verify.txt"
    write_matrix(path, sigma)
    mc_seeds = run.rng.integers(0, 2**31, VERIFY_CALLS)
    ops = [Op(f"verify-{s}", ["verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(s)],
              path) for s in mc_seeds]
    p = check.power_sums(sigma, 11)
    series = check.Series(p, d, 12)
    if not check.zonal_agrees(series, p, 11):
        run.fail("verify", "exact recurrence disagrees with zonal_value_exact")

    def verdict(op: Op, text: str) -> str | None:
        rows = check.parse_verify(text)
        if set(rows) != {"psi", "cov_trace"} | {k for k in rows if k.startswith("cov[")} \
                or len(rows) != 3:
            return "unexpected verify table"
        if not check.close(float(rows["psi"][0]), *series.psi(12)):
            return f"series psi {rows['psi'][0]} != exact {series.psi(12)[0]!r}"
        if rows["psi"][-1] != "pass" or rows["cov_trace"][-1] != "pass":
            return "psi or cov_trace check failed"
        return None

    return ops, verdict


def run_cli_op(run: Run, op: Op, verdict, traced: bool) -> None:
    out = WORK / "stdout.txt"
    spans_path = WORK / "spans.json"
    spans_path.unlink(missing_ok=True)
    argv = [*op.argv, "--matrix", str(op.matrix)]
    if traced:
        cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans_path), *argv]
    else:
        cmd = [sys.executable, "-m", "binghamx", *argv]
    run.attempted += 1
    spawned = time.monotonic()
    code, wall, err = spawn(cmd, out)
    data = out.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    tag = f"{op.name}{' traced' if traced else ''}"
    if op.digest is None:
        why = verdict(op, data.decode())
        op.digest = digest
        if why is not None:
            run.fail(tag, why)
            op.digest = "invalid"
    elif digest != op.digest:
        run.fail(tag, "stdout differs from the first call's")
    if code != 0:
        # verify at d = 200 exits 1 on a correct series: the worst of
        # d(d+1)/2 covariance entries is tested against a per-entry 4-sigma
        # bound.  Counted as a failure, kept apart from wrong outputs.
        known = (op.name.startswith("verify") and code == 1
                 and op.digest not in (None, "invalid"))
        run.fail(tag, f"exit code {code}: {err.strip()[-300:]}", known=known)
    if traced and spans_path.exists():
        op.traced_wall.append(wall)
        spans = json.loads(spans_path.read_text())
        layers = layer_times(spans["self_s"])
        layers["cli.startup_s"] = spans["ready"] - spawned
        layers["cli.other_s"] = wall - layers["cli.startup_s"] - sum(spans["self_s"].values())
        op.layers.append(layers)
        op.counts = {**spans["counts"], "trace.spans": spans["spans"],
                     "cli.bytes_in": op.matrix.stat().st_size, "cli.bytes_out": len(data)}
    elif not traced:
        op.wall.append(wall)


def measure_cli(run: Run, ops: list[Op], verdict) -> None:
    deadline = time.monotonic() + run.seconds
    n = 0
    while n < len(ops) or time.monotonic() < deadline:
        op = ops[n % len(ops)]
        run_cli_op(run, op, verdict, traced=False)
        if run.trace:
            run_cli_op(run, op, verdict, traced=True)
        else:
            sample_setup(run, [sys.executable, "-c", "import binghamx.cli"])
        n += 1


# --- lib-series ----------------------------------------------------------------

def lib_series(run: Run) -> list[Op]:
    """A batch of dense trace-zero, dense and rank-one matrices, ||Sigma||_F = 1."""
    sigmas, kinds = [], []
    for i in range(LIB_MATRICES):
        d, kind = LIB_DIMS[i % 2], ("trace-zero", "dense", "rank-one")[i % 3]
        if kind == "trace-zero":
            s = dense_trace_zero(run.rng, d, 1.0)
        elif kind == "dense":
            a = run.rng.standard_normal((d, d)) + 0.3
            s = (a + a.T) / 2.0
            s /= np.sqrt(np.sum(s * s))
        else:
            u = run.rng.standard_normal(d)
            u /= np.sqrt(u @ u)
            s = run.rng.choice([-1.0, 1.0]) * np.outer(u, u)
        sigmas.append(s)
        kinds.append(kind)
    job = WORK / "job.npz"
    # The derived covariance bound needs a regime: ||Sigma||_F <= 1 = gamma0
    # with r = 0, admissible for the inverse expansion from d = 12 on.
    np.savez(job, count=len(sigmas), gamma0=1.0, **{f"sigma{i}": s for i, s in enumerate(sigmas)})

    setup_cmd = [sys.executable, str(HERE / "child.py"), "setup"]
    if not run.trace:
        sample_setup(run, setup_cmd)
    prefix = WORK / "lib"
    spawned = time.monotonic()
    code, _, err = spawn([sys.executable, str(HERE / "child.py"), "lib", str(job), str(prefix),
                          str(run.seconds), "1" if run.trace else "0"])
    if code != 0:
        raise RuntimeError(f"lib-series child failed: {err}")
    result = json.loads(prefix.with_suffix(".json").read_text())
    outputs = np.load(prefix.with_suffix(".npz"))
    if not run.trace:
        run.setup.append(result["ready"] - spawned)
        sample_setup(run, setup_cmd)
    run.attempted += result["attempted"]
    for why in result["errors"]:
        run.fail("lib", why)
    for _ in range(result["mismatches"]):
        run.fail("lib", "output differs from the op's first result")

    ops = []
    for k, (i, name) in enumerate(result["ops"]):
        op = Op(f"{i}_{name}")
        op.wall = result["times"][k]
        if run.trace:
            op.traced_wall = result["traced_times"][k]
            op.layers = [layer_times(s["self_s"]) for s in result["spans"][k]]
            if result["spans"][k]:
                first = result["spans"][k][0]
                op.counts = {**first["counts"], "trace.spans": first["spans"]}
        ops.append(op)
    if run.trace:
        # The cold first evaluation is the only place partitions are
        # enumerated, so its spans count once, on top of the batch.
        setup = Op("setup")
        setup.layers = [layer_times(result["setup_spans"]["self_s"])]
        setup.counts = {**result["setup_spans"]["counts"],
                        "trace.spans": result["setup_spans"]["spans"]}
        ops.append(setup)

    for i, (sigma, kind) in enumerate(zip(sigmas, kinds)):
        check_lib_outputs(run, i, sigma, kind, outputs)
    return ops


def check_lib_outputs(run: Run, i: int, sigma: np.ndarray, kind: str, outputs) -> None:
    d = sigma.shape[0]
    p = check.power_sums(sigma, 40)
    series = check.Series(p, d, 40)
    got = {name: outputs[f"{i}_{name}"] for name in (
        "power_sums", "psi", "inverse", "grad", "cov", "derived") if f"{i}_{name}" in outputs}

    def need(name: str, ok) -> None:
        if name in got and not ok():
            run.fail(f"{i}_{name}", f"{kind} d={d}: output fails its reference check")

    need("power_sums", lambda: got["power_sums"][0] == d and all(
        check.close(float(got["power_sums"][j]), p[j], check.power_sum_scale(p, j))
        for j in range(1, 40)))
    if kind == "rank-one":
        theta = float(np.trace(sigma))
        need("psi", lambda: check.kummer_agrees(float(got["psi"]), d, theta, 40))
    else:
        need("psi", lambda: check.close(float(got["psi"]), *series.psi(40)))
    if not check.zonal_agrees(series, p, 8):
        run.fail(f"{i}_psi", "exact recurrence disagrees with zonal_value_exact")
    need("inverse", lambda: check.close(float(got["inverse"]), *series.inverse(40)))
    c, scale = series.grad(40)
    need("grad", lambda: bool(np.all(np.abs(got["grad"] - c) <= check.RTOL * scale)))
    need("cov", lambda: check.matrix_ok(got["cov"], sigma, p, c, series.inverse(3)[0], run.rng))
    need("derived", lambda: bool(np.isfinite(got["derived"]) and got["derived"] > 0))


# --- metrics -------------------------------------------------------------------

def layer_times(self_s: dict[str, float]) -> dict[str, float]:
    """Self time per per-layer metric; whole modules for bounds and zonal."""
    out: dict[str, float] = {}
    for name, seconds in self_s.items():
        module = name.split(".")[0]
        key = f"{module}_s" if module in ("bounds", "zonal") else f"{name}_s"
        out[key] = out.get(key, 0.0) + seconds
    return out


def sum_of_medians(samples: list[list[float]]) -> float:
    return sum(statistics.median(s) for s in samples if s)


def end_to_end(run: Run, ops: list[Op]) -> dict[str, float]:
    return {
        "wall_s": sum_of_medians([op.wall for op in ops]),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, ops: list[Op], names: list[str]) -> dict[str, float]:
    values = {name: 0 for name in names}
    for op in ops:
        for key in {k for layer in op.layers for k in layer}:
            values[key] += statistics.median(layer.get(key, 0.0) for layer in op.layers)
        for key, v in op.counts.items():
            values[key] += v
    timed = [op for op in ops if op.wall]
    values["trace.overhead_s"] = (sum_of_medians([op.traced_wall for op in timed])
                                  - sum_of_medians([op.wall for op in timed]))
    values["error_rate"] = len(run.failures) / run.attempted
    unknown = set(values) - set(names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return values


WORKLOADS = {"cli-dense": cli_dense_ops, "cli-verify": cli_verify_ops, "lib-series": lib_series}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "binghamx" / "__init__.py").is_file():
        print(f"perfbench: no binghamx sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
        code, _, where = spawn([sys.executable, "-c",
                                "import binghamx.cli, sys; sys.stderr.write(binghamx.__file__)"])
        if code != 0 or not Path(where).resolve().is_relative_to(SRC):
            print(f"perfbench: binghamx does not import from {SRC}: {where}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
        if args.workload == "lib-series":
            ops = lib_series(run)
        else:
            ops, verdict = WORKLOADS[args.workload](run)
            measure_cli(run, ops, verdict)
        values = (per_layer(run, ops, [m["name"] for m in declared]) if args.trace
                  else end_to_end(run, ops))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"env nproc={NPROC} blas_threads={BLAS_THREADS} numpy={np.__version__} "
          f"python={platform.python_version()} machine={platform.machine()}")
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={len(ops)} attempted={run.attempted} "
          f"failed={len(run.failures)} error_rate={len(run.failures) / run.attempted:.6g}")
    for why in run.failures:
        print(f"failed {why}")
    rows = [("setup", "", run.setup)] + [(label, f" {op.name}", samples) for op in ops
                                         for label, samples in (("op", op.wall),
                                                                ("op-traced", op.traced_wall))]
    for label, name, samples in rows:
        if samples:
            print(f"{label}{name} n={len(samples)} median={statistics.median(samples):.6g} "
                  f"min={min(samples):.6g} max={max(samples):.6g}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
