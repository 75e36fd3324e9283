"""Child-process entry points of the benchmark; run.py starts one at a time.

    child.py setup
        Import binghamx and make the first m = 40 evaluation with empty
        caches, then exit: one cold-start sample for ``lib-series``.
    child.py cli SPANS_JSON ARG...
        Traced CLI call: wrap the public functions, record when the
        process is ready, run ``binghamx.cli.run(ARG...)`` and write
        the spans to SPANS_JSON.  Exits with the CLI's exit code.
    child.py lib JOB_NPZ OUT_PREFIX SECONDS TRACE
        The ``lib-series`` batch: set up as ``setup`` does, then run the
        per-matrix library calls one at a time, repeating the batch until
        SECONDS have passed (at least once).  With TRACE = 1 every op is
        run once untraced and once traced.  Writes OUT_PREFIX.json
        (timings, spans) and OUT_PREFIX.npz (first-pass outputs).

The untraced paths import nothing from this directory before binghamx
is set up, so a cold start here costs what it costs any caller.
"""

import sys
import time


def _first_evaluation():
    import numpy as np

    import binghamx

    sigma = np.diag(np.linspace(-0.2, 0.2, 20))
    ps = binghamx.power_sums(sigma, 39)
    binghamx.norm_const_truncated(ps, 40, 20)
    binghamx.norm_const_gradient_truncated(ps, 40, 20)


def _cli(spans_path, argv):
    import json

    import binghamx.cli

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    ready = time.monotonic()
    code = binghamx.cli.run(argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, **tracer.take()}, fh)
    return code


LIB_OPS = ("power_sums", "psi", "inverse", "grad", "cov", "derived")


def _lib_op(bx, op, sigma, state):
    d = sigma.shape[0]
    if op == "power_sums":
        state["ps"] = bx.power_sums(sigma, 39)
        return state["ps"].p
    ps = state["ps"]
    if op == "psi":
        return bx.norm_const_truncated(ps, 40, d)
    if op == "inverse":
        return bx.inverse_norm_const_truncated(ps, 40, d)
    if op == "grad":
        return bx.norm_const_gradient_truncated(ps, 40, d).coeffs
    if op == "cov":
        return bx.covariance_expansion(ps, sigma, 3, 40, d)
    return bx.covariance_derived_bound(ps, sigma, 3, 40, d, state["regime"])


def _lib(job_path, out_prefix, seconds, trace):
    import binghamx as bx

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    _first_evaluation()
    ready = time.monotonic()
    setup_spans = tracer.take() if tracer else None
    if tracer:
        tracer.uninstall()

    import json

    import numpy as np

    job = np.load(job_path)
    sigmas = [job[f"sigma{i}"] for i in range(int(job["count"]))]
    state = {"regime": bx.GrowthRegime(scale=float(job["gamma0"]), exponent=0.0)}
    ops = [(i, op) for i in range(len(sigmas)) for op in LIB_OPS]
    modes = (False, True) if trace else (False,)
    times = {m: [[] for _ in ops] for m in modes}
    spans = [[] for _ in ops]
    first = [None] * len(ops)
    errors = []
    mismatches = 0
    deadline = ready + seconds
    n = 0
    while n < len(ops) or time.monotonic() < deadline:
        k = n % len(ops)
        i, op = ops[k]
        for traced in modes:
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                value = _lib_op(bx, op, sigmas[i], state)
                elapsed = time.perf_counter() - t0
            except Exception as exc:  # counted as a failed op by run.py
                errors.append(f"{i}/{op}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if traced:
                    tracer.uninstall()
                    spans[k].append(tracer.take())
            times[traced][k].append(elapsed)
            value = np.asarray(value, dtype=float)
            if first[k] is None:
                first[k] = value
            elif not np.array_equal(value, first[k]):
                mismatches += 1
        n += 1

    np.savez(out_prefix + ".npz",
             **{f"{i}_{op}": first[k] for k, (i, op) in enumerate(ops)
                if first[k] is not None})
    with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "ready": ready, "ops": [list(o) for o in ops],
            "attempted": n * len(modes), "errors": errors, "mismatches": mismatches,
            "times": times[False], "traced_times": times.get(True),
            "spans": spans, "setup_spans": setup_spans,
        }, fh)
    return 0


def main(argv):
    mode = argv[0]
    if mode == "setup":
        _first_evaluation()
        return 0
    if mode == "cli":
        return _cli(argv[1], argv[2:])
    if mode == "lib":
        return _lib(argv[1], argv[2], float(argv[3]), argv[4] == "1")
    print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
