"""Command-line interface.

Subcommands
-----------
psi       truncated normalizing constant (plus tail bound with a regime)
grad      materialized truncated gradient (plus tail bound with a regime)
cov       covariance product with its remainder-order descriptor
zonal     one zonal polynomial value and its gradient coefficients
bounds    tail-bound tables over a (d, m) grid
choose-m  smallest order meeting a tolerance
verify    Monte-Carlo cross-check of the series values

Exit codes: 0 success, 1 inadmissible dimension / regime violation /
failed verification (the computed threshold or margin is printed),
2 usage or input errors with a one-line diagnosis, among them results
that overflow float64 (the error names the quantity, the order and
||Sigma||_F) and sample counts too large to allocate.

Output formats: ``text`` (key = value lines, matrices in the ingestion
text format, 17 significant digits), ``md`` (tables, 5 decimals rounded
half-up), ``csv`` (comma-separated, 17 significant digits, a cell that
holds a comma, quote or line break quoted as RFC 4180 says).  Matrices in
every format come from :func:`binghamx.symmat.format_matrix`.  Output is
byte-stable for identical inputs on one numpy/BLAS build and thread count.

Each subparser names its handler, which :func:`run` calls.  ``psi``,
``grad``, ``cov`` and ``zonal`` are declared once each, in one loop of
:func:`build_parser`: a rows function, the order flags with their ranges
(read from ``MAX_ORDER``) and the tail bounds.  Every check that needs
no spectral work runs first: their one handler checks the matrix, the
orders, the regime and the tail bounds, then forms the power sums and
calls the rows function.
"""

from __future__ import annotations

import argparse
import codecs
import sys
from typing import Sequence

# symmat, zonal, series and oracle are lazy modules (see the package
# docstring): bounds and choose-m run without loading numpy.
from . import bounds as bounds_mod
from . import oracle, series, symmat, zonal
from .bounds import GrowthRegime
from .errors import (
    BinghamxError,
    InadmissibleDimensionError,
    MatrixFormatError,
    OrderSelectionError,
    RegimeViolationError,
    SeriesOverflowError,
)
from .partitions import MAX_ORDER, check_order

USAGE_ERROR = 2
ADMISSIBILITY_ERROR = 1


def _fmt(x, fmt: str) -> str:
    if isinstance(x, float):
        return bounds_mod.round_half_up(x) if fmt == "md" else f"{x:.17g}"
    return str(x)


def _table(header: Sequence[str], rows: list[Sequence], fmt: str) -> str:
    """A csv or md table: the header, then one line of cells per row."""
    cells = [[_fmt(v, fmt) for v in row] for row in [header, *rows]]
    if fmt == "csv":
        # RFC 4180: a cell holding a comma, quote or line break is quoted.
        import csv
        import io
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(cells)
        return buf.getvalue()
    lines = ["| " + " | ".join(row) + " |" for row in cells]
    lines.insert(1, "|---" * len(header) + "|")
    return "\n".join(lines) + "\n"


def _emit_record(rows: list[tuple[str, object]], fmt: str, out) -> None:
    """Scalar rows as one record, then array rows as matrices."""
    # Arrays are the only values with ndim >= 1; the check needs no numpy.
    matrices = [v for _, v in rows if getattr(v, "ndim", 0)]
    rows = [(key, v) for key, v in rows if not getattr(v, "ndim", 0)]
    if fmt == "csv":
        out.write(_table([key for key, _ in rows], [[v for _, v in rows]], fmt))
    elif fmt == "md":
        out.write(_table(("quantity", "value"), rows, fmt))
    else:
        for key, v in rows:
            out.write(f"{key} = {_fmt(v, fmt)}\n")
    for a in matrices:
        out.write(symmat.format_matrix(a, fmt))


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "md", "csv"), default="text",
                   help="output format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binghamx",
        description="Truncated expansions, with certified tail bounds, for the "
                    "Bingham normalizing constant, its gradient, and the "
                    "covariance on the unit sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each series subcommand: its rows function, its order flags as (flag,
    # lowest value, description), and the tail bounds that a regime checks
    # before any spectral work.  Only those with tail bounds take a regime.
    for name, what, rows, orders, tails in (
        ("psi", "truncated normalizing constant", _psi_rows,
         [("m", 1, "number of series terms")], [("m", bounds_mod.norm_const_tail_bound)]),
        ("grad", "materialized truncated gradient", _grad_rows,
         [("m", 2, "number of series terms")], [("m", bounds_mod.gradient_tail_bound)]),
        ("cov", "covariance product", _cov_rows,
         [("l", 2, "inverse truncation order"), ("m", 2, "gradient truncation order")],
         [("m", bounds_mod.gradient_tail_bound), ("l", bounds_mod.inverse_tail_bound)]),
        ("zonal", "zonal polynomial value and gradient", _zonal_rows,
         [("k", 0, "zonal order")], []),
    ):
        p = sub.add_parser(name, help=what)
        p.add_argument("--matrix", required=True, help="matrix file")
        for flag, low, text in orders:
            p.add_argument(f"--{flag}", type=int, required=True, help=f"{text}, {low}..{MAX_ORDER}")
        if tails:
            p.add_argument("--gamma0", type=float, default=None,
                           help="growth-regime scale (requires --r)")
            p.add_argument("--r", type=float, default=None,
                           help="growth-regime exponent in [0, 1) (requires --gamma0)")
        _add_format_flag(p)
        p.set_defaults(handler=_cmd_series, rows=rows, tails=tails,
                       orders=[(flag, low) for flag, low, _ in orders])

    p = sub.add_parser("bounds", help="tail-bound tables over a (d, m) grid")
    p.add_argument("--gamma0", type=float, required=True, help="growth-regime scale")
    p.add_argument("--r", type=float, required=True, help="growth-regime exponent in [0, 1)")
    p.add_argument("--d", type=_int_list, required=True,
                   help="comma-separated dimensions, each >= 2")
    p.add_argument("--m", type=_int_list, required=True,
                   help=f"comma-separated orders, each 2..{MAX_ORDER}")
    p.add_argument("--out", default=None, metavar="PREFIX",
                   help="write PREFIX_psi.csv and PREFIX_grad.csv instead of stdout")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("choose-m", help="smallest order meeting a tolerance")
    p.add_argument("--gamma0", type=float, required=True, help="growth-regime scale")
    p.add_argument("--r", type=float, required=True, help="growth-regime exponent in [0, 1)")
    p.add_argument("--d", type=int, required=True, help="dimension, >= 2")
    p.add_argument("--eps", type=float, required=True, help="target bound")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_choose_m)

    p = sub.add_parser("verify", help="Monte-Carlo cross-check of the series values")
    p.add_argument("--matrix", required=True, help="matrix file")
    p.add_argument("--samples", type=int, required=True, help="sample count, >= 1000")
    p.add_argument("--seed", type=int, required=True, help="nonnegative RNG seed")
    p.add_argument("--l", type=int, default=3,
                   help=f"inverse truncation order, 2..{MAX_ORDER} (default 3)")
    p.add_argument("--m", type=int, default=12,
                   help=f"series truncation order, 2..{MAX_ORDER} (default 12)")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _regime_rows(regime: GrowthRegime | None, name: str, *bound: float) -> list[tuple]:
    """The rows (name, bound), gamma0 and r with a regime, none without."""
    return [] if regime is None else [(name, *bound), ("gamma0", regime.scale),
                                      ("r", regime.exponent)]


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``, less a leading byte-order mark.

    A decoding error names the offending byte and its offset in the file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    skip = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        return str(memoryview(raw)[skip:], "utf-8")
    except UnicodeDecodeError as exc:
        at = skip + exc.start
        raise MatrixFormatError(
            f"{path}: not UTF-8 text: byte 0x{raw[at]:02x} at offset {at}"
        ) from None


def _checked_series(args, orders, compute, tails=()):
    """The rows ``compute`` returns, after every check it needs.

    In order: load the matrix, check each ``(flag, low)`` of ``orders``,
    and with a regime check the fit and evaluate each ``(flag, bound)``
    of ``tails``.  Only then form the power sums up to the largest order
    flag and call ``compute(args, ps, sigma, regime, bound values)`` for
    ``(name, value)`` rows with every number to print.  Numpy warnings
    are off: a row that is not finite raises SeriesOverflowError instead.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        sigma = symmat.load_matrix(_read_text(args.matrix))
        d = sigma.shape[0]
        scale, exponent = getattr(args, "gamma0", None), getattr(args, "r", None)
        if (scale is None) != (exponent is None):
            raise argparse.ArgumentTypeError("--gamma0 and --r must be given together")
        regime = None if scale is None else GrowthRegime(scale=scale, exponent=exponent)
        for flag, low in orders:
            check_order(flag, getattr(args, flag), low)
        tail = []
        if regime is not None:
            if not bounds_mod.regime_check(sigma, regime, d):
                norm, cap = symmat.frobenius_norm(sigma), regime.cap(d)
                raise RegimeViolationError(
                    f"||Sigma||_F = {norm:.17g} exceeds the regime cap "
                    f"{cap:.17g} = {regime.scale:.17g} * d^({regime.exponent:.17g}/2)",
                    norm=norm, cap=cap,
                )
            tail = [bound(getattr(args, flag), float(d), regime) for flag, bound in tails]
        ps = symmat.power_sums(sigma, max(1, *(getattr(args, flag) for flag, _ in orders)))
        rows = compute(args, ps, sigma, regime, tail)
        for key, value in rows:
            if isinstance(value, (float, np.ndarray)) and not np.isfinite(value).all():
                at = ", ".join(f"{flag} = {getattr(args, flag)}" for flag, _ in orders)
                raise SeriesOverflowError(
                    f"{key} at {at} is not finite in float64 "
                    f"(||Sigma||_F = {symmat.frobenius_norm(sigma):.17g})"
                )
    return rows


def _psi_rows(args, ps, sigma, regime, tail):
    return [("psi", series.norm_const_truncated(ps, args.m, ps.d)), ("m", args.m), ("d", ps.d),
            *_regime_rows(regime, "bound", *tail)]


def _grad_rows(args, ps, sigma, regime, tail):
    grad = series.norm_const_gradient_truncated(ps, args.m, ps.d)
    return [("m", args.m), ("d", ps.d), *_regime_rows(regime, "bound", *tail),
            ("grad", symmat.materialize(grad, sigma))]


def _cov_rows(args, ps, sigma, regime, tail):
    # The product and, with a regime, the derived bound share the series
    # pass ps keeps; the bound's ||G||_F is ||g(lambda)||_2, not the
    # printed matrix's.
    bound = [] if regime is None else [
        series.covariance_derived_bound(ps, sigma, args.l, args.m, ps.d, regime)]
    cov = series.covariance_expansion(ps, sigma, args.l, args.m, ps.d)
    return [("l", args.l), ("m", args.m), ("d", ps.d),
            ("alpha", series.alpha_descriptor(args.m, regime)),
            *_regime_rows(regime, "derived_bound", *bound), ("cov", cov)]


def _zonal_rows(args, ps, sigma, regime, tail):
    rows = [("k", args.k), ("d", ps.d), ("zonal", zonal.zonal_value(args.k, ps))]
    if args.k >= 1:
        coeffs = zonal.zonal_gradient(args.k, ps).coeffs
        rows += [(f"grad_coeff_{l}", float(c)) for l, c in enumerate(coeffs)]
    return rows


def _cmd_series(args, out) -> int:
    _emit_record(_checked_series(args, args.orders, args.rows, args.tails), args.format, out)
    return 0


def _dimension(d: int, what: str) -> float:
    """d as a float, after checking that it is at least 2 and that float64 holds it."""
    if d < 2:
        raise argparse.ArgumentTypeError(f"{what} must be >= 2, got {d}")
    try:
        return float(d)
    except OverflowError:
        raise argparse.ArgumentTypeError(
            f"{what} must fit in float64, got a {len(str(d))}-digit integer") from None


def _write_files(texts: dict[str, str]) -> None:
    """Write each text to its path, all or none.

    Every text goes to a temporary file beside its path first; only when
    all are written are they renamed into place.  On any failure the
    temporaries, and the paths this call already renamed into place, are
    removed before the error propagates.
    """
    import os

    temps, placed = {}, []
    try:
        for path, text in texts.items():
            temps[path] = f"{path}.{os.urandom(6).hex()}.tmp"
            try:
                with open(temps[path], "x", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                exc.filename = path  # the error names the file asked for
                raise
        for path, temp in temps.items():
            os.replace(temp, path)
            placed.append(path)
    except BaseException:
        for path in [*placed, *(temps[p] for p in temps if p not in placed)]:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise


def _cmd_bounds(args, out) -> int:
    regime = GrowthRegime(scale=args.gamma0, exponent=args.r)
    ds = [_dimension(d, "dimensions") for d in args.d]
    table = bounds_mod.tail_bound_table(regime, ds, args.m)
    # --out writes csv whatever --format says; text prints the md tables.
    fmt = "csv" if args.out is not None or args.format == "csv" else "md"
    sep = "=" if fmt == "csv" else " = "
    header = ["d", *(f"m{sep}{m}" for m in table.m_values)]
    tables = {
        name: _table(header, [[f"{d:.17g}", *cells]
                              for d, cells in zip(table.d_values, grid)], fmt)
        for name, grid in (("psi", table.norm_const_bounds),
                           ("grad", table.gradient_bounds))
    }
    if args.out is not None:
        files = {f"{args.out}_{name}.csv": text for name, text in tables.items()}
        _write_files(files)
        out.write("".join(f"{path}\n" for path in files))
    elif fmt == "csv":
        out.write("".join(f"# {name}\n{text}" for name, text in tables.items()))
    else:
        out.write(f"(a) normalizing-constant tail bound\n\n{tables['psi']}\n"
                  f"(b) gradient tail bound\n\n{tables['grad']}")
    return 0


def _cmd_choose_m(args, out) -> int:
    regime = GrowthRegime(scale=args.gamma0, exponent=args.r)
    d = _dimension(args.d, "dimension")
    m = bounds_mod.select_order(regime, d, args.eps)
    rows = [
        ("m", m),
        ("psi_bound", bounds_mod.norm_const_tail_bound(m, d, regime)),
        ("grad_bound", bounds_mod.gradient_tail_bound(m, d, regime)),
        ("eps", args.eps),
        ("d", args.d),
    ]
    _emit_record(rows, args.format, out)
    return 0


def _verify_series(ps, l: int, m: int) -> list[tuple[str, object]]:
    """Rows psi, cov and eigenvalues: the series side of ``verify``.

    Entry k of the sampled covariance V diag(E_w[y*y]) V' is compared with
    T g(lambda_k), lambda ascending: the eigenvalues of the series product
    T g(Sigma), in O(d m) time and O(d) memory.  Psi, T and g come from
    one series pass.
    """
    import numpy as np

    lam = np.sort(ps.eigenvalues)
    scalar, grad, psi = series._covariance_factors(ps, l, m, ps.d)
    return [("psi", psi), ("cov", scalar * symmat.polynomial_values(grad.coeffs, lam)),
            ("eigenvalues", lam)]


def _verify_checks(psi_series, cov_series, psi_mc, cov_mc) -> list[tuple]:
    """The checks of ``verify``: (check, series, estimate, std_error, bound, status) rows.

    Psi and the d covariance entries are tested at the family-wise rate
    FAMILY_ALPHA; the cov row reports the entry furthest past its bound.
    The status is "pass" or "FAIL", and psi's is "inconclusive" when fewer
    than MIN_ESS samples carry the weights.
    """
    import numpy as np

    threshold = oracle.family_threshold(len(cov_series) + 1)
    # When x' Sigma x is constant on the sphere (e.g. Sigma = theta * I) the
    # sampling variance is exactly zero, so the statistical tolerance alone
    # would reject the series over pure float roundoff.  Keep an absolute
    # floor of a few dozen ulps so a float-converged series can still pass.
    float_noise = 64.0 * np.finfo(float).eps * max(1.0, abs(psi_series))
    tol = threshold * psi_mc.std_error + float_noise
    bound = threshold * cov_mc.std_error
    gap = np.abs(cov_mc.value - cov_series) - bound
    k = int(np.argmax(gap))
    trace = float(np.sum(cov_mc.value))
    checks = [
        ("psi", psi_series, psi_mc.value, psi_mc.std_error, tol,
         abs(psi_mc.value - psi_series) <= tol),
        (f"cov[v{k}]", float(cov_series[k]), float(cov_mc.value[k]),
         float(cov_mc.std_error[k]), float(bound[k]), bool(gap[k] <= 0.0)),
        ("cov_trace", 1.0, trace, 0.0, 1e-12, abs(trace - 1.0) <= 1e-12),
    ]
    rows = [(*row, "pass" if ok else "FAIL") for *row, ok in checks]
    # A few samples carry the weights: the estimate and its standard error
    # both miss what the draw never reached, so psi is not judged.
    if psi_mc.ess < oracle.MIN_ESS:
        rows[0] = (*rows[0][:-1], "inconclusive")
    return rows


def _cmd_verify(args, out) -> int:
    oracle._check_sampling_args(args.samples, args.seed)

    [(_, psi_series), (_, cov_series), (_, lam)] = _checked_series(
        args, [("l", 2), ("m", 2)], lambda args, ps, *_: _verify_series(ps, args.l, args.m))
    psi_mc, cov_mc = oracle.mc_eigen_moments(lam, args.samples, args.seed)
    rows = _verify_checks(psi_series, cov_series, psi_mc, cov_mc)
    if rows[0][-1] == "inconclusive":
        print(f"inconclusive: the effective sample size {psi_mc.ess:.6g} of the "
              f"{args.samples} samples is below {oracle.MIN_ESS}", file=sys.stderr)

    if args.format != "text":
        header = ("check", "series", "estimate", "std_error", "bound", "status")
        out.write(_table(header, rows, args.format))
    else:
        out.write(f"{'check':<12} {'series':>24} {'estimate':>24} "
                  f"{'std_error':>12} {'bound':>12} status\n")
        for name, s, e, se, b, status in rows:
            out.write(f"{name:<12} {s:>24.17g} {e:>24.17g} {se:>12.5g} "
                      f"{b:>12.5g} {status}\n")
    return 0 if all(row[-1] == "pass" for row in rows) else 1


def run(argv: Sequence[str] | None = None, out=None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, out)
    except (InadmissibleDimensionError, RegimeViolationError, OrderSelectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ADMISSIBILITY_ERROR
    except (argparse.ArgumentTypeError, BinghamxError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
