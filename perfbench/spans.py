"""In-memory span tracer that wraps binghamx's public functions.

The tracer records one span per call of a wrapped function: its name,
start, end and the index of the enclosing span.  It changes no program
code: it replaces module attributes, and it replaces a function in every
``binghamx`` module namespace that binds it (``materialize`` is bound in
both ``binghamx.symmat`` and ``binghamx.series``, ``enumerate_partitions``
in ``binghamx.partitions``, ``binghamx.zonal`` and the package itself),
so calls made through any of those names are traced.

A few wrapped functions also add to work counters computed from their
arguments or results; those counts depend only on the inputs, so they
repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

#: Functions to wrap, by defining module.  Every public function of
#: ``bounds`` is wrapped so that ``bounds_s`` covers the whole module.
TRACED = {
    "symmat": ["load_matrix", "format_matrix", "power_sums", "materialize"],
    "series": [
        "norm_const_truncated",
        "inverse_norm_const_truncated",
        "norm_const_gradient_truncated",
        "covariance_expansion",
        "covariance_derived_bound",
    ],
    "zonal": ["power_table", "scaled_zonal_value", "scaled_zonal_gradient"],
    "partitions": ["enumerate_partitions"],
    "bounds": "*",
    "oracle": ["mc_norm_const", "mc_covariance"],
}

#: Jackknife groups held at once by ``oracle.mc_covariance``.
JACKKNIFE_BLOCKS = 50


def _count_materialize(counts, args, result):
    g, sigma = args["g"], args["sigma"]
    d = sigma.shape[0]
    counts["symmat.materialize.calls"] += 1
    # Horner's rule does one d x d product per coefficient after the first.
    counts["symmat.materialize.flops"] += 2 * d**3 * (len(g.coeffs) - 1)


def _count_power_sums(counts, args, result):
    counts["symmat.power_sums.calls"] += 1
    # An exact zero p_j sends zonal's gradient down its separate branch.
    counts["symmat.power_sums.zeros"] += bool((result.p[1:] == 0.0).any())


def _count_partitions(counts, args, result):
    counts["partitions.enumerated"] += len(result)


def _count_samples(counts, args, result):
    counts["oracle.samples"] += args["n"]


def _count_mc_covariance(counts, args, result):
    _count_samples(counts, args, result)
    d = args["sigma"].shape[0]
    counts["oracle.jackknife_bytes"] += JACKKNIFE_BLOCKS * d * d * 8


COUNTERS = {
    "symmat.materialize": _count_materialize,
    "symmat.power_sums": _count_power_sums,
    "partitions.enumerate_partitions": _count_partitions,
    "oracle.mc_norm_const": _count_samples,
    "oracle.mc_covariance": _count_mc_covariance,
}


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, open_[-1] if open_ else -1))
            open_.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index] = (name, start, end, spans[index][3])
            if counter is not None:
                counter(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every binghamx namespace."""
        import binghamx  # noqa: F401  (loads every submodule)

        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "binghamx" or n.startswith("binghamx.")]
        for mod_name, names in TRACED.items():
            module = sys.modules[f"binghamx.{mod_name}"]
            if names == "*":
                names = [n for n, f in vars(module).items()
                         if inspect.isfunction(f) and not n.startswith("_")
                         and f.__module__ == module.__name__]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, value))
                            setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every replaced attribute."""
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def take(self) -> dict:
        """Self time per span name, span count and counters; then reset."""
        self_s: Counter = Counter()
        for name, start, end, parent in self.spans:
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out = {"self_s": dict(self_s), "spans": len(self.spans),
               "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return out
