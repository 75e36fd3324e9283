"""Truncated expansions with certified tail bounds for the Bingham family.

The distribution with density proportional to exp(x' Sigma x) on the
unit sphere in R^d has normalizing constant N(Sigma), a hypergeometric
series in the zonal polynomials of Sigma.  This package evaluates
truncations of N, 1/N, grad N, and the covariance E[X X'], together
with explicit remainder bounds that hold under a norm growth regime
||Sigma||_F <= gamma0 * d^(r/2), admissibility thresholds on d, an
order-selection rule, bound tables, and Monte-Carlo oracles for
end-to-end verification.

Importing the package loads no numpy.  ``errors``, ``partitions`` and
``bounds`` need only the standard library and are imported at once.
``symmat``, ``zonal``, ``series`` and ``oracle`` need numpy, so they are
lazy modules (:class:`importlib.util.LazyLoader`): each is already in
``sys.modules`` and bound as a package attribute, but its code runs on
the first access to one of its attributes.  They are registered rather
than left unimported so that code walking ``sys.modules`` after
``import binghamx``, such as a tracer that wraps functions by name,
finds every submodule.

The public names are resolved by the module ``__getattr__`` on every
access and never cached here: ``binghamx.power_sums`` is whatever
``binghamx.symmat.power_sums`` is at that moment, so a function replaced
in its submodule is replaced for package callers too.

On Python 3.10 and 3.11 the first access to a lazy module is not
thread-safe.  Touch each lazy module on the main thread before handing
work to threads; the ``verify`` command loads ``oracle`` before its
sampling pool starts.
"""

import importlib.util
import sys

from . import bounds, errors, partitions


def _lazy(name: str):
    """Register submodule ``name``; its code runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


symmat = _lazy("symmat")
zonal = _lazy("zonal")
series = _lazy("series")
oracle = _lazy("oracle")

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "bounds": (
        "BASE_GROWTH",
        "GrowthRegime",
        "TailBoundTable",
        "admissible_dimension",
        "admissible_dimension_inverse",
        "compare_bounds",
        "first_order_inverse_ratio",
        "gradient_tail_bound",
        "inverse_tail_bound",
        "norm_const_tail_bound",
        "regime_check",
        "round_half_up",
        "select_order",
        "tail_bound_table",
    ),
    "errors": (
        "BinghamxError",
        "DimensionMismatchError",
        "InadmissibleDimensionError",
        "InsufficientPowersError",
        "MatrixFormatError",
        "MatrixValidationError",
        "OrderRangeError",
        "OrderSelectionError",
        "RegimeViolationError",
        "SamplingOverflowError",
        "SeriesOverflowError",
    ),
    "oracle": (
        "McEstimate",
        "fd_gradient",
        "kummer_partial_sum",
        "mc_covariance",
        "mc_eigen_moments",
        "mc_moments",
        "mc_norm_const",
    ),
    "partitions": (
        "MAX_ORDER",
        "PartitionMultiplicity",
        "enumerate_partitions",
        "half_pochhammer",
        "partition_weight",
    ),
    "series": (
        "alpha_descriptor",
        "alpha_exponent",
        "covariance_derived_bound",
        "covariance_expansion",
        "covariance_second_order",
        "inverse_norm_const_truncated",
        "norm_const_gradient_truncated",
        "norm_const_truncated",
    ),
    "symmat": (
        "GradientPolynomial",
        "PowerSums",
        "format_matrix",
        "frobenius_norm",
        "load_matrix",
        "materialize",
        "power_sums",
        "symmetrize",
    ),
    "zonal": (
        "bound_coefficient",
        "bound_coefficient_closed",
        "bound_coefficient_closed_poly",
        "bound_coefficient_poly",
        "zonal_gradient",
        "zonal_value",
        "zonal_value_exact",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
