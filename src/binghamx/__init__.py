"""Truncated expansions with certified tail bounds for the Bingham family.

The distribution with density proportional to exp(x' Sigma x) on the
unit sphere in R^d has normalizing constant N(Sigma), a hypergeometric
series in the zonal polynomials of Sigma.  This package evaluates
truncations of N, 1/N, grad N, and the covariance E[X X'], together
with explicit remainder bounds that hold under a norm growth regime
||Sigma||_F <= gamma0 * d^(r/2), admissibility thresholds on d, an
order-selection rule, bound tables, and Monte-Carlo oracles for
end-to-end verification.
"""

from .bounds import (
    BASE_GROWTH,
    GrowthRegime,
    TailBoundTable,
    admissible_dimension,
    admissible_dimension_inverse,
    compare_bounds,
    first_order_inverse_ratio,
    gradient_tail_bound,
    inverse_tail_bound,
    norm_const_tail_bound,
    regime_check,
    round_half_up,
    select_order,
    tail_bound_table,
)
from .errors import (
    BinghamxError,
    ConvergenceError,
    DimensionMismatchError,
    InadmissibleDimensionError,
    InsufficientPowersError,
    MatrixFormatError,
    MatrixValidationError,
    OrderRangeError,
    OrderSelectionError,
    RegimeViolationError,
    SamplingOverflowError,
    SeriesOverflowError,
)
from .oracle import (
    McEstimate,
    fd_gradient,
    kummer_partial_sum,
    kummer_series,
    mc_covariance,
    mc_eigen_moments,
    mc_moments,
    mc_norm_const,
)
from .partitions import (
    MAX_ORDER,
    PartitionMultiplicity,
    enumerate_partitions,
    half_pochhammer,
    partition_weight,
)
from .series import (
    alpha_descriptor,
    alpha_exponent,
    covariance_derived_bound,
    covariance_expansion,
    covariance_second_order,
    inverse_norm_const_truncated,
    norm_const_gradient_truncated,
    norm_const_truncated,
    pochhammer_ratio,
)
from .symmat import (
    GradientPolynomial,
    PowerSums,
    format_matrix,
    frobenius_norm,
    load_matrix,
    materialize,
    power_sums,
    symmetrize,
)
from .zonal import (
    bound_coefficient,
    bound_coefficient_closed,
    bound_coefficient_closed_poly,
    bound_coefficient_poly,
    zonal_gradient,
    zonal_value,
    zonal_value_exact,
)

__version__ = "0.1.0"
