"""Integer partitions in multiplicity form and their series weights.

A partition of k is its multiplicity tuple (i_1, ..., i_k) with
sum(j * i_j) = k: i_j counts the parts of size j.  This is the index set
of the single-row zonal polynomial sum, and the weight attached to a
partition there is 1 / prod_j(i_j! * (2j)^i_j), kept as an exact
Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import OrderRangeError

#: Largest series order supported anywhere in the package.  A policy cap,
#: not a cost bound: the series are evaluated by an O(m^2) recurrence, and
#: partitions are enumerated only by the exact and reference evaluators.
MAX_ORDER = 40


def check_order(name: str, value: int, low: int) -> None:
    """Raise OrderRangeError unless ``low <= value <= MAX_ORDER``."""
    if not low <= value <= MAX_ORDER:
        raise OrderRangeError(f"{name} must be in {low}..{MAX_ORDER}, got {value}")


def enumerate_partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of k as multiplicity tuples, ascending lexicographically.

    Recursive descent over part sizes: position j takes each feasible
    multiplicity in increasing order, and a remainder w > 0 is feasible
    for parts of size > j only when w > j (a single part of size w then
    completes it).  A partition is recorded as soon as nothing remains,
    since every later multiplicity is then 0.  The result is cached and
    returned itself on every call.

    Parameters
    ----------
    k : int
        1 <= k <= ``MAX_ORDER``.
    """
    check_order("k", k, 1)
    return _enumerate_cached(k)


@lru_cache(maxsize=None)
def _enumerate_cached(k: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []
    vec = [0] * k

    def extend(j: int, remaining: int) -> None:
        for ij in range(remaining // j + 1):
            rest = remaining - j * ij
            vec[j - 1] = ij
            if rest == 0:
                out.append(tuple(vec))
            elif rest > j:
                extend(j + 1, rest)
        vec[j - 1] = 0

    extend(1, k)
    return tuple(out)


def partition_weight(i: tuple[int, ...]) -> Fraction:
    """Exact weight 1 / prod_j(i_j! * (2j)^i_j) of the multiplicity tuple i."""
    den = 1
    for j, ij in enumerate(i, start=1):
        if ij:
            den *= math.factorial(ij) * (2 * j) ** ij
    return Fraction(1, den)


@lru_cache(maxsize=None)
def half_pochhammer(k: int) -> Fraction:
    """(1/2)_k as an exact Fraction, equal to (2k)! / (4^k k!)."""
    if k < 0:
        raise OrderRangeError(f"k must be >= 0, got {k}")
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
