"""Partition enumeration and exact weights.

The counting oracle is the Euler pentagonal-number recurrence,
implemented here independently of the enumeration code.
"""

import math
from fractions import Fraction

import pytest

from binghamx import (
    MAX_ORDER,
    OrderRangeError,
    PartitionMultiplicity,
    enumerate_partitions,
    half_pochhammer,
    partition_weight,
)


def pentagonal_counts(n: int) -> list[int]:
    """p(0..n) by the pentagonal-number recurrence (counting oracle)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, j = 0, 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            j += 1
        p[m] = total
    return p


def test_counts_match_pentagonal_recurrence():
    counts = pentagonal_counts(MAX_ORDER)
    for k in range(1, MAX_ORDER + 1):
        assert len(enumerate_partitions(k)) == counts[k]
    assert counts[10] == 42
    assert counts[40] == 37338


def test_small_orders_explicit():
    assert [pm.i for pm in enumerate_partitions(1)] == [(1,)]
    assert [pm.i for pm in enumerate_partitions(2)] == [(0, 1), (2, 0)]
    assert [pm.i for pm in enumerate_partitions(3)] == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]


@pytest.mark.parametrize("k", range(1, 13))
def test_multiplicity_constraint_order_and_uniqueness(k):
    parts = enumerate_partitions(k)
    vecs = [pm.i for pm in parts]
    for pm in parts:
        assert pm.k == k
        assert len(pm.i) == k
        assert sum(j * ij for j, ij in enumerate(pm.i, start=1)) == k
        assert all(ij >= 0 for ij in pm.i)
    assert vecs == sorted(vecs), "expected ascending lexicographic order"
    assert len(set(vecs)) == len(vecs)


def test_order_range_errors():
    with pytest.raises(OrderRangeError):
        enumerate_partitions(0)
    with pytest.raises(OrderRangeError):
        enumerate_partitions(MAX_ORDER + 1)


def test_weights_small_cases():
    assert partition_weight(PartitionMultiplicity(1, (1,))) == Fraction(1, 2)
    assert partition_weight(PartitionMultiplicity(2, (2, 0))) == Fraction(1, 8)
    assert partition_weight(PartitionMultiplicity(2, (0, 1))) == Fraction(1, 4)
    assert partition_weight(PartitionMultiplicity(3, (1, 1, 0))) == Fraction(1, 8)


@pytest.mark.parametrize("k", range(1, 21))
def test_weight_sum_identity(k):
    # Sum of weights over partitions of k equals (1/2)_k / k! exactly.
    total = sum(partition_weight(pm) for pm in enumerate_partitions(k))
    assert total == half_pochhammer(k) / math.factorial(k)


def test_half_pochhammer_values():
    assert half_pochhammer(0) == 1
    assert half_pochhammer(1) == Fraction(1, 2)
    assert half_pochhammer(3) == Fraction(15, 8)
    # consistency with the rising-factorial recurrence
    for k in range(1, 25):
        assert half_pochhammer(k) == half_pochhammer(k - 1) * (Fraction(1, 2) + (k - 1))
    with pytest.raises(OrderRangeError, match="k must be >= 0"):
        half_pochhammer(-1)
