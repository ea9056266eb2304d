from fractions import Fraction

import pytest

from tcores.nekrasov import (
    ZPoly,
    check_identity,
    partition_side,
    product_side,
    specialize,
)
from tcores.series import eta_inverse_power_series, sparse_product


def test_zpoly_arithmetic():
    p = ZPoly([1, 2]) * ZPoly([3, 0, 1])  # (1+2z)(3+z^2)
    assert p.coeffs == (3, 6, 1, 2)
    assert (p - p) == ZPoly()
    assert p(Fraction(1, 2)) == Fraction(3 + 3 + Fraction(1, 4) + Fraction(2, 8))
    assert ZPoly([0, 0]).degree == -1
    assert (2 * ZPoly([1, 1])).coeffs == (2, 2)


def test_partition_side_small_degrees():
    assert partition_side(0) == ZPoly([1])
    assert partition_side(1) == ZPoly([1, -1])
    # two partitions of 2, each with hooks {2, 1}: 2*(1-z)(1-z/4)
    expected = 2 * (ZPoly([1, -1]) * ZPoly([1, Fraction(-1, 4)]))
    assert partition_side(2) == expected


def test_product_side_small_degrees():
    assert product_side(0) == ZPoly([1])
    assert product_side(1) == ZPoly([1, -1])
    assert product_side(2) == partition_side(2)


def test_constant_term_is_partition_count():
    ps = eta_inverse_power_series(1, 10)
    for m in range(11):
        poly = partition_side(m)
        constant = poly.coeffs[0] if poly.coeffs else 0
        assert constant == ps[m]


def test_z_degree_equals_q_degree():
    for m in range(1, 11):
        assert partition_side(m).degree == m
        assert product_side(m).degree == m


def test_identity_small():
    report = check_identity(8)
    assert report.ok and report.m_max == 8


def test_guard_refusal():
    with pytest.raises(ValueError):
        partition_side(13)
    with pytest.raises(ValueError):
        product_side(20)
    with pytest.raises(ValueError):
        specialize(14, 2)
    assert partition_side(13, guard=13).degree == 13


def test_specialize_euler_and_jacobi():
    assert specialize(1, 2)[1] == -1
    euler = sparse_product([(1, 1)], 10)
    jacobi = sparse_product([(1, 3)], 10)
    assert specialize(10, 2) == euler
    assert specialize(10, 4) == jacobi


def test_specialize_at_zero_gives_partition_counts():
    assert specialize(9, 0) == eta_inverse_power_series(1, 9)
