from fractions import Fraction
from math import factorial

import pytest

from tcores import nekrasov
from tcores.nekrasov import (
    ZPoly,
    check_identity,
    partition_side,
    product_side,
    specialize,
)
from tcores.partitions import enumerate_partitions, hook_rows
from tcores.series import eta_inverse_power_series, sparse_product

_ONE = ZPoly([1])


def oracle_partition_side(m: int) -> ZPoly:
    """Per-m expansion in Fractions, one hook factor (1 - z/h^2) at a time."""
    total = ZPoly()
    for lam in enumerate_partitions(m):
        prod = _ONE
        for row in hook_rows(lam):
            for h in row:
                prod = prod * ZPoly([1, Fraction(-1, h * h)])
        total = total + prod
    return total


def _binomial_z_minus_one(k: int) -> ZPoly:
    # C(z-1, k) = (z-1)(z-2)...(z-k) / k!
    poly = _ONE
    for i in range(1, k + 1):
        poly = poly * ZPoly([-i, 1])
    return poly * Fraction(1, factorial(k))


def oracle_product_side(m: int) -> ZPoly:
    """q^m coefficient of prod_{n<=m} (1 - q^n)^(z-1), one factor at a time.

    Each factor expands as sum_k (-1)^k C(z-1, k) q^(n*k).
    """
    series: list[ZPoly] = [_ONE] + [ZPoly()] * m
    for n in range(1, m + 1):
        factor = [
            ZPoly([(-1) ** k]) * _binomial_z_minus_one(k)
            for k in range(m // n + 1)
        ]
        out: list[ZPoly] = [ZPoly()] * (m + 1)
        for j, coeff in enumerate(series):
            if coeff:
                for k, f in enumerate(factor):
                    if j + n * k <= m:
                        out[j + n * k] = out[j + n * k] + coeff * f
        series = out
    return series[m]


def oracle_mismatches(m_max: int, partition_side=oracle_partition_side):
    """(m, first differing z-degree) for each m <= m_max where the sides differ."""
    mismatches = []
    for m in range(m_max + 1):
        lhs, rhs = oracle_product_side(m), partition_side(m)
        if lhs != rhs:
            top = max(lhs.degree, rhs.degree)
            bad = next(
                k
                for k in range(top + 1)
                if (lhs.coeffs[k] if k <= lhs.degree else 0)
                != (rhs.coeffs[k] if k <= rhs.degree else 0)
            )
            mismatches.append((m, bad))
    return tuple(mismatches)


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


def test_specialize_euler_and_jacobi():
    assert specialize(1, 2)[1] == -1
    euler = sparse_product([(1, 1)], 10)
    jacobi = sparse_product([(1, 3)], 10)
    assert specialize(10, 2) == euler
    assert specialize(10, 4) == jacobi


def test_specialize_at_zero_gives_partition_counts():
    assert specialize(9, 0) == eta_inverse_power_series(1, 9)


def test_sides_match_fraction_oracle():
    for m in range(15):
        assert partition_side(m) == oracle_partition_side(m)
        assert product_side(m) == oracle_product_side(m)


def test_check_identity_matches_oracle():
    for m_max in (0, 1, 5, 12):
        report = check_identity(m_max)
        assert report.mismatches == oracle_mismatches(m_max) == ()
        assert report.m_max == m_max


def test_specialize_matches_oracle():
    for z in (0, 2, 4, Fraction(1, 3)):
        values = specialize(12, z)
        assert all(type(v) is Fraction for v in values)
        assert values == tuple(oracle_partition_side(m)(z) for m in range(13))


@pytest.mark.parametrize(
    "bad, expected",
    [
        ({(5, 3): 1}, ((5, 3),)),
        ({(0, 0): -1}, ((0, 0),)),
        ({(9, 0): 1, (12, 12): 2}, ((9, 0), (12, 12))),
        ({(7, 5): -1, (7, 2): 1}, ((7, 2),)),  # the first bad z-degree is reported
    ],
)
def test_injected_coefficient_gives_oracle_mismatch(monkeypatch, bad, expected):
    scaled = nekrasov._scaled_partition_side

    def injected(m):
        coeffs = scaled(m)
        for (bad_m, k), delta in bad.items():
            if m == bad_m:
                coeffs[k] += delta
        return coeffs

    def injected_oracle(m):
        coeffs = list(oracle_partition_side(m).coeffs)
        for (bad_m, k), delta in bad.items():
            if m == bad_m:
                coeffs[k] += Fraction(delta, factorial(m) ** 2)
        return ZPoly(coeffs)

    monkeypatch.setattr(nekrasov, "_scaled_partition_side", injected)
    report = check_identity(12)
    assert report.mismatches == expected == oracle_mismatches(12, injected_oracle)
    assert not report.ok


def _factors_to(m_max):
    # p(m) * m hook factors for every m <= m_max
    return sum(m for m in range(m_max + 1) for _ in enumerate_partitions(m))


def test_identity_budget_boundary(monkeypatch):
    factors = _factors_to(9)
    monkeypatch.setattr(nekrasov, "NO_IDENTITY_BUDGET", factors)
    assert check_identity(9).ok
    monkeypatch.setattr(nekrasov, "NO_IDENTITY_BUDGET", factors - 1)
    calls = []
    monkeypatch.setattr(nekrasov, "_scaled_product_sides", calls.append)
    with pytest.raises(ValueError, match="budget"):
        check_identity(9)
    assert calls == []


@pytest.mark.parametrize(
    "view, expected",
    [
        (partition_side, oracle_partition_side(9)),
        (product_side, oracle_product_side(9)),
        (lambda m: specialize(m, 2), sparse_product([(1, 1)], 9)),
    ],
    ids=["partition_side", "product_side", "specialize"],
)
def test_view_budget_boundary(monkeypatch, view, expected):
    factors = _factors_to(9)
    monkeypatch.setattr(nekrasov, "NO_IDENTITY_BUDGET", factors)
    assert view(9) == expected
    monkeypatch.setattr(nekrasov, "NO_IDENTITY_BUDGET", factors - 1)
    calls = []
    monkeypatch.setattr(nekrasov, "_scaled_product_sides", calls.append)
    monkeypatch.setattr(nekrasov, "_scaled_partition_side", calls.append)
    with pytest.raises(ValueError, match="budget"):
        view(9)
    with pytest.raises(ValueError, match="q-degree must be non-negative"):
        view(-1)
    assert calls == []
