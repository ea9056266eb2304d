from fractions import Fraction
from math import factorial

import pytest

from tcores import nekrasov
from tcores.nekrasov import (
    check_identity,
    partition_side,
    product_side,
    specialize,
)
from tcores.partitions import enumerate_partitions, hook_rows
from tcores.series import eta_inverse_power_series, sparse_product


# Polynomials in z over the rationals: tuples, lowest degree first, with no
# trailing zero coefficient (the zero polynomial is ()).
def poly(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def padd(p, q):
    n = max(len(p), len(q))
    return poly((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def pmul(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def peval(p, z):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * z + c
    return acc


_ONE = poly([1])


def oracle_partition_side(m: int) -> tuple[Fraction, ...]:
    """Per-m expansion in Fractions, one hook factor (1 - z/h^2) at a time."""
    total = poly([])
    for lam in enumerate_partitions(m):
        prod = _ONE
        for row in hook_rows(lam):
            for h in row:
                prod = pmul(prod, poly([1, Fraction(-1, h * h)]))
        total = padd(total, prod)
    return total


def _binomial_z_minus_one(k: int) -> tuple[Fraction, ...]:
    # C(z-1, k) = (z-1)(z-2)...(z-k) / k!
    p = _ONE
    for i in range(1, k + 1):
        p = pmul(p, poly([-i, 1]))
    return pmul(p, poly([Fraction(1, factorial(k))]))


def oracle_product_side(m: int) -> tuple[Fraction, ...]:
    """q^m coefficient of prod_{n<=m} (1 - q^n)^(z-1), one factor at a time.

    Each factor expands as sum_k (-1)^k C(z-1, k) q^(n*k).
    """
    series = [_ONE] + [poly([])] * m
    for n in range(1, m + 1):
        factor = [
            pmul(poly([(-1) ** k]), _binomial_z_minus_one(k))
            for k in range(m // n + 1)
        ]
        out = [poly([])] * (m + 1)
        for j, coeff in enumerate(series):
            if coeff:
                for k, f in enumerate(factor):
                    if j + n * k <= m:
                        out[j + n * k] = padd(out[j + n * k], pmul(coeff, f))
        series = out
    return series[m]


def oracle_mismatches(m_max: int, partition_side=oracle_partition_side):
    """(m, first differing z-degree) for each m <= m_max where the sides differ."""
    mismatches = []
    for m in range(m_max + 1):
        lhs, rhs = oracle_product_side(m), partition_side(m)
        if lhs != rhs:
            top = max(len(lhs), len(rhs))
            lhs, rhs = lhs + (0,) * (top - len(lhs)), rhs + (0,) * (top - len(rhs))
            mismatches.append((m, next(k for k in range(top) if lhs[k] != rhs[k])))
    return tuple(mismatches)


def test_partition_side_small_degrees():
    assert partition_side(0) == (1,)
    assert partition_side(1) == (1, -1)
    # two partitions of 2, each with hooks {2, 1}: 2*(1-z)(1-z/4)
    expected = pmul(poly([2]), pmul(poly([1, -1]), poly([1, Fraction(-1, 4)])))
    assert partition_side(2) == expected == (2, Fraction(-5, 2), Fraction(1, 2))


def test_product_side_small_degrees():
    assert product_side(0) == (1,)
    assert product_side(1) == (1, -1)
    assert product_side(2) == partition_side(2)


def test_constant_term_is_partition_count():
    ps = eta_inverse_power_series(1, 10)
    for m in range(11):
        assert partition_side(m)[0] == ps[m]


def test_z_degree_equals_q_degree():
    for m in range(1, 11):
        for side in (partition_side(m), product_side(m)):
            assert type(side) is tuple and all(type(c) is Fraction for c in side)
            assert len(side) == m + 1 and side[-1] != 0


def test_identity_small():
    assert check_identity(8) == ()


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
        assert check_identity(m_max) == oracle_mismatches(m_max) == ()


def test_specialize_matches_oracle():
    for z in (0, 2, 4, Fraction(1, 3)):
        values = specialize(12, z)
        assert all(type(v) is Fraction for v in values)
        assert values == tuple(peval(oracle_partition_side(m), z) for m in range(13))


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
        coeffs = list(oracle_partition_side(m))
        for (bad_m, k), delta in bad.items():
            if m == bad_m:
                coeffs[k] += Fraction(delta, factorial(m) ** 2)
        return poly(coeffs)

    monkeypatch.setattr(nekrasov, "_scaled_partition_side", injected)
    mismatches = check_identity(12)
    assert mismatches == expected == oracle_mismatches(12, injected_oracle)
    assert mismatches


def _factors_to(m_max):
    # p(m) * m hook factors for every m <= m_max
    return sum(m for m in range(m_max + 1) for _ in enumerate_partitions(m))


def test_identity_budget_boundary(monkeypatch):
    factors = _factors_to(9)
    monkeypatch.setattr(nekrasov, "NO_IDENTITY_BUDGET", factors)
    assert check_identity(9) == ()
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
