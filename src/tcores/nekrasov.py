"""The Nekrasov-Okounkov hook-length formula, checked exactly order by order.

Both sides of

    prod_{n>=1} (1 - q^n)^(z-1)
        = sum over partitions of q^|lam| * prod over hooks of (1 - z/h^2)

are expanded for every q-degree m <= m_max in one pass, as integer
polynomials in z. The product side's log-derivative gives, for
g_m = m! * [q^m] of the product,

    g_m = (1 - z) * sum_{k=1..m} sigma(k) * (m-1)!/(m-k)! * g_{m-k},

and the hook side S_m, with H_lam the product of lam's hook lengths, is

    m!^2 S_m = sum over lam of m of (m!/H_lam)^2 * prod over hooks (h^2 - z).

The check compares m! g_m with m!^2 S_m, both m!^2 times the true sides;
scaling by a positive constant keeps the first differing z-degree, which
check_identity returns per mismatch. Only the Fraction views partition_side
and product_side import fractions, so check_identity never loads it.
"""

from __future__ import annotations

from math import factorial, isqrt
from typing import TYPE_CHECKING

from .partitions import enumerate_partitions, hook_rows
from .series import eta_inverse_power_series

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_MMAX = 12


# Most hook factors (h^2 - z), p(m) * m summed over m <= m_max, that one
# call may multiply in: m_max = 31 is 961,622 factors and check_identity took
# 4.5 s on a 2.1 GHz Xeon, and m_max = 32 is refused.
NO_IDENTITY_BUDGET = 1_000_000


def _check_budget(m_max: int) -> None:
    """Refuse, before any work, m_max < 0 or hook factors over the budget."""
    if m_max < 0:
        raise ValueError(f"q-degree must be non-negative, got {m_max}")
    # Past m = isqrt(2 * budget) + 1, the sum's lower bound m(m+1)/2 is over.
    top = min(m_max, isqrt(2 * NO_IDENTITY_BUDGET) + 1)
    factors = sum(p * m for m, p in enumerate(eta_inverse_power_series(1, top)))
    if factors > NO_IDENTITY_BUDGET:
        raise ValueError(
            f"the hook-length check to q-degree {m_max} multiplies at least "
            f"{factors} hook factors, over the budget of {NO_IDENTITY_BUDGET}"
        )


def _scaled_partition_side(m: int) -> list[int]:
    """Integer coefficients of m!^2 * S_m(z), lowest z-degree first."""
    total = [0] * (m + 1)
    for lam in enumerate_partitions(m):
        poly, hook_product = [1], 1
        for row in hook_rows(lam):
            for h in row:
                hook_product *= h
                # times (h^2 - z)
                poly = [h * h * a - b for a, b in zip(poly + [0], [0] + poly)]
        weight = (factorial(m) // hook_product) ** 2
        total = [acc + weight * c for acc, c in zip(total, poly)]
    return total


def _scaled_product_sides(m_max: int) -> list[list[int]]:
    """Integer coefficients of g_m = m! * f_m(z) for every m <= m_max."""
    sigma = [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(m_max + 1)]
    g = [[1]]
    for m in range(1, m_max + 1):
        acc = [0] * m
        falling = 1  # (m-1)!/(m-k)!
        for k in range(1, m + 1):
            for i, c in enumerate(g[m - k]):
                acc[i] += sigma[k] * falling * c
            falling *= m - k
        g.append([a - b for a, b in zip(acc + [0], [0] + acc)])  # times (1 - z)
    return g


def partition_side(m: int) -> tuple[Fraction, ...]:
    """Coefficient of q^m on the hook-product side, as a polynomial in z.

    Sum over partitions of m of prod over hook lengths h of (1 - z/h^2),
    lowest z-degree first. Its constant term is p(m) and its z-degree is m.
    """
    from fractions import Fraction

    _check_budget(m)
    return tuple(Fraction(c, factorial(m) ** 2) for c in _scaled_partition_side(m))


def product_side(m: int) -> tuple[Fraction, ...]:
    """Coefficient of q^m in prod_{n=1}^{m} (1 - q^n)^(z-1), lowest z-degree first."""
    from fractions import Fraction

    _check_budget(m)
    return tuple(Fraction(c, factorial(m)) for c in _scaled_product_sides(m)[m])


def check_identity(m_max: int) -> tuple[tuple[int, int], ...]:
    """(q-degree, first bad z-degree) for each m <= m_max where the sides differ.

    Raises ValueError before any work when the partition side's hook factors,
    p(m) * m summed over m <= m_max, exceed NO_IDENTITY_BUDGET.
    """
    _check_budget(m_max)
    mismatches = []
    for m, g in enumerate(_scaled_product_sides(m_max)):
        pairs = zip((factorial(m) * c for c in g), _scaled_partition_side(m))
        bad = next((k for k, (lhs, rhs) in enumerate(pairs) if lhs != rhs), None)
        if bad is not None:
            mismatches.append((m, bad))
    return tuple(mismatches)

