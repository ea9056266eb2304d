"""Truncated eta products with exact integer coefficients.

Every series here is a product of powers of E(q^s), where
E(q) = prod_{m>=1} (1 - q^m). By Euler's pentagonal number theorem

    E(q) = sum over k in Z of (-1)^k q^{k(3k-1)/2},

so up to q^N it has O(sqrt(N)) nonzero terms, at the generalized pentagonal
numbers 1, 2, 5, 7, 12, ..., and by Jacobi's identity so does its cube:

    E(q)^3 = sum over k >= 0 of (-1)^k (2k + 1) q^{k(k+1)/2}.

Multiplying or dividing a table by E(q^s)^e is therefore |e| sparse passes
over it, or one over the triangular numbers at |e| = 3. The first factor
meets the table 1, so it is E(q)^e on N // s coefficients, spread to every
s-th slot: E(q) is laid down with no pass, 1/E(q) and a cube take their one
pass, and any other power one pass of J. C. P. Miller's recurrence (Knuth,
TAOCP Vol. 2, 4.7): with g = E(q) and h = g^e, g h' = e g' h gives

    n h_n = sum over k >= 1 of ((e + 1) k - n) g_k h_{n-k},

over the same pentagonal k, with exact division. So 1/E(q)^2 =
E(q) * 1/E(q)^3 takes one Jacobi pass, about sqrt(2n) terms a coefficient,
not Miller's 1.63 sqrt(n) and a division. Costs are known before the first
pass, arithmetic is exact, and a larger N never changes lower coefficients.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence


# Most coefficient updates, as _product_updates bounds them, that one
# sparse_product call may make: the c_5 series to N = 100,000 made 3.7e7 in
# 3.6 s on a 2.1 GHz Xeon, 52 to 76 ns each, so a call takes at most about 5 s.
SERIES_UPDATE_BUDGET = 80_000_000


def _pentagonal_terms(truncation: int) -> list[tuple[int, int]]:
    """(g, coefficient of q^g in E(q)) for the pentagonal 1 <= g <= N, ascending:
    g = k(3k-1)/2 and k(3k+1)/2 carry (-1)^k, and g >= k^2 bounds k."""
    return [(g, (-1) ** k) for k in range(1, isqrt(truncation) + 1)
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if g <= truncation]


def _jacobi_terms(truncation: int) -> list[tuple[int, int]]:
    """(g, coefficient of q^g in E(q)^3) for the triangular 1 <= g <= N, ascending."""
    top = (isqrt(8 * truncation + 1) - 1) // 2  # the largest k with k(k+1)/2 <= N
    return [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1)) for k in range(1, top + 1)]


def _eta_power(e: int, truncation: int) -> list[int]:
    """Coefficients of q^0..q^N of E(q)^e by Miller's recurrence, in one pass;
    ArithmeticError if a division leaves a remainder, which exact arithmetic rules out."""
    terms = [(g, (e + 1) * g, sign > 0) for g, sign in _pentagonal_terms(truncation)]
    h = [1]
    for n in range(1, truncation + 1):
        acc = 0  # n * h_n
        for g, weight, plus in terms:
            if g > n:
                break
            if plus:
                acc += (weight - n) * h[n - g]
            else:
                acc -= (weight - n) * h[n - g]
        coeff, rest = divmod(acc, n)
        if rest:
            raise ArithmeticError(f"E(q)^{e}: n * h_n is not a multiple of n={n}")
        h.append(coeff)
    return h


def _multiply(c: list[int], s: int, e: int) -> None:
    """Multiply the table c in place by E(q^s)^e: |e| plain passes, or one
    over Jacobi's terms at |e| = 3."""
    # Dividing moves the sparse series minus 1 across, flipping its signs,
    # and runs ascending so c[n - d] already holds the quotient; multiplying
    # runs descending so c[n - d] still holds the old value.
    top = len(c) - 1
    cube = abs(e) == 3
    sparse = _jacobi_terms(top // s) if cube else _pentagonal_terms(top // s)
    terms = [(s * g, weight if e > 0 else -weight) for g, weight in sparse]
    order = range(top, 0, -1) if e > 0 else range(1, top + 1)
    for _ in range(1 if cube else abs(e)):
        for n in order:
            acc = c[n]
            for d, weight in terms:
                if d > n:
                    break
                acc += weight * c[n - d]
            c[n] = acc


def _live_factors(factors: Sequence[tuple[int, int]], truncation: int) -> list[tuple[int, int]]:
    """The factors (s, e) that are not 1 up to q^N, in order, once every
    factor is checked: ValueError on a negative N or a step s below 1."""
    if truncation < 0:
        raise ValueError(f"truncation must be non-negative, got {truncation}")
    for s, _ in factors:
        if s < 1:
            raise ValueError(f"factor step s must be at least 1, got {s}")
    return [(s, e) for s, e in factors if e and s <= truncation]


def _product_updates(factors: Sequence[tuple[int, int]], truncation: int) -> int:
    """Upper bound on sparse_product(factors, N)'s coefficient updates: a pass
    of E(q^s) over L coefficients takes at most 2 isqrt(L // s) terms at each;
    the first live factor runs E(q) over L = N // s, none when laid down, and
    each later one |e| passes over N, one at |e| = 3."""
    live = _live_factors(factors, truncation)
    updates = sum((1 if abs(e) == 3 else abs(e)) * 2 * truncation * isqrt(truncation // s)
                  for s, e in live[1:])
    if live and live[0][1] != 1:
        length = truncation // live[0][0]
        updates += 2 * length * isqrt(length)
    return updates


def sparse_product(factors: Sequence[tuple[int, int]], truncation: int) -> tuple[int, ...]:
    """Coefficients of q^0..q^N of prod over (s, e) of E(q^s)^e.

    Each factor (s, e) stands for prod_{m>=1} (1 - q^{sm})^e; a negative e
    divides. Factors apply in the order given; the result does not depend on
    it, but the cost and the sizes of the intermediate coefficients do.
    Raises ValueError before any pass on bad input (see _live_factors) or
    when _product_updates exceeds SERIES_UPDATE_BUDGET.
    """
    live = _live_factors(list(factors), truncation)
    if (updates := _product_updates(live, truncation)) > SERIES_UPDATE_BUDGET:
        raise ValueError(
            f"the eta product {live} to q^{truncation} makes up to {updates} "
            f"coefficient updates, over the budget of {SERIES_UPDATE_BUDGET}"
        )
    c = [1] + [0] * truncation
    if live:
        s, e = live[0]
        length = truncation // s
        head = [1] + [0] * length
        if e == 1:
            for g, sign in _pentagonal_terms(length):
                head[g] = sign
        elif abs(e) in (1, 3):
            _multiply(head, 1, e)
        else:
            head = _eta_power(e, length)
        c[::s] = head
    for s, e in live[1:]:
        _multiply(c, s, e)
    return tuple(c)


def eta_inverse_power_series(t: int, truncation: int) -> tuple[int, ...]:
    """Coefficients of 1 / prod_{m>=1} (1 - q^m)^t up to q^N.

    The q^k coefficient counts t-tuples of partitions of total size k; at
    t = 1 this is the partition-count series p(0), p(1), ...
    """
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    return sparse_product([(1, 1), (1, -3)] if t == 2 else [(1, -t)], truncation)


def ct_count_series(t: int, truncation: int) -> tuple[int, ...]:
    """c_t(0..N), the numbers of t-cores, via prod (1-q^{tm})^t / (1-q^m).

    Multiplying first keeps every intermediate coefficient small: E(q^t)^t
    and the quotient c_t grow polynomially, while 1/E(q) grows like p(n).
    """
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    return sparse_product([(t, t), (1, -1)], truncation)
