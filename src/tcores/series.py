"""Truncated eta products with exact integer coefficients.

Every series here is a product of powers of E(q^s), where
E(q) = prod_{m>=1} (1 - q^m). By Euler's pentagonal number theorem

    E(q) = sum over k in Z of (-1)^k q^{k(3k-1)/2},

so up to q^N it has only O(sqrt(N)) nonzero terms, at the generalized
pentagonal numbers 1, 2, 5, 7, 12, 15, ... Multiplying or dividing a
coefficient table by E(q^s) is therefore one sparse recurrence pass over the
table, and a factor E(q^s)^e takes |e| such passes. A cube is as sparse:
by Jacobi's identity

    E(q)^3 = sum over k >= 0 of (-1)^k (2k + 1) q^{k(k+1)/2},

with terms at the triangular numbers 1, 3, 6, 10, ..., so a factor with
|e| = 3 takes one pass over those, weighted +-(2k + 1).

Otherwise, while the table is still 1, the first factor with |e| >= 2 takes one
pass of J. C. P. Miller's recurrence for a power of a power series (Knuth,
TAOCP Vol. 2, 4.7): with g = E(q) and h = g^e, g h' = e g' h gives

    n h_n = sum over k >= 1 of ((e + 1) k - n) g_k h_{n-k},

over the same pentagonal k, on N // s coefficients that then fill every s-th
slot. The division is exact. At e = -1 the plain pass is the cheaper one,
and a later factor no longer starts from 1, so both keep the plain pass.
A factor E(q^s) on the table 1 takes no pass: its terms are laid down. So
1/E(q)^2 = E(q) * 1/E(q)^3 takes one Jacobi pass, about sqrt(2n) terms per
coefficient, not Miller's 1.63 sqrt(n) terms and a division.
Everything is plain big-integer arithmetic, so no floating point and no
rounding anywhere. Computing to a larger truncation never changes lower
coefficients.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence


def _pentagonal_terms(truncation: int) -> list[tuple[int, int]]:
    """(g, coefficient of q^g in E(q)) for the pentagonal 1 <= g <= N, ascending.

    g = k(3k-1)/2 and k(3k+1)/2 carry (-1)^k, and g >= k^2 bounds k.
    """
    return [
        (g, (-1) ** k)
        for k in range(1, isqrt(truncation) + 1)
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
        if g <= truncation
    ]


def _jacobi_terms(truncation: int) -> list[tuple[int, int]]:
    """(g, coefficient of q^g in E(q)^3) for the triangular 1 <= g <= N, ascending."""
    top = (isqrt(8 * truncation + 1) - 1) // 2  # the largest k with k(k+1)/2 <= N
    return [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1)) for k in range(1, top + 1)]


def _eta_power(e: int, truncation: int) -> list[int]:
    """Coefficients of q^0..q^N of E(q)^e by Miller's recurrence, in one pass.

    Raises ArithmeticError if a division leaves a remainder, which exact
    arithmetic rules out.
    """
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


def sparse_product(
    factors: Sequence[tuple[int, int]], truncation: int
) -> tuple[int, ...]:
    """Coefficients of q^0..q^N of prod over (s, e) of E(q^s)^e.

    Each factor (s, e) stands for prod_{m>=1} (1 - q^{sm})^e; a negative e
    divides. Factors apply in the order given; the result does not depend on
    it, but the sizes of the intermediate coefficients do.
    """
    if truncation < 0:
        raise ValueError(f"truncation must be non-negative, got {truncation}")
    c = [1] + [0] * truncation
    untouched = True  # c is still the series 1
    for s, e in factors:
        if s < 1:
            raise ValueError(f"factor step s must be at least 1, got {s}")
        pentagonal = _pentagonal_terms(truncation // s)
        if not pentagonal or e == 0:
            continue  # s > N or e = 0: the factor is 1 up to q^N
        if untouched and e == 1:
            for g, sign in pentagonal:
                c[s * g] = sign
        elif untouched and abs(e) not in (1, 3):
            c[::s] = _eta_power(e, truncation // s)
        else:
            # Dividing moves the sparse series minus 1 across, flipping its
            # signs, and runs ascending so c[n - d] already holds the quotient;
            # multiplying runs descending so c[n - d] still holds the old value.
            cube = abs(e) == 3
            flip = 1 if e > 0 else -1
            sparse = _jacobi_terms(truncation // s) if cube else pentagonal
            terms = [(s * g, flip * weight) for g, weight in sparse]
            order = range(truncation, 0, -1) if e > 0 else range(1, truncation + 1)
            for _ in range(1 if cube else abs(e)):
                for n in order:
                    acc = c[n]
                    for d, weight in terms:
                        if d > n:
                            break
                        acc += weight * c[n - d]
                    c[n] = acc
        untouched = False
    return tuple(c)


def eta_inverse_power_series(t: int, truncation: int) -> tuple[int, ...]:
    """Coefficients of 1 / prod_{m>=1} (1 - q^m)^t up to q^N.

    The q^k coefficient counts t-tuples of partitions of total size k; at
    t = 1 this is the partition-count series p(0), p(1), ...
    """
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    return sparse_product([(1, 1), (1, -3)] if t == 2 else [(1, -t)], truncation)
