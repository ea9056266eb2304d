"""Truncated eta products with exact integer coefficients.

Every series here is a product of powers of E(q^s), where
E(q) = prod_{m>=1} (1 - q^m). By Euler's pentagonal number theorem

    E(q) = sum over k in Z of (-1)^k q^{k(3k-1)/2},

so up to q^N it has only O(sqrt(N)) nonzero terms, at the generalized
pentagonal numbers 1, 2, 5, 7, 12, 15, ... Multiplying or dividing a
coefficient table by E(q^s) is therefore one sparse recurrence pass over the
table. Everything is plain big-integer arithmetic, so no floating point and
no rounding anywhere. Computing to a larger truncation never changes lower
coefficients.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence


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
    for s, e in factors:
        if s < 1:
            raise ValueError(f"factor step s must be at least 1, got {s}")
        # E(q^s) = 1 + sum of (-1)^k q^{s*g} over g = k(3k-1)/2, k(3k+1)/2;
        # g >= k^2 bounds k. Dividing moves that sum across, flipping its
        # signs, and runs ascending so c[n - d] already holds the quotient;
        # multiplying runs descending so c[n - d] still holds the old value.
        flip = 1 if e > 0 else -1
        terms = [
            (s * g, flip * (-1) ** k)
            for k in range(1, isqrt(truncation // s) + 1)
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
            if s * g <= truncation
        ]
        if not terms:
            continue  # s > N: the factor is 1 up to q^N
        order = range(truncation, 0, -1) if e > 0 else range(1, truncation + 1)
        for _ in range(abs(e)):
            for n in order:
                acc = c[n]
                for d, sign in terms:
                    if d > n:
                        break
                    acc += sign * c[n - d]
                c[n] = acc
    return tuple(c)


def eta_inverse_power_series(t: int, truncation: int) -> tuple[int, ...]:
    """Coefficients of 1 / prod_{m>=1} (1 - q^m)^t up to q^N.

    The q^k coefficient counts t-tuples of partitions of total size k; at
    t = 1 this is the partition-count series p(0), p(1), ...
    """
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    return sparse_product([(1, -t)], truncation)
