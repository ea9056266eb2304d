"""Closed forms for c_t per n and as tables, their trial division, and their route.

closed_forms holds c2, a square test on 8n+1, and the divisor sums c3_divisor_sum
and c5_divisor_sum, products over the prime powers of 3n+1 and n+1, beside their
sieves. _route is the one choice of them or series.ct_count_series, read per n by
count_t_cores and as c_t(0..N) by core_counts (tables, sweeps, the witness budget).
"""

from __future__ import annotations

from math import isqrt, prod
from typing import Callable, Sequence

from . import series


# Largest n that _factor trial-divides, for is_prime(n), for 3n+1 in
# c3_divisor_sum and for n+1 in c5_divisor_sum. The worst case is a prime
# near 10^12, whose odd trial divisors run to its square root:
# is_prime(999_999_999_989), c3_divisor_sum(333_333_000_000) and
# c5_divisor_sum(999_999_999_988) took about 0.05 s each on a 2.1 GHz Xeon.
TRIAL_DIVISION_LIMIT = 10**12


def _factor(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n >= 1, p ascending.

    One trial-division pass, refused above TRIAL_DIVISION_LIMIT: 2 by bit
    count, then odd p up to the square root of the cofactor, left 1 or prime.
    """
    if n > TRIAL_DIVISION_LIMIT:
        raise ValueError(f"trial division of {n} is over the limit of {TRIAL_DIVISION_LIMIT}")
    twos = (n & -n).bit_length() - 1
    factors = [(2, twos)] if twos else []
    n >>= twos
    p, limit = 3, isqrt(n)
    while p <= limit:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            factors.append((p, e))
            limit = isqrt(n)
        p += 2
    return factors + [(n, 1)] if n > 1 else factors


def is_prime(n: int) -> bool:
    """Trial-division primality test; raises ValueError above TRIAL_DIVISION_LIMIT."""
    return n >= 2 and _factor(n) == [(n, 1)]


def c2(n: int) -> int:
    """Number of 2-cores of n: 1 iff 8n+1 is a perfect (odd) square, that is, iff
    n is triangular — the staircase is the only 2-core."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    m = 8 * n + 1
    return 1 if isqrt(m) ** 2 == m else 0


def c2_counts(n_max: int) -> list[int]:
    """[c2(n) for n in 0..n_max]: 1 at each triangular k(k+1)/2 <= n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    counts = [0] * (n_max + 1)
    for k in range((isqrt(8 * n_max + 1) + 1) // 2):
        counts[k * (k + 1) // 2] = 1
    return counts


def c3_divisor_sum(n: int) -> int:
    """Number of 3-cores of n: sum of (d/3) over divisors d of 3n+1.

    (d/3) is completely multiplicative and 3 never divides 3n+1, so the sum
    is the product over p^e || 3n+1 of 1 + (p/3) + ... + (p/3)^e: e + 1 for
    p = 1 mod 3, and for p = 2 mod 3, 1 if e is even and 0 if it is odd.
    Raises ValueError when 3n+1 is above sieves.TRIAL_DIVISION_LIMIT.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return prod(e + 1 if p % 3 == 1 else 1 - e % 2 for p, e in _factor(3 * n + 1))


def c3_divisor_sums(n_max: int) -> list[int]:
    """[c3_divisor_sum(n) for n in 0..n_max], by a sieve over the divisors.

    A divisor d of 3n+1 pairs with e = (3n+1)/d, and d*e = 1 mod 3 makes
    e = d mod 3, so both carry the same (d/3). Taking d <= e, the n with
    3n+1 = d*e for e = d, d+3, d+6, ... start at (d^2-1)/3 and step by d:
    each gains 2 (d/3), except the first, where e = d, which gains (d/3).
    Only d <= sqrt(3 n_max + 1) start a progression, O(n_max log n_max) in all.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    counts = [0] * (n_max + 1)
    for d in range(1, isqrt(3 * n_max + 1) + 1):
        if d % 3 == 0:
            continue
        sign = 1 if d % 3 == 1 else -1
        first = (d * d - 1) // 3
        counts[first] += sign
        counts[first + d :: d] = [c + 2 * sign for c in counts[first + d :: d]]
    return counts


# (d/5) by d mod 5
_LEGENDRE5 = (0, 1, -1, -1, 1)


def c5_divisor_sum(n: int) -> int:
    """Number of 5-cores of n: sum of (d/5) (n+1)/d over divisors d of n+1.

    This is Garvan, Kim and Stanton's closed form ("Cranks and t-cores",
    Invent. Math. 1990). The sum is multiplicative, and p^e || n+1 gives
    sum over i <= e of x^i p^(e-i) with x = (p/5): (p^(e+1) - x^(e+1)) / (p - x),
    which is 5^e at p = 5. Raises ValueError when n+1 is above
    sieves.TRIAL_DIVISION_LIMIT.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return prod(
        (p ** (e + 1) - _LEGENDRE5[p % 5] ** (e + 1)) // (p - _LEGENDRE5[p % 5])
        for p, e in _factor(n + 1)
    )


def c5_divisor_sums(n_max: int) -> list[int]:
    """[c5_divisor_sum(n) for n in 0..n_max], by a sieve over the divisors.

    Each factorization n+1 = d*e with d <= e adds (d/5) e + (e/5) d, counted
    once when e = d. For each d <= sqrt(n_max + 1), the n with n+1 = d*e for
    e = d, d+1, d+2, ... start at d^2 - 1 and step by d, O(n_max log n_max)
    in all.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    counts = [0] * (n_max + 1)
    for d in range(1, isqrt(n_max + 1) + 1):
        first, sign = d * d - 1, _LEGENDRE5[d % 5]
        counts[first] += sign * d
        by_e = [x * d for x in _LEGENDRE5]  # (e/5) d by e mod 5
        counts[first + d :: d] = [
            c + sign * e + by_e[e % 5] for e, c in enumerate(counts[first + d :: d], d + 1)
        ]
    return counts


def closed_forms() -> dict[int, tuple[Callable[[int], int], Callable[[int], list[int]]]]:
    """t -> (c_t(n) per n, the table c_t(0..n_max)) where t has a closed form, built
    at each call, so a wrapper that bench/trace_child.py binds over c2 or c3_divisor_sum runs."""
    return {2: (c2, c2_counts), 3: (c3_divisor_sum, c3_divisor_sums),
            5: (c5_divisor_sum, c5_divisor_sums)}


def _route(t: int) -> tuple[Callable[[int], int], Callable[[int], Sequence[int]]]:
    """(c_t(n) per n, the table c_t(0..n_max)): t's closed forms, else the c_t series,
    looked up at each call, as the forms are, so a traced run reads the wrapped one."""
    return closed_forms().get(t, (lambda n: series.ct_count_series(t, n)[n],
                                  lambda n_max: series.ct_count_series(t, n_max)))


def _check_n_t(n: int, t: int) -> None:
    # one refusal for every route that counts or lists the t-cores of n
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")


def count_t_cores(n: int, t: int) -> int:
    """c_t(n) by t's route, once n and then t are checked."""
    _check_n_t(n, t)
    return _route(t)[0](n)


def core_counts(t: int, n_max: int) -> Sequence[int]:
    """c_t(0..n_max) by t's route."""
    return _route(t)[1](n_max)
