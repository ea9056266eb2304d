"""Listing t-cores, and the routes that cross-check the closed forms.

enumerate_t_cores lists the t-cores of n for witnesses, closing runners 1 and 0
by one root, up to the size limit the series cost model sets at every t.
verify_core_formulas checks the closed forms and the c_t series against a
quadratic-form count equal to c_3 and the runner theta-sum DP for every t.
Counting alone is sieves.count_t_cores, so `cores-count` runs this module only
for --witnesses.
"""

from __future__ import annotations

from itertools import chain
from math import isqrt, prod
from typing import Callable, Iterable, Iterator

from . import abacus, partitions, series, sieves
# spans that bench/trace_child.py looks up here, by the module that defines each
_SPANS = {"c2": sieves, "c3_divisor_sum": sieves, "count_t_cores": sieves,
          "ct_count_series": series}


def __getattr__(name: str):
    if name in _SPANS:
        return getattr(_SPANS[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def c3_qf_count(n: int) -> int:
    """Number of (a, b) in Z>=0 x Z>=0 with a^2 - a*b + b^2 + b = n.

    The change of variables x = -a + 2b + 1, y = a + b + 1 turns each into
    3n + 1 = x^2 - x*y + y^2, the norm form of discriminant -3.

    For fixed b, a solves a^2 - b*a + (b^2 + b - n) = 0, whose discriminant
    D = 4n - 3b^2 - 4b falls as b grows; one isqrt per b replaces a scan over
    a. D is b^2 mod 4, so a square root r of D has the parity of b: the root
    a = (b + r)/2 always counts, and a = (b - r)/2 also counts when 0 < r <= b.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    count, b = 0, 0
    while (disc := 4 * n - 3 * b * b - 4 * b) >= 0:
        root = isqrt(disc)
        if root * root == disc:
            count += 2 if 0 < root <= b else 1
        b += 1
    return count


def _runner_span(t: int, c: int, budget2: int) -> range:
    """Offsets x of runner c whose term t x^2 + (2c - t + 1) x is <= budget2."""
    # t x^2 + d x <= budget2  <=>  |2t x + d| <= sqrt(d^2 + 4t budget2)
    d = 2 * c - t + 1
    root = isqrt(d * d + 4 * t * budget2)
    return range(-((root + d) // (2 * t)), (root - d) // (2 * t) + 1)


# Most entries that one enumeration may write: t offsets per t-core of size
# <= n, as a walk over every size <= n wrote (the walk to size n visits a
# subset of its prefixes), or for t > n up to n p(n) parts. Either caps a call
# near 5 s on a 2.1 GHz Xeon: t = 16, n = 60 took 4.9 s at the edge (0.24 us
# an offset), and n = 53, the largest t > n listed, 3.3 s with the output.
CORE_ENUMERATION_BUDGET = 20_000_000


def _first_over_budget(n: int, charge: Callable[[int], int]) -> tuple[int, int] | None:
    """(k, charge(k)) at the first k of 0, 1, 3, 7, ... capped at n whose
    charge exceeds CORE_ENUMERATION_BUDGET, or None when charge(n) fits.

    For a charge that grows with k this refuses exactly when charge(n) would,
    and a large n is refused without computing charge(n).
    """
    k = 0
    while (cost := charge(k)) <= CORE_ENUMERATION_BUDGET:
        if k == n:
            return None
        k = min(2 * k + 1, n)
    return k, cost


def _check_listing_budget(n: int) -> None:
    """Refuse to list the partitions of n, up to n p(n) parts, over the budget."""
    if over := _first_over_budget(n, lambda k: k * series.eta_inverse_power_series(1, k)[k]):
        k, parts = over
        raise ValueError(f"listing the partitions of {n} writes up to n*p(n) parts "
                         f"({parts} at k={k}), over the budget of {CORE_ENUMERATION_BUDGET}")


def _runner_offset_vectors(t: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield the runner offsets of every t-core of n, once each.

    A t-core padded to a multiple-of-t bead count has per-runner bead counts
    b_c; the offsets x_c = b_c - s/t sum to zero, do not depend on the
    padding, and determine the core. Its size is sum_c [(t/2) x_c^2 + c x_c],
    and since sum_c x_c = 0 the linear term can be centred:

        2 * size = sum_c [t x_c^2 + (2c - t + 1) x_c].

    As |2c - t + 1| < t, every term is >= 0 at integer x_c, so the budget
    left after runners t-1, ..., c+1 alone bounds x_c. An explicit stack
    walks runners t-1 down to 2. With S their offset sum, x_1 and x_0 =
    -S - x_1 must add 2t x_1^2 + (2tS + 2) x_1 + tS^2 + (t - 1) S, the 2n
    the walk left; its roots sum to -S - 1/t, so one isqrt finds the one
    integer x_1 or none. Raises ValueError before yielding anything when t
    times the number of t-cores of size <= n exceeds CORE_ENUMERATION_BUDGET,
    reading sieves.core_counts only up to the first probed size over it, or
    when n is over the listing's size limit (checked first, with no work),
    the c_t series' cost model over series.SERIES_UPDATE_BUDGET at every t.
    """
    updates = series._product_updates([(t, t), (1, -1)], n)
    if updates > series.SERIES_UPDATE_BUDGET:
        raise ValueError(f"listing the {t}-cores of sizes <= {n} is over the size "
                         f"limit set by the series cost model ({updates} coefficient "
                         f"updates, over the budget of {series.SERIES_UPDATE_BUDGET})")
    if over := _first_over_budget(n, lambda k: t * sum(sieves.core_counts(t, k))):
        k, entries = over
        raise ValueError(f"enumerating the {t}-cores of sizes <= {n} writes at least "
                         f"{entries} offsets (sizes <= {k}), over the budget of "
                         f"{CORE_ENUMERATION_BUDGET}")

    def entry(c: int, left2: int, total: int) -> tuple:
        # (c, runner c's offsets, left2: 2n less the runners above's share, their
        # offset sum S); runner 1's are the roots (-(tS + 1) +- r) / 2t, r^2 = disc
        if c > 1:
            return c, iter(_runner_span(t, c, left2)), left2, total
        disc = 1 + 2 * t * (left2 + 2 * total) - t * t * total * (total + 2)
        r = isqrt(max(disc, 0))
        roots = (r - t * total - 1, -r - t * total - 1) if r * r == disc else ()
        return c, (x // (2 * t) for x in roots if x % (2 * t) == 0), left2, total

    offsets = [0] * t
    stack = [entry(t - 1, 2 * n, 0)]
    while stack:
        c, xs, left2, total = stack[-1]
        if (x := next(xs, None)) is None:
            stack.pop()
        elif c == 1:
            yield (-total - x, x, *offsets[2:])
        else:
            offsets[c] = x
            stack.append(entry(c - 1, left2 - t * x * x - (2 * c - t + 1) * x, total + x))


def _busy_runners(t: int, max_size: int) -> Iterator[tuple[int, range]]:
    """(c, offsets) for the runners c = t-1, ..., 1 that admit a nonzero offset.

    Offset +1 alone costs 2c + 1 of 2 * size and -1 costs 2(t - c) - 1, so
    runner c holds offset 0 in every core of size <= max_size unless
    c < max_size or c >= t - max_size.
    """
    top = range(t - 1, max(t - max_size, max_size) - 1, -1)
    for c in chain(top, range(min(max_size, t) - 1, 0, -1)):
        yield c, _runner_span(t, c, 2 * max_size)


# Most row entries that the runner DP may add, in one count_t_cores_up_to
# call or summed over every call of one verify_core_formulas. An entry took
# about 1 ns at t <= 3 on a 2.0 GHz Xeon, 2.6 ns at t = 7 and up to 6 ns at
# large t, whose wide entries hold big counts: the budget caps either near 1 s.
CORE_COUNT_BUDGET = 150_000_000
# A call's fixed overhead in row entries: about 5 us at max_size = 0.
_CALL_ENTRIES = 200


def _dp_row_entries(t: int, max_size: int) -> int:
    """Upper bound on the row entries count_t_cores_up_to(t, max_size) adds.

    Before each runner the offset sums fill an interval of `width` values,
    one row of 2 * max_size + 1 entries each, and each row takes each of the
    runner's offsets; closing with runner 0 reads every row once more.
    """
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    if max_size < 0:
        raise ValueError(f"max_size must be non-negative, got {max_size}")
    length = 2 * max_size + 1
    width = 1
    entries = _CALL_ENTRIES
    for _, xs in _busy_runners(t, max_size):
        entries += width * len(xs) * length
        width += len(xs) - 1
    return entries + width * length


def _check_count_budget(calls: Iterable[tuple[int, int]]) -> None:
    """Raise ValueError when the DP calls (t, max_size) exceed CORE_COUNT_BUDGET."""
    entries = 0
    for t, max_size in calls:
        entries += _dp_row_entries(t, max_size)
        if entries > CORE_COUNT_BUDGET:
            raise ValueError(
                f"the runner DP would add over {entries} row entries (reached at "
                f"t={t}, sizes <= {max_size}); the budget is {CORE_COUNT_BUDGET}"
            )


def count_t_cores_up_to(t: int, max_size: int) -> list[int]:
    """c_t(0), ..., c_t(max_size) by the runner theta-sum DP.

    A t-core is its vector of runner offsets x_c, which sum to zero, with
    2 * size = sum_c [t x_c^2 + (2c - t + 1) x_c] and every term >= 0 (see
    _runner_offset_vectors; Garvan, Kim and Stanton's theta-sum form). The DP
    adds runners t-1, ..., 1 to a table of counts by (offset sum S, 2 * size
    so far), held as one row per S, and runner 0 closes each row at x_0 = -S.
    A row packs its 2 * max_size + 1 counts into one int, w bits apiece: no
    count exceeds the product of the runners' offset counts, whose bit length
    rounded up to whole bytes is w. An offset is one shift, a merge one add.
    Raises ValueError before any work when _dp_row_entries exceeds
    CORE_COUNT_BUDGET.
    """
    _check_count_budget([(t, max_size)])
    length = 2 * max_size + 1
    busy = list(_busy_runners(t, max_size))
    nbytes = (prod(len(xs) for _, xs in busy).bit_length() + 7) // 8
    w = 8 * nbytes
    mask = (1 << w * length) - 1
    rows = {0: 1}  # offset sum -> packed row
    for c, xs in busy:
        d = 2 * c - t + 1
        grown: dict[int, int] = {}
        for total, row in rows.items():
            for x in xs:
                if moved := (row << w * (t * x * x + d * x)) & mask:
                    grown[total + x] = grown.get(total + x, 0) + moved
        rows = grown
    # runner 0 closes row S at x_0 = -S, which adds t S^2 + (t - 1) S to 2 * size
    shifts = {total: t * total * total + (t - 1) * total for total in rows}
    closed = sum(rows[s] << w * shift for s, shift in shifts.items() if shift < length)
    # a core's 2 * size is even: its count sits at an even entry
    data = (closed & mask).to_bytes(nbytes * length, "little")
    evens = range(0, len(data), 2 * nbytes)
    return [int.from_bytes(data[i : i + nbytes], "little") for i in evens]


def enumerate_t_cores(n: int, t: int) -> list[partitions.Partition]:
    """All t-core partitions of n, in reverse-lexicographic order.

    Each offset vector of _runner_offset_vectors decodes to one core. For
    t > n no hook reaches length t, so every partition of n is a t-core and
    no runner is walked; the budget is charged n p(n) listed parts instead.
    """
    sieves._check_n_t(n, t)
    if t > n:
        _check_listing_budget(n)
        return list(partitions.enumerate_partitions(n))
    cores = [abacus._from_counts(xs, min(xs), []) for xs in _runner_offset_vectors(t, n)]
    return sorted(cores, reverse=True)


def verify_core_formulas(
    n_max: int = 500, series_n_max: int = 200, t_max: int = 7
) -> tuple[int, tuple[str, ...]]:
    """Check every counting route against the others; return (checks, failures).

    For n <= n_max: the t=3 divisor sum, its sieve, the quadratic-form count
    and the runner theta-sum DP must agree, and the t=2 closed form must match the
    DP. For n <= series_n_max and 2 <= t <= t_max: the generating-function
    coefficients must match the DP. Raises ValueError before any work when
    the DP's row-entry estimates, summed over every call, exceed
    CORE_COUNT_BUDGET, when n_max or series_n_max is negative, or when t_max
    is below 2, which would check no series.
    """
    for name, value in (("n_max", n_max), ("series_n_max", series_n_max)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if t_max < 2:
        raise ValueError(f"t_max must be at least 2, got {t_max}")
    _check_count_budget(
        chain(
            ((2, n_max), (3, n_max)),
            ((t, series_n_max) for t in range(2, t_max + 1)),
        )
    )
    failures: list[str] = []
    checked = 0
    by_dp2 = count_t_cores_up_to(2, n_max)
    by_dp3 = count_t_cores_up_to(3, n_max)
    by_sieve = sieves.c3_divisor_sums(n_max)
    for n in range(n_max + 1):
        ds = sieves.c3_divisor_sum(n)
        qf = c3_qf_count(n)
        if not ds == by_sieve[n] == qf == by_dp3[n]:
            failures.append(
                f"c_3({n}): divisor sum {ds}, sieve {by_sieve[n]}, "
                f"quadratic form {qf}, runner DP {by_dp3[n]}"
            )
        if (closed := sieves.c2(n)) != by_dp2[n]:
            failures.append(f"c_2({n}): closed form {closed}, runner DP {by_dp2[n]}")
        checked += 2
    for t in range(2, t_max + 1):
        from_series = series.ct_count_series(t, series_n_max)
        from_dp = tuple(count_t_cores_up_to(t, series_n_max))
        if from_series != from_dp:
            first = next(
                i for i, (a, b) in enumerate(zip(from_series, from_dp)) if a != b
            )
            failures.append(
                f"c_{t}: series and runner DP differ first at n={first}"
            )
        checked += series_n_max + 1
    return checked, tuple(failures)
