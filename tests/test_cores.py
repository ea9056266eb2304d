from math import isqrt, prod
from operator import add

import pytest

from tcores import cores, distribution, series, sieves
from tcores.abacus import _from_counts
from tcores.cores import (
    c3_qf_count,
    count_t_cores,
    count_t_cores_up_to,
    enumerate_t_cores,
    verify_core_formulas,
)
from tcores.partitions import count_t_hooks, enumerate_partitions
from tcores.series import ct_count_series, eta_inverse_power_series
from tcores.sieves import (
    c2,
    c2_counts,
    c3_divisor_sum,
    c3_divisor_sums,
    c5_divisor_sums,
    is_prime,
)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert [n for n in range(25) if is_prime(n)] == primes


def _sieve(n_max):
    prime = [False, False] + [True] * (n_max - 1)
    for p in range(2, isqrt(n_max) + 1):
        if prime[p]:
            prime[p * p :: p] = [False] * len(prime[p * p :: p])
    return prime


def test_factor_matches_brute_force():
    # distinct sieve primes, ascending, whose powers multiply to n: by unique
    # factorization, these are n's prime powers
    prime = _sieve(10**4)
    for n in range(1, 10**4 + 1):
        factors = sieves._factor(n)
        assert prod(p**e for p, e in factors) == n, n
        ps = [p for p, _ in factors]
        assert ps == sorted(set(ps)), n
        assert all(prime[p] and e >= 1 for p, e in factors), n


def test_is_prime_matches_sieve():
    prime = _sieve(10**4)
    for n in range(-3, 10**4 + 1):
        assert is_prime(n) == (n >= 0 and prime[n]), n


def test_legendre_matches_square_table():
    # the t = 2 hypothesis (v/p) = -1, by Euler's criterion, against a table
    # of the nonzero squares mod p
    for p in (3, 5, 7, 11, 13):
        b, m, holds, _ = distribution._theorem(2, p)
        assert (b, m) == (p, 8)
        squares = {x * x % p for x in range(1, p)}
        for a in range(-p, 2 * p):
            assert holds(a) == (a % p != 0 and a % p not in squares), (p, a)


def test_c2_examples():
    assert c2(0) == 1
    assert c2(6) == 1
    assert c2(4) == 0
    triangulars = {k * (k + 1) // 2 for k in range(40)}
    for n in range(500):
        assert c2(n) == (1 if n in triangulars else 0)


def test_c2_table_matches_closed_form_and_dp():
    for n_max in range(301):
        assert c2_counts(n_max) == [c2(n) for n in range(n_max + 1)] == count_t_cores_up_to(2, n_max)
    with pytest.raises(ValueError):
        c2_counts(-1)


def test_c3_divisor_sum_examples():
    assert c3_divisor_sum(1) == 1
    assert c3_divisor_sum(0) == 1
    assert c3_divisor_sum(2) == 2
    assert c3_divisor_sum(5) == 1  # 3n+1 = 16 = 2^4, a square
    assert c3_divisor_sum(3) == 0  # 3n+1 = 10 = 2 * 5
    # 3n+1 = 999,999,000,001 is a prime = 1 mod 3: the worst case of the
    # trial division, which runs to its square root
    assert is_prime(999_999_000_001) and 999_999_000_001 % 3 == 1
    assert c3_divisor_sum(333_333_000_000) == 2


def test_c3_divisor_sum_matches_sieve():
    assert [c3_divisor_sum(n) for n in range(10**4 + 1)] == c3_divisor_sums(10**4)


def test_c3_qf_count_examples():
    assert c3_qf_count(0) == 1
    assert c3_qf_count(1) == 1
    assert c3_qf_count(2) == 2


def _qf_solutions_by_value(n_max):
    # every (a, b) in a box twice the search box of n_max, keyed by a^2 - ab + b^2 + b
    top = 2 * isqrt(4 * n_max) + 9
    by_value = {}
    for b in range(top + 1):
        for a in range(top + 1):
            by_value.setdefault(a * a - a * b + b * b + b, []).append((a, b))
    return by_value


def test_c3_qf_count_box_is_stable():
    # enlarging the box of a direct count never finds a new solution
    by_value = _qf_solutions_by_value(400)
    for n in range(400):
        solutions = by_value.get(n, ())
        bound = isqrt(4 * (n + 1)) + 9
        assert all(a <= bound and b <= bound for a, b in solutions), n


def test_c3_qf_solutions_match_box_scan():
    # the count equals a scan over every (a, b) in a box larger than the
    # search box, and x = -a+2b+1, y = a+b+1 carries each scanned solution
    # to x^2 - xy + y^2 = 3n+1
    by_value = _qf_solutions_by_value(400)
    for n in range(400):
        solutions = by_value.get(n, [])
        assert c3_qf_count(n) == len(solutions), n
        for a, b in solutions:
            x, y = -a + 2 * b + 1, a + b + 1
            assert x * x - x * y + y * y == 3 * n + 1, (n, a, b)


def test_trial_division_limit():
    limit = sieves.TRIAL_DIVISION_LIMIT
    assert 3 * 333_333_333_333 + 1 == limit
    assert c3_divisor_sum(333_333_333_333) == 1  # 10^12 = 2^12 * 5^12
    assert not is_prime(limit)
    for call, number in (
        (lambda: c3_divisor_sum(333_333_333_334), limit + 3),
        (lambda: is_prime(limit + 1), limit + 1),
        (lambda: sieves._factor(limit + 1), limit + 1),
    ):
        message = f"trial division of {number} is over the limit of {limit}"
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_c3_routes_agree():
    for n in range(301):
        assert c3_divisor_sum(n) == c3_qf_count(n)


@pytest.mark.parametrize("n_max", [0, 1, 3000])
def test_c3_sieve_matches_divisor_sums(n_max):
    assert c3_divisor_sums(n_max) == [c3_divisor_sum(n) for n in range(n_max + 1)]
    with pytest.raises(ValueError):
        c3_divisor_sums(-1)


@pytest.mark.parametrize("n_max", [0, 1, 3000])
def test_c5_sieve_matches_series_and_runner_dp(n_max):
    sieve = c5_divisor_sums(n_max)
    assert tuple(sieve) == ct_count_series(5, n_max)
    assert sieve[:201] == count_t_cores_up_to(5, min(n_max, 200))
    with pytest.raises(ValueError):
        c5_divisor_sums(-1)


def test_c5_product_form_matches_sieve():
    assert [count_t_cores(n, 5) for n in range(3001)] == c5_divisor_sums(3000)


def test_c5_trial_division_limit():
    limit = sieves.TRIAL_DIVISION_LIMIT
    # n+1 = 10^12 = 2^12 * 5^12: the product form against the sum over its
    # divisors d of (d/5) (n+1)/d
    legendre = {0: 0, 1: 1, 2: -1, 3: -1, 4: 1}
    divisors = [2**i * 5**j for i in range(13) for j in range(13)]
    by_divisors = sum(legendre[d % 5] * (limit // d) for d in divisors)
    assert count_t_cores(limit - 1, 5) == by_divisors == 666_748_046_875
    with pytest.raises(ValueError) as exc:
        count_t_cores(limit, 5)
    assert str(exc.value) == f"trial division of {limit + 1} is over the limit of {limit}"


def test_ct_count_series_examples():
    assert ct_count_series(2, 6) == (1, 1, 0, 1, 0, 0, 1)
    assert ct_count_series(3, 2) == (1, 1, 2)
    assert ct_count_series(4, 0) == (1,)
    with pytest.raises(ValueError):
        ct_count_series(1, 5)


def test_series_matches_closed_forms():
    s2 = ct_count_series(2, 200)
    s3 = ct_count_series(3, 200)
    for n in range(201):
        assert s2[n] == c2(n)
        assert s3[n] == c3_divisor_sum(n)


def test_enumerate_t_cores_examples():
    assert enumerate_t_cores(6, 2) == [(3, 2, 1)]
    assert enumerate_t_cores(0, 4) == [()]
    assert enumerate_t_cores(2, 3) == [(2,), (1, 1)]


def test_enumerate_modes_agree():
    for t, n_max in ((2, 30), (3, 30), (4, 20), (5, 20), (20, 12), (14, 14)):
        for n in range(n_max + 1):
            fast = enumerate_t_cores(n, t)
            # brute force: every partition of n with no t-hook, in the same order
            oracle = [
                lam for lam in enumerate_partitions(n) if count_t_hooks(lam, t) == 0
            ]
            assert fast == oracle
            for core in fast:
                assert core.size == n
                assert count_t_hooks(core, t) == 0


def test_count_t_cores_up_to_matches_series():
    for t in (2, 3, 4, 5, 6, 7):
        assert tuple(count_t_cores_up_to(t, 80)) == ct_count_series(t, 80)
    # c_60(200) has 42 bits: a packed entry must hold more than 5 bytes
    assert tuple(count_t_cores_up_to(60, 200)) == ct_count_series(60, 200)


def _all_sizes_walk(t, max_size):
    """Yield (size, offsets) for every t-core of size <= max_size, once each.

    Runners t-1, ..., 1 are walked inside the size budget, each term of
    2 * size = sum_c [t x_c^2 + (2c - t + 1) x_c] being >= 0, and runner 0's
    offset is fixed by the zero sum; a vector over the budget is dropped. No
    root closes a runner, so this stays an oracle for the walk to size n.
    """
    target2 = 2 * max_size
    offsets = [0] * t
    # (runner, its remaining offsets, 2*size and offset sum of runners above)
    stack = [(t - 1, iter(cores._runner_span(t, t - 1, target2)), 0, 0)]
    while stack:
        c, xs, spent2, total = stack[-1]
        x = next(xs, None)
        if x is None:
            stack.pop()
            continue
        offsets[c] = x
        spent2 += t * x * x + (2 * c - t + 1) * x
        total += x
        if c > 1:
            span = cores._runner_span(t, c - 1, target2 - spent2)
            stack.append((c - 1, iter(span), spent2, total))
            continue
        size2 = spent2 + t * total * total + (t - 1) * total
        if size2 <= target2:
            offsets[0] = -total
            yield size2 // 2, tuple(offsets)


def _size(t, offsets):
    return sum(t * x * x + (2 * c - t + 1) * x for c, x in enumerate(offsets)) // 2


def _enumerated_counts(t, max_size):
    counts = [0] * (max_size + 1)
    for size, _ in _all_sizes_walk(t, max_size):
        counts[size] += 1
    return counts


@pytest.mark.parametrize(
    "t, max_size",
    [*((t, n) for t in range(2, 13) for n in (0, 1, 30)), (20, 12), (9, 8), (40, 25)],
)
def test_count_t_cores_up_to_matches_enumeration(t, max_size):
    # t > max_size covers runners that stay at offset 0 in every core
    dp = count_t_cores_up_to(t, max_size)
    assert dp == _enumerated_counts(t, max_size)
    assert tuple(dp) == ct_count_series(t, max_size)


def _list_row_dp(t, max_size):
    """The runner DP on plain lists: (counts, largest entry any row held).

    Same recursion as count_t_cores_up_to, one list of 2 * max_size + 1
    counts per offset sum, each offset a sliced copy and each merge an
    element-wise add.
    """
    length = 2 * max_size + 1
    # offset sum -> (index of its first nonzero entry, row)
    rows = {0: (0, [1] + [0] * (length - 1))}
    largest = 1
    for c, xs in cores._busy_runners(t, max_size):
        d = 2 * c - t + 1
        grown = {}
        for total, (low, row) in rows.items():
            for x in xs:
                shift = t * x * x + d * x
                start = low + shift
                if start >= length:
                    continue
                moved = row[low : length - shift]
                if total + x not in grown:
                    grown[total + x] = (start, [0] * start + moved)
                    continue
                first, acc = grown[total + x]
                acc[start:] = map(add, acc[start:], moved)
                grown[total + x] = (min(first, start), acc)
        rows = grown
        largest = max([largest, *(max(row) for _, row in rows.values())])
    counts = [0] * (max_size + 1)
    for total, (low, row) in rows.items():
        shift = t * total * total + (t - 1) * total  # runner 0 at x_0 = -total
        for size2 in range(shift + low, length, 2):
            counts[size2 // 2] += row[size2 - shift]
    return counts, max(largest, *counts)


@pytest.mark.parametrize(
    "t, max_size",
    [(2, 2000), (3, 2000), *((t, 200) for t in range(4, 13)),
     (20, 60), (30, 60), (40, 60), (60, 60)],
)
def test_packed_dp_matches_list_rows(t, max_size):
    # (40, 60) and (60, 60) pack entries 9 and 12 bytes wide
    counts, largest = _list_row_dp(t, max_size)
    assert count_t_cores_up_to(t, max_size) == counts
    # the packed width rests on this bound: no entry exceeds the number of
    # offset vectors of the busy runners
    assert largest <= prod(len(xs) for _, xs in cores._busy_runners(t, max_size))


def test_count_t_cores_up_to_rejects_bad_input():
    with pytest.raises(ValueError, match="non-negative"):
        count_t_cores_up_to(3, -1)
    with pytest.raises(ValueError, match="at least 2"):
        count_t_cores_up_to(1, 5)


def test_count_t_cores_witnesses():
    assert enumerate_t_cores(6, 2) == [(3, 2, 1)]
    assert count_t_cores(6, 2) == 1
    assert count_t_cores(2, 3) == 2
    assert count_t_cores(11, 5) == len(enumerate_t_cores(11, 5))
    # t >= 4 counts come from the series; the runner DP is the oracle
    for n, t in ((200, 7), (40, 4)):
        assert count_t_cores(n, t) == count_t_cores_up_to(t, n)[n]


def test_core_counts_match_the_runner_dp():
    # one route per t builds every table and every count_t_cores(n, t); the
    # runner DP stays their oracle, and the per-n closed forms meet their
    # sieves again near 10^5
    for t in range(2, 10):
        table = list(sieves.core_counts(t, 200))
        assert table == count_t_cores_up_to(t, 200), t
        assert [count_t_cores(n, t) for n in range(201)] == table, t
    window = range(99_800, 100_001)
    for t in (2, 3, 5):
        tail = sieves.core_counts(t, 100_000)[window.start :]
        assert [count_t_cores(n, t) for n in window] == tail, t


@pytest.mark.parametrize("t", [61, 100_001, 10**20])
def test_counts_for_t_above_n_are_the_partition_numbers(t):
    # no hook of a partition of n <= 60 reaches t > 60, so c_t(n) = p(n): the
    # series drops E(q^t)^t, and no closed form is taken
    p = eta_inverse_power_series(1, 60)
    assert p[60] == 966_467
    assert tuple(sieves.core_counts(t, 60)) == p
    assert [count_t_cores(n, t) for n in range(61)] == list(p)
    assert [count_t_cores(n, n + 1) for n in range(1, 61)] == list(p[1:])


@pytest.mark.parametrize("n, t", [(89_676, 2), (90_000, 3)])
def test_listing_at_t_2_3_builds_no_series(monkeypatch, n, t):
    # the walk's budget reads the closed-form tables, never the c_t series
    def no_series(*args):
        raise AssertionError("built the c_t series")

    monkeypatch.setattr(series, "ct_count_series", no_series)
    monkeypatch.setattr(series, "sparse_product", no_series)
    found = enumerate_t_cores(n, t)
    assert len(found) == count_t_cores(n, t) > 0
    assert all(sum(core) == n and count_t_hooks(core, t) == 0 for core in found)


def test_count_t_cores_checks_n_then_t_before_choosing_a_route():
    # one message whichever route (c2, c3, the c_t series or the listing) is taken
    for n, t, message in (
        *((-1, t, "n must be non-negative, got -1") for t in range(1, 8)),
        (5, 1, "t must be at least 2, got 1"),
    ):
        for route in (count_t_cores, enumerate_t_cores):
            with pytest.raises(ValueError) as info:
                route(n, t)
            assert str(info.value) == message
    # and each per-n form refuses a negative n itself
    for form in (sieves.c2, sieves.c3_divisor_sum, sieves.c5_divisor_sum, c3_qf_count):
        with pytest.raises(ValueError, match="^n must be non-negative, got -1$"):
            form(-1)


def test_verify_core_formulas_small():
    _, failures = verify_core_formulas(n_max=100, series_n_max=60, t_max=5)
    assert not failures, failures


def test_ct_count_series_skips_factors_beyond_truncation():
    # for t > N the factor E(q^t)^t is 1 up to q^N, so c_t(n) = p(n)
    assert ct_count_series(10**12, 5) == (1, 1, 2, 3, 5, 7)


def test_enumeration_budget(monkeypatch):
    # the budget counts offset entries: t times the t-cores of size <= n
    entries = 4 * sum(ct_count_series(4, 20))
    monkeypatch.setattr(cores, "CORE_ENUMERATION_BUDGET", entries)
    assert sum(1 for _ in _all_sizes_walk(4, 20)) * 4 == entries
    assert len(enumerate_t_cores(20, 4)) == ct_count_series(4, 20)[20]
    monkeypatch.setattr(cores, "CORE_ENUMERATION_BUDGET", entries - 1)
    with pytest.raises(ValueError, match="budget"):
        next(cores._runner_offset_vectors(4, 20))
    with pytest.raises(ValueError, match="budget"):
        enumerate_t_cores(20, 4)
    # the count no longer enumerates
    assert tuple(count_t_cores_up_to(4, 20)) == ct_count_series(4, 20)


def _decoded_runner_walk(n, t):
    # every offset vector of size n, decoded to its core, as a sorted list
    found = [
        _from_counts(offs, min(offs), []) for size, offs in _all_sizes_walk(t, n) if size == n
    ]
    return sorted(found, reverse=True)


@pytest.mark.parametrize("n", range(9))
def test_enumeration_for_t_above_n_matches_runner_walk(n):
    # for t > n every partition of n is a t-core, listed without runners
    for t in (n + 1, n + 2, 2 * n + 3, 40):
        if t >= 2:  # at n = 0, t = n + 1 is below every modulus
            assert enumerate_t_cores(n, t) == _decoded_runner_walk(n, t), t


@pytest.mark.parametrize("t", range(2, 10))
def test_enumeration_for_t_up_to_9_matches_runner_walk(t):
    # the walk to size n closes runners 1 and 0 by a root (at t = 2 it walks no
    # runner), where the oracle walks runner 1 through every size <= n. The
    # closing discriminant is 1 mod t, never zero, so no root is doubled
    for n in range(41):
        vectors = list(cores._runner_offset_vectors(t, n))
        assert all(_size(t, offs) == n for offs in vectors), n
        assert sorted(vectors) == sorted(o for size, o in _all_sizes_walk(t, n) if size == n), n
        assert enumerate_t_cores(n, t) == _decoded_runner_walk(n, t), n


def test_enumeration_budget_for_t_above_n(monkeypatch):
    # the shortcut for t > n is charged n p(n) listed parts, whatever t is
    entries = 10 * 42  # 10 p(10)
    monkeypatch.setattr(cores, "CORE_ENUMERATION_BUDGET", entries)
    assert enumerate_t_cores(10, 12) == list(enumerate_partitions(10))
    assert enumerate_t_cores(10, 10**9) == list(enumerate_partitions(10))
    assert enumerate_t_cores(0, 10**9) == [()]
    monkeypatch.setattr(cores, "CORE_ENUMERATION_BUDGET", entries - 1)
    with pytest.raises(ValueError, match="budget"):
        enumerate_t_cores(10, 12)


def test_listing_budget_edge_without_p_of_n(monkeypatch):
    # 53 p(53) = 17,486,343 fits the budget, 54 p(54) = 20,852,370 does not
    cores._check_listing_budget(53)
    with pytest.raises(ValueError, match="budget"):
        cores._check_listing_budget(54)
    sizes = []

    def recording(t, truncation):
        sizes.append(truncation)
        return eta_inverse_power_series(t, truncation)

    monkeypatch.setattr(series, "eta_inverse_power_series", recording)
    with pytest.raises(ValueError, match="budget"):
        enumerate_t_cores(100_000, 100_001)
    assert max(sizes) < 100  # p(k) only to the first k over the budget


def test_runner_walk_refused_without_full_series(monkeypatch):
    # t sum c_7(<= k) passes the budget by k = 511: refused before c_7(<= 100000)
    sizes = []

    def recording(t, truncation):
        sizes.append(truncation)
        return ct_count_series(t, truncation)

    monkeypatch.setattr(series, "ct_count_series", recording)
    with pytest.raises(ValueError, match="budget"):
        enumerate_t_cores(100_000, 7)
    assert max(sizes) < 1000


def test_count_budget_boundary(monkeypatch):
    entries = cores._dp_row_entries(5, 40)
    monkeypatch.setattr(cores, "CORE_COUNT_BUDGET", entries)
    assert tuple(count_t_cores_up_to(5, 40)) == ct_count_series(5, 40)
    monkeypatch.setattr(cores, "CORE_COUNT_BUDGET", entries - 1)
    with pytest.raises(ValueError, match="budget"):
        count_t_cores_up_to(5, 40)


def test_series_budget_boundary(monkeypatch):
    # cores-count --n 200 --t 7 fits
    assert series._product_updates([(7, 7), (1, -1)], 200) <= series.SERIES_UPDATE_BUDGET
    updates = series._product_updates([(5, 5), (1, -1)], 40)
    monkeypatch.setattr(series, "SERIES_UPDATE_BUDGET", updates)
    assert ct_count_series(5, 40) == tuple(count_t_cores_up_to(5, 40))
    monkeypatch.setattr(series, "SERIES_UPDATE_BUDGET", updates - 1)
    calls = []
    for name in ("_pentagonal_terms", "_jacobi_terms", "_eta_power", "_multiply"):
        monkeypatch.setattr(series, name, lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="budget"):
        ct_count_series(5, 40)
    # the count at t = 5 reads its closed form; t = 7 still reads the series
    assert count_t_cores(40, 5) == count_t_cores_up_to(5, 40)[40]
    updates = series._product_updates([(7, 7), (1, -1)], 40)
    monkeypatch.setattr(series, "SERIES_UPDATE_BUDGET", updates - 1)
    with pytest.raises(ValueError, match="budget"):
        count_t_cores(40, 7)
    assert calls == []


def test_verify_core_formulas_budget_sums_every_call(monkeypatch):
    total = sum(
        cores._dp_row_entries(t, n)
        for t, n in ((2, 30), (3, 30), (2, 20), (3, 20), (4, 20))
    )
    monkeypatch.setattr(cores, "CORE_COUNT_BUDGET", total)
    assert verify_core_formulas(n_max=30, series_n_max=20, t_max=4)[1] == ()
    monkeypatch.setattr(cores, "CORE_COUNT_BUDGET", total - 1)
    calls = []
    monkeypatch.setattr(cores, "count_t_cores_up_to", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="budget"):
        verify_core_formulas(n_max=30, series_n_max=20, t_max=4)
    assert calls == []

