import random
from operator import add

import pytest
from hypothesis import given, strategies as st

from tcores.abacus import (
    MAX_RUNNERS,
    CoreQuotient,
    _counts,
    _from_counts,
    _rows,
    _surplus,
    compose,
    decompose,
    t_core,
)
from tcores.cores import enumerate_t_cores
from tcores.partitions import Partition, count_t_hooks, enumerate_partitions, hook_rows


# Beta-set oracle, independent of the runner code: lam padded to s parts is
# the set B of its structure numbers lam_i - i + s.
def beta_set(lam, s):
    return {p - i + s for i, p in enumerate([*lam, *[0] * (s - len(lam))], 1)}


def bead_count(num_parts, t):
    # the abacus module's padding: the least multiple of t that is >= num_parts
    return -(-num_parts // t) * t


def beta_decode(beta):
    # the j-th smallest b gives the part b - j
    parts = [b - j for j, b in enumerate(sorted(beta))]
    return Partition(sorted(filter(None, parts), reverse=True))


def beta_slides(beta, t):
    # b -> b - t onto a free position removes one rim t-hook (James)
    return [b for b in beta if b >= t and b - t not in beta]


def beta_core(beta, t):
    # compact each residue class c mod t down to c, c + t, ...
    return {c + t * k for c in range(t) for k in range(sum(b % t == c for b in beta))}


def beta_quotient(beta, t):
    return tuple(beta_decode({b // t for b in beta if b % t == c}) for c in range(t))


def beta_compose(core, quotient, t):
    # pad the core's beta set, t beads at a time to keep the labelling, until
    # runner c holds as many beads as quotient[c] has parts, then put
    # quotient[c]'s beta set on runner c
    s = bead_count(len(core), t)
    while True:
        beta = beta_set(core, s)
        counts = [sum(b % t == c for b in beta) for c in range(t)]
        if all(a >= len(comp) for a, comp in zip(counts, quotient)):
            break
        s += t
    return beta_decode(
        {t * b + c for c, comp in enumerate(quotient) for b in beta_set(comp, counts[c])}
    )


def _partition_of(parts):
    return Partition(sorted(parts, reverse=True))


# Long (many parts <= 3) and wide (at most 4 parts) partitions of size <= 120.
long_or_wide = st.one_of(
    st.lists(st.integers(1, 3), max_size=40), st.lists(st.integers(1, 30), max_size=4)
).map(_partition_of)


def structure_numbers(lam: Partition, pad_to: int | None = None) -> tuple[int, ...]:
    """B_i = lam_i - i + s for i = 1..s, with s parts after zero-padding.

    With the default s = #parts, B_i is the hook length of cell (i, 1).
    Padding by one extra zero part shifts every entry up by one and appends 0.
    """
    s = len(lam) if pad_to is None else pad_to
    if s < len(lam):
        raise ValueError(f"pad_to={s} is below the number of parts {len(lam)}")
    return (*map(add, lam, range(s - 1, -1, -1)), *range(s - len(lam) - 1, -1, -1))


def test_structure_numbers_examples():
    assert structure_numbers(Partition((5, 3, 2, 1))) == (8, 5, 3, 1)
    assert structure_numbers(Partition()) == ()
    assert structure_numbers(Partition((5, 3, 2, 1)), pad_to=6) == (10, 7, 5, 3, 1, 0)


def test_structure_numbers_padding_shift():
    lam = Partition((4, 4, 1))
    base = structure_numbers(lam)
    padded = structure_numbers(lam, pad_to=len(lam) + 1)
    assert padded == tuple(b + 1 for b in base) + (0,)
    with pytest.raises(ValueError):
        structure_numbers(lam, pad_to=2)


def test_abacus_from_partition_examples():
    lam = Partition((5, 3, 2, 1))
    assert beta_set(lam, 4) == {8, 5, 3, 1} == set(structure_numbers(lam))
    assert beta_set(Partition(), 2) == {1, 0}
    # (2,) padded to 3 parts has structure numbers 4, 1, 0
    assert beta_set(Partition((2,)), 3) == {4, 1, 0}
    assert _rows(Partition((2,)), 3) == [[0], [1, 0], []]


def test_default_bead_count_is_least_multiple_of_t():
    assert sum(_counts(Partition(), 3)) == 0
    assert sum(_counts(Partition((1, 1, 1, 1)), 3)) == 6
    assert sum(_counts(Partition((3, 2, 2, 1, 1, 1)), 3)) == 6
    for n in range(9):
        for lam in enumerate_partitions(n):
            for t in (2, 3, 4, 7):
                s = sum(_counts(lam, t))
                assert s % t == 0 and s - t < len(lam) <= s, (lam, t)


def test_partition_from_abacus_examples():
    assert beta_decode({8, 5, 3, 1}) == (5, 3, 2, 1)
    assert beta_decode({2, 1, 0}) == beta_decode(set()) == ()
    assert beta_decode({0, 1, 2, 5}) == (2,)
    # runner counts (0, 1, 2) on 3 runners: structure numbers 1, 2, 5
    assert _from_counts((0, 1, 2), 0, []) == beta_decode({1, 2, 5}) == (3, 1, 1)


def test_abacus_round_trip_any_padding():
    for n in range(11):
        for lam in enumerate_partitions(n):
            for t in (2, 3, 4):
                for s in range(len(lam), len(lam) + 2 * t + 1):
                    assert beta_decode(beta_set(lam, s)) == lam
                beta = beta_set(lam, bead_count(len(lam), t))
                rows = _rows(lam, t)
                assert {t * r + c for c, rs in enumerate(rows) for r in rs} == beta


def test_slide_bead_drops_size_by_t():
    beta = {8, 5, 3, 1}  # (5, 3, 2, 1), size 11
    assert sorted(beta_slides(beta, 3)) == [3, 5]  # 8 - 3 = 5 is taken
    assert beta_decode(beta - {3} | {0}) == (5, 3)  # size 8

    assert beta_decode({2}) == (2,)
    assert beta_slides({2}, 2) == [2]
    assert beta_decode({0}) == ()


def test_every_slide_removes_one_rim_hook():
    # any legal slide drops the size by exactly t and keeps the t-core
    for n in range(2, 10):
        for lam in enumerate_partitions(n):
            for t in (2, 3):
                beta = beta_set(lam, bead_count(len(lam), t))
                for b in beta_slides(beta, t):
                    slid = beta_decode(beta - {b} | {b - t})
                    assert slid.size == n - t
                    assert count_t_hooks(slid, t) == count_t_hooks(lam, t) - 1
                    assert t_core(slid, t) == t_core(lam, t)


def test_t_core_examples():
    assert t_core(Partition((5, 3, 2, 1)), 3) == (2,)
    assert t_core(Partition((3, 2, 1)), 2) == (3, 2, 1)
    assert t_core(Partition((2,)), 2) == ()


def test_t_core_has_no_t_hooks():
    for n in range(13):
        for lam in enumerate_partitions(n):
            for t in (2, 3, 4, 5):
                core = t_core(lam, t)
                assert count_t_hooks(core, t) == 0
                assert (n - core.size) % t == 0


def test_t_core_independent_of_slide_order():
    rng = random.Random(20240811)
    for n in range(2, 10):
        for lam in enumerate_partitions(n):
            for t in (2, 3):
                expected = t_core(lam, t)
                for _ in range(3):
                    beta = beta_set(lam, bead_count(len(lam), t))
                    while moves := beta_slides(beta, t):
                        b = rng.choice(moves)
                        beta = beta - {b} | {b - t}
                    assert beta_decode(beta) == expected


def test_decompose_examples():
    cq = decompose(Partition((5, 3, 2, 1)), 3)
    assert cq.core == (2,)
    assert cq.quotient_size == 3
    assert cq.core.size + 3 * cq.quotient_size == 11

    core = Partition((3, 2, 1))  # a 2-core
    cq = decompose(core, 2)
    assert cq.core == core
    assert all(comp == () for comp in cq.quotient)

    cq = decompose(Partition((2,)), 2)
    assert cq.core == () and cq.quotient_size == 1


def test_size_identity_and_hook_count():
    for n in range(13):
        for lam in enumerate_partitions(n):
            for t in (2, 3, 4, 5):
                cq = decompose(lam, t)
                assert lam.size == cq.core.size + t * cq.quotient_size
                assert cq.quotient_size == count_t_hooks(lam, t)


def test_compose_inverts_decompose():
    for n in range(13):
        for lam in enumerate_partitions(n):
            for t in (2, 3, 4, 5):
                assert compose(decompose(lam, t)) == lam


def _tuples_of_partitions(t, total):
    # all t-tuples of partitions with the given total size
    if t == 1:
        yield from ((lam,) for lam in enumerate_partitions(total))
        return
    for head_size in range(total + 1):
        for head in enumerate_partitions(head_size):
            for rest in _tuples_of_partitions(t - 1, total - head_size):
                yield (head, *rest)


@pytest.mark.parametrize("t", [2, 3, 5])
def test_decompose_inverts_compose(t):
    for total in range(11):
        for core_size in range(total % t, total + 1, t):
            quotient_total = (total - core_size) // t
            for core in enumerate_t_cores(core_size, t):
                for quotient in _tuples_of_partitions(t, quotient_total):
                    cq = CoreQuotient(core=core, quotient=quotient)
                    assert decompose(compose(cq), t) == cq


def test_compose_rejects_non_core():
    cq = CoreQuotient(core=Partition((2,)), quotient=((), ()))
    with pytest.raises(ValueError):
        compose(cq)


def test_compose_core_check_matches_hook_count():
    for n in range(15):
        for lam in enumerate_partitions(n):
            for t in range(2, 8):
                cq = CoreQuotient(core=lam, quotient=(Partition(),) * t)
                if count_t_hooks(lam, t) == 0:
                    assert compose(cq) == lam
                    continue
                with pytest.raises(ValueError) as info:
                    compose(cq)
                assert str(info.value) == f"core {tuple(lam)} has a {t}-hook"


def test_compose_size_arithmetic():
    # core (2) with quotient of total size k composes to a partition of 2+3k
    for quotient in _tuples_of_partitions(3, 4):
        cq = CoreQuotient(core=Partition((2,)), quotient=quotient)
        assert compose(cq).size == 2 + 3 * 4


def test_padding_invariance():
    for n in range(11):
        for lam in enumerate_partitions(n):
            for t in (2, 3, 4):
                s = bead_count(len(lam), t)
                beta1, beta2 = beta_set(lam, s), beta_set(lam, s + t)
                assert beta_quotient(beta1, t) == beta_quotient(beta2, t)
                assert beta_decode(beta_core(beta1, t)) == beta_decode(
                    beta_core(beta2, t)
                )


def _shift(counts):
    # (a_0, ..., a_{t-1}) -> (a_1, ..., a_{t-1}, a_0 - 1): one padding bead less
    return (*counts[1:], counts[0] - 1)


def test_canonicalize_examples():
    assert _shift((1, 0, 0)) == (0, 0, 0)
    assert _from_counts((1, 0, 0), 0, []) == _from_counts((0, 0, 0), 0, []) == ()
    assert _shift((3, 0, 1)) == (0, 1, 2)
    assert _from_counts((3, 0, 1), 0, []) == _from_counts((0, 1, 2), 0, []) == (3, 1, 1)

    counts = tuple(map(len, _rows(t_core(Partition((5, 3, 2, 1)), 3), 3)))
    while counts[0]:
        counts = _shift(counts)
    assert counts == (0, 0, 1)
    assert _from_counts(counts, 0, []) == (2,)


def test_canonicalize_preserves_partition():
    # each shift keeps the core, down to the unique tuple with a_0 = 0
    for n in range(13):
        for t in (2, 3, 4, 5):
            for core in enumerate_t_cores(n, t):
                counts = tuple(map(len, _rows(core, t)))
                while counts[0]:
                    counts = _shift(counts)
                    assert _from_counts(counts, 0, []) == core


@given(
    st.lists(st.integers(1, 8), max_size=6).map(
        lambda xs: Partition(sorted(xs, reverse=True))
    ),
    st.integers(2, 6),
)
def test_round_trip_property(lam, t):
    cq = decompose(lam, t)
    assert compose(cq) == lam
    assert lam.size == cq.core.size + t * cq.quotient_size


def test_runner_decoding_matches_bead_view():
    for n in range(15):
        for lam in enumerate_partitions(n):
            for t in range(2, 8):
                beta = beta_set(lam, bead_count(len(lam), t))
                core = beta_decode(beta_core(beta, t))
                cq = decompose(lam, t)
                assert cq.core == core
                assert t_core(lam, t) == core
                assert cq.quotient == beta_quotient(beta, t)


def test_runners_and_core_from_counts_examples():
    # padded to 6 parts, structure numbers (10, 7, 5, 3, 1, 0) on 3 runners:
    # 3, 0 on runner 0; 10, 7, 1 on runner 1; 5 on runner 2
    assert _rows(Partition((5, 3, 2, 1)), 3) == [[1, 0], [3, 2, 0], [1]]
    assert _rows(Partition(), 2) == [[], []]
    with pytest.raises(ValueError):
        _rows(Partition((1,)), 1)
    assert _from_counts((0, 1, 2), 0, []) == (3, 1, 1)
    assert _from_counts((), 0, []) == ()


@given(long_or_wide, st.integers(2, 11))
def test_abacus_matches_beta_sets(lam, t):
    beta = beta_set(lam, bead_count(len(lam), t))
    rows = _rows(lam, t)
    assert {t * r + c for c, rs in enumerate(rows) for r in rs} == beta
    assert all(rs == sorted(rs, reverse=True) for rs in rows)
    core = beta_decode(beta_core(beta, t))
    quotient = beta_quotient(beta, t)
    assert decompose(lam, t) == (core, quotient)
    assert t_core(lam, t) == core
    assert compose(CoreQuotient(core, quotient)) == lam


@given(
    long_or_wide,
    st.integers(2, 11),
    st.lists(st.lists(st.integers(1, 6), max_size=5).map(_partition_of), max_size=11),
)
def test_compose_matches_beta_sets(lam, t, comps):
    # any t-core with any quotient, including components longer than the
    # core's runners, which forces extra padding
    core = beta_decode(beta_core(beta_set(lam, bead_count(len(lam), t)), t))
    quotient = (*comps[:t], *[Partition()] * (t - len(comps[:t])))
    assert compose(CoreQuotient(core, quotient)) == beta_compose(core, quotient, t)


@pytest.mark.parametrize(
    "cq, message",
    [
        (CoreQuotient(Partition(), (Partition(),)), "t must be at least 2, got 1"),
        (CoreQuotient(Partition(), ()), "t must be at least 2, got 0"),
        (
            CoreQuotient(Partition(), (Partition(),) * (MAX_RUNNERS + 1)),
            f"t={MAX_RUNNERS + 1} is over the limit of {MAX_RUNNERS} runners",
        ),
        (CoreQuotient(Partition((2,)), (Partition(),) * 2), "core (2,) has a 2-hook"),
    ],
)
def test_compose_refusals(cq, message):
    with pytest.raises(ValueError) as info:
        compose(cq)
    assert str(info.value) == message


# James's abacus: a runner of k beads has rows summing to at least k(k-1)/2,
# and the surplus is its number of t-hooks (Garvan, Kim and Stanton, 1990).
def _check_row_sum_identity(lam, t):
    counts = _counts(lam, t)
    rows = _rows(lam, t)
    assert counts == list(map(len, rows))
    surplus = _surplus(lam, counts)
    assert surplus == sum(sum(rs) - len(rs) * (len(rs) - 1) // 2 for rs in rows)
    assert surplus == count_t_hooks(lam, t) == decompose(lam, t).quotient_size


def test_row_sum_identity_counts_t_hooks():
    for n in range(15):
        for lam in enumerate_partitions(n):
            for t in range(2, 8):
                _check_row_sum_identity(lam, t)


@given(long_or_wide, st.integers(2, 7))
def test_row_sum_identity_on_long_and_wide(lam, t):
    _check_row_sum_identity(lam, t)


@given(long_or_wide, st.integers(2, 11))
def test_count_t_hooks_matches_hook_rows(lam, t):
    assert count_t_hooks(lam, t) == sum(h % t == 0 for row in hook_rows(lam) for h in row)


# The decoder builds partitions without Partition's per-part check. Every
# output must still pass that check, and agree with the bead-view oracle.
def _assert_valid(x):
    assert type(x) is Partition
    assert Partition(list(x)) == x


def _check_built_outputs(lam, t):
    beta = beta_set(lam, bead_count(len(lam), t))
    cq = decompose(lam, t)
    assert cq.core == beta_decode(beta_core(beta, t))
    assert cq.quotient == beta_quotient(beta, t)
    for x in (cq.core, *cq.quotient, compose(cq), t_core(lam, t)):
        _assert_valid(x)
    for rs, comp in zip(_rows(lam, t), cq.quotient):
        if rs == list(range(len(rs) - 1, -1, -1)):  # gap-free runner
            assert comp == Partition()


def test_built_outputs_are_valid_partitions():
    for n in range(15):
        for lam in enumerate_partitions(n):
            for t in range(2, 8):
                _check_built_outputs(lam, t)


@given(long_or_wide, st.integers(2, 7))
def test_built_outputs_are_valid_on_long_and_wide(lam, t):
    _check_built_outputs(lam, t)


@given(st.lists(st.integers(0, 6), max_size=8))
def test_core_from_counts_is_valid_and_matches_beads(counts):
    t = len(counts)
    core = _from_counts(counts, min(counts, default=0), [])
    _assert_valid(core)
    assert core == beta_decode({c + t * k for c, a in enumerate(counts) for k in range(a)})


def test_non_partition_input_is_refused():
    # plain tuples are checked on the way in, so they never reach the decoder
    assert decompose((2, 1), 2) == decompose(Partition((2, 1)), 2)
    _assert_valid(t_core((2, 1), 2))
    _assert_valid(t_core((1,), 5))  # returned as is, so converted first
    for call in (
        lambda: decompose((1, 3), 2),
        lambda: t_core((1, 3), 2),
        lambda: t_core((1, 3), 9),
        lambda: compose(CoreQuotient((1, 3), (Partition(),) * 2)),
        lambda: compose(CoreQuotient(Partition(), ((1, 3), Partition()))),
    ):
        with pytest.raises(ValueError, match="non-increasing"):
            call()
