from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from tcores.partitions import (
    Partition,
    conjugate,
    count_t_hooks,
    enumerate_partitions,
    hook_rows,
)
from tcores.series import eta_inverse_power_series

partitions_st = st.lists(st.integers(1, 9), max_size=7).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def hook_length(lam: Partition, i: int, j: int) -> int:
    """Hook length h(i, j) of cell (i, j), 1-based.

    h(i, j) = (arm) + (leg) + 1 = (lam_i - j) + (lam'_j - i) + 1.
    """
    if i < 1 or i > len(lam) or j < 1 or j > lam[i - 1]:
        raise ValueError(f"cell ({i},{j}) is not in the diagram of {tuple(lam)}")
    col_len = sum(1 for part in lam if part >= j)
    return (lam[i - 1] - j) + (col_len - i) + 1


def hook_multiset(lam: Partition) -> Counter[int]:
    """Multiset of all hook lengths of lam; its cardinality is |lam|."""
    counts: Counter[int] = Counter()
    for row in hook_rows(lam):
        counts.update(row)
    return counts


def diagram_t_hooks(lam: Partition, t: int) -> int:
    """Cells whose hook length t divides, read off the diagram and its columns.

    h(i, j) = (lam_i - i + 1) + (lam'_j - j), so t | h(i, j) exactly when
    lam'_j - j = i - lam_i - 1 (mod t); row i counts its first lam_i marks.
    """
    marks = [(col - j) % t for j, col in enumerate(conjugate(lam), 1)]
    return sum(marks[:part].count((i - part - 1) % t) for i, part in enumerate(lam, 1))


def test_partition_validation():
    assert Partition() == ()
    assert Partition((3, 2, 1)).size == 6
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_partition_validation_messages():
    for parts, message in [
        ((1, 2), "parts must be non-increasing, got (1, 2)"),
        ((2, 0), "parts must be positive integers, got 0"),
        ((1.5,), "parts must be positive integers, got 1.5"),
        ((True,), "parts must be positive integers, got True"),
        ((2, True), "parts must be positive integers, got True"),
    ]:
        with pytest.raises(ValueError) as info:
            Partition(parts)
        assert str(info.value) == message


def test_built_partitions_pass_the_check():
    # enumeration and conjugation skip the per-part check; their outputs must
    # pass it
    for n in range(15):
        for lam in enumerate_partitions(n):
            for x in (lam, conjugate(lam)):
                assert type(x) is Partition
                assert Partition(list(x)) == x


def test_plain_tuples_are_checked():
    assert conjugate((2, 1, 1)) == (3, 1)
    assert count_t_hooks((2, 1, 1), 2) == 2
    for call in (lambda: conjugate((1, 3)), lambda: count_t_hooks((1, 3), 2)):
        with pytest.raises(ValueError, match="non-increasing"):
            call()


def test_enumeration_base_cases():
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_partitions(1)) == [(1,)]
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


def test_enumeration_order_snapshot():
    # reverse-lexicographic: (n) first, all-ones last
    assert list(enumerate_partitions(5)) == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_enumeration_counts_match_series():
    ps = eta_inverse_power_series(1, 30)
    for n in range(31):
        parts = list(enumerate_partitions(n))
        assert len(parts) == ps[n]
        assert len(set(parts)) == len(parts)
        assert all(lam.size == n for lam in parts)


def test_hook_length_examples():
    staircase = Partition((3, 2, 1))
    assert hook_length(staircase, 1, 1) == 5
    assert hook_length(staircase, 2, 2) == 1
    assert hook_length(Partition((1,)), 1, 1) == 1
    assert hook_rows(staircase) == [[5, 3, 1], [3, 1], [1]]


def test_hook_length_outside_diagram():
    with pytest.raises(ValueError):
        hook_length(Partition((3, 2, 1)), 2, 3)
    with pytest.raises(ValueError):
        hook_length(Partition((3, 2, 1)), 4, 1)
    with pytest.raises(ValueError):
        hook_length(Partition(), 1, 1)


def test_hook_multiset_examples():
    assert sorted(hook_multiset(Partition((3, 2, 1))).elements()) == [1, 1, 1, 3, 3, 5]
    assert hook_multiset(Partition()) == {}
    assert sorted(hook_multiset(Partition((5, 3, 2, 1))).elements()) == sorted(
        [8, 6, 4, 2, 1, 5, 3, 1, 3, 1, 1]
    )


def test_hook_multiset_cardinality_and_max():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            hm = hook_multiset(lam)
            assert sum(hm.values()) == n
            # the (1,1) cell has the strictly largest hook
            top = max(hm)
            assert hm[top] == 1
            assert top == lam[0] + len(lam) - 1


def test_count_t_hooks_examples():
    assert count_t_hooks(Partition((3, 2, 1)), 2) == 0
    assert count_t_hooks(Partition((3, 2, 1)), 3) == 2
    assert count_t_hooks(Partition((5, 3, 2, 1)), 3) == 3
    with pytest.raises(ValueError):
        count_t_hooks(Partition((2,)), 1)


@pytest.mark.parametrize("t", [0, 1])
def test_count_t_hooks_refuses_t_below_2_before_any_shortcut(t):
    # the empty partition has no hook at all, but t is checked first
    for lam in (Partition(), (), Partition((1,))):
        with pytest.raises(ValueError, match=f"^t must be at least 2, got {t}$"):
            count_t_hooks(lam, t)


def test_count_t_hooks_matches_the_diagram_and_the_grid():
    for n in range(15):
        for lam in enumerate_partitions(n):
            rows = hook_rows(lam)
            for t in range(2, 12):
                count = count_t_hooks(lam, t)
                assert count == diagram_t_hooks(lam, t), (lam, t)
                assert count == sum(h % t == 0 for row in rows for h in row), (lam, t)


def test_count_t_hooks_for_a_t_beyond_every_hook():
    square = Partition([1000] * 1000)  # largest hook 1999
    assert count_t_hooks(square, 10**18) == 0
    assert count_t_hooks(square, 2000) == 0
    assert count_t_hooks(square, 1999) == 1 == diagram_t_hooks(square, 1999)
    for t in (2, 3, 7):
        assert count_t_hooks(square, t) == diagram_t_hooks(square, t)


def test_conjugate_examples():
    assert conjugate(Partition((3, 2, 1))) == (3, 2, 1)
    assert conjugate(Partition((5,))) == (1, 1, 1, 1, 1)
    assert conjugate(Partition((4, 2, 1))) == (3, 2, 1, 1)
    assert conjugate(Partition()) == ()


def test_conjugate_matches_cell_loop():
    for n in range(21):
        for lam in enumerate_partitions(n):
            cols = [0] * (lam[0] if lam else 0)
            for part in lam:
                for j in range(part):
                    cols[j] += 1
            assert conjugate(lam) == tuple(cols)
            assert type(conjugate(lam)) is Partition


@given(partitions_st)
def test_conjugate_involutive(lam):
    assert conjugate(conjugate(lam)) == lam


def test_conjugate_preserves_hook_multiset():
    for n in range(19):
        for lam in enumerate_partitions(n):
            assert hook_multiset(conjugate(lam)) == hook_multiset(lam)


def test_representation_dimension_examples():
    # n! over the product of the hook lengths
    for parts, dim in (((7,), 1), ((1,) * 6, 1), ((3, 2, 1), 16), ((), 1)):
        lam = Partition(parts)
        assert factorial(lam.size) == dim * prod(map(prod, hook_rows(lam)))
