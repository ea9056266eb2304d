import random

import pytest
from hypothesis import given, strategies as st

from tcores.abacus import (
    Abacus,
    CoreQuotient,
    abacus_from_partition,
    canonicalize_core_abacus,
    compact_columns,
    compose,
    core_from_counts,
    decompose,
    default_bead_count,
    partition_from_abacus,
    quotient_components,
    runners,
    slide_bead,
    structure_numbers,
    t_core,
)
from tcores.partitions import Partition, count_t_hooks, enumerate_partitions

EXAMPLE_ABACUS = Abacus(3, frozenset({(3, 2), (2, 2), (2, 0), (1, 1)}))


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
    ab = abacus_from_partition(Partition((5, 3, 2, 1)), 3, bead_count=4)
    assert ab == EXAMPLE_ABACUS
    assert abacus_from_partition(Partition(), 2).beads == frozenset()
    ab = abacus_from_partition(Partition((2,)), 3)
    assert ab.beads == frozenset({(2, 1), (1, 1), (1, 0)})


def test_default_bead_count_is_least_multiple_of_t():
    assert default_bead_count(0, 3) == 0
    assert default_bead_count(4, 3) == 6
    assert default_bead_count(6, 3) == 6


def test_abacus_validation():
    with pytest.raises(ValueError):
        Abacus(1, frozenset())
    with pytest.raises(ValueError):
        Abacus(3, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        Abacus(3, frozenset({(1, 3)}))


def test_partition_from_abacus_examples():
    assert partition_from_abacus(EXAMPLE_ABACUS) == (5, 3, 2, 1)
    assert partition_from_abacus(Abacus(2, frozenset())) == ()
    ab = Abacus(3, frozenset({(1, 0), (1, 1), (1, 2), (2, 2)}))
    assert partition_from_abacus(ab) == (2,)


def test_abacus_round_trip_any_padding():
    for n in range(11):
        for lam in enumerate_partitions(n):
            for t in (2, 3, 4):
                for s in range(len(lam), len(lam) + 2 * t + 1):
                    ab = abacus_from_partition(lam, t, bead_count=s)
                    assert partition_from_abacus(ab) == lam


def test_slide_bead_drops_size_by_t():
    before = partition_from_abacus(EXAMPLE_ABACUS)
    after = partition_from_abacus(slide_bead(EXAMPLE_ABACUS, (2, 0)))
    assert before.size == 11 and after.size == 8

    single = Abacus(2, frozenset({(2, 0)}))
    assert partition_from_abacus(single) == (2,)
    assert partition_from_abacus(slide_bead(single, (2, 0))) == ()


def test_slide_bead_preconditions():
    with pytest.raises(ValueError):
        slide_bead(EXAMPLE_ABACUS, (1, 1))  # top row
    with pytest.raises(ValueError):
        slide_bead(EXAMPLE_ABACUS, (3, 0))  # no bead there
    with pytest.raises(ValueError):
        slide_bead(EXAMPLE_ABACUS, (3, 2))  # target (2,2) occupied


def test_every_slide_removes_one_rim_hook():
    # any legal slide drops the size by exactly t and yields a valid partition
    for n in range(2, 10):
        for lam in enumerate_partitions(n):
            for t in (2, 3):
                ab = abacus_from_partition(lam, t)
                for r, c in ab.beads:
                    if r > 1 and (r - 1, c) not in ab.beads:
                        slid = partition_from_abacus(slide_bead(ab, (r, c)))
                        assert slid.size == n - t


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
                    ab = abacus_from_partition(lam, t)
                    while True:
                        moves = [
                            (r, c)
                            for r, c in ab.beads
                            if r > 1 and (r - 1, c) not in ab.beads
                        ]
                        if not moves:
                            break
                        ab = slide_bead(ab, rng.choice(moves))
                    assert partition_from_abacus(ab) == expected


def test_decompose_examples():
    cq = decompose(Partition((5, 3, 2, 1)), 3)
    assert cq.core == (2,)
    assert cq.quotient_size == 3
    assert cq.size == 11

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
    from tcores.cores import enumerate_t_cores

    for total in range(11):
        for core_size in range(total % t, total + 1, t):
            quotient_total = (total - core_size) // t
            for core in enumerate_t_cores(core_size, t):
                for quotient in _tuples_of_partitions(t, quotient_total):
                    cq = CoreQuotient(core=core, quotient=quotient, t=t)
                    assert decompose(compose(cq), t) == cq


def test_compose_rejects_non_core():
    cq = CoreQuotient(core=Partition((2,)), quotient=((), ()), t=2)
    with pytest.raises(ValueError):
        compose(cq)


def test_compose_core_check_matches_hook_count():
    for n in range(15):
        for lam in enumerate_partitions(n):
            for t in range(2, 8):
                cq = CoreQuotient(core=lam, quotient=(Partition(),) * t, t=t)
                if count_t_hooks(lam, t) == 0:
                    assert compose(cq) == lam
                    continue
                with pytest.raises(ValueError) as info:
                    compose(cq)
                assert str(info.value) == f"core {tuple(lam)} has a {t}-hook"


def test_compose_size_arithmetic():
    # core (2) with quotient of total size k composes to a partition of 2+3k
    for quotient in _tuples_of_partitions(3, 4):
        cq = CoreQuotient(core=Partition((2,)), quotient=quotient, t=3)
        assert compose(cq).size == 2 + 3 * 4


def test_padding_invariance():
    for n in range(11):
        for lam in enumerate_partitions(n):
            for t in (2, 3, 4):
                s = default_bead_count(len(lam), t)
                ab1 = abacus_from_partition(lam, t, bead_count=s)
                ab2 = abacus_from_partition(lam, t, bead_count=s + t)
                assert quotient_components(ab1) == quotient_components(ab2)
                assert partition_from_abacus(
                    compact_columns(ab1)
                ) == partition_from_abacus(compact_columns(ab2))


def test_canonicalize_examples():
    ab = Abacus(3, frozenset({(1, 0)}))  # counts (1, 0, 0)
    canon = canonicalize_core_abacus(ab)
    assert canon.column_counts == (0, 0, 0)
    assert canon.partition() == partition_from_abacus(ab) == ()

    ab = Abacus(3, frozenset({(1, 1), (1, 2), (2, 2)}))  # already canonical
    assert canonicalize_core_abacus(ab).column_counts == (0, 1, 2)

    core_ab = compact_columns(abacus_from_partition(t_core(Partition((5, 3, 2, 1)), 3), 3))
    canon = canonicalize_core_abacus(core_ab)
    assert canon.column_counts[0] == 0
    assert canon.partition() == (2,)


def test_canonicalize_rejects_gaps():
    with pytest.raises(ValueError):
        canonicalize_core_abacus(Abacus(3, frozenset({(2, 0)})))


def test_canonicalize_preserves_partition():
    for n in range(13):
        for t in (2, 3, 4, 5):
            from tcores.cores import enumerate_t_cores

            for core in enumerate_t_cores(n, t):
                ab = compact_columns(abacus_from_partition(core, t))
                canon = canonicalize_core_abacus(ab)
                assert canon.column_counts[0] == 0
                assert canon.partition() == core


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
    # Oracle: the beads built here from structure numbers, compacted and read
    # runner by runner through the frozenset view.
    for n in range(15):
        for lam in enumerate_partitions(n):
            for t in range(2, 8):
                s = default_bead_count(len(lam), t)
                beads = frozenset(
                    (b // t + 1, b % t) for b in structure_numbers(lam, pad_to=s)
                )
                ab = Abacus(t, beads)
                core = partition_from_abacus(compact_columns(ab))
                cq = decompose(lam, t)
                assert cq.core == core
                assert t_core(lam, t) == core
                assert cq.quotient == quotient_components(ab)


def test_runners_and_core_from_counts_examples():
    # structure numbers (8, 5, 3, 1) on 3 runners: 8, 5 on runner 2, 3 on 0, 1 on 1
    assert runners(Partition((5, 3, 2, 1)), 3, bead_count=4) == ((1,), (0,), (2, 1))
    assert runners(Partition(), 2) == ((), ())
    with pytest.raises(ValueError):
        runners(Partition((1,)), 1)
    ab = Abacus(3, frozenset({(1, 1), (1, 2), (2, 2)}))
    assert core_from_counts((0, 1, 2)) == partition_from_abacus(ab) == (3, 1, 1)
    assert core_from_counts(()) == ()
    with pytest.raises(ValueError):
        core_from_counts((0, -1))
