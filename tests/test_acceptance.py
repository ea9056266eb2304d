"""Acceptance suite: every exit criterion at its full stated range.

Each test prints one PASS line on success (run with -s to see them); a
failure message pinpoints the first offending value.
"""

from math import factorial

from tcores import cli, nekrasov
from tcores.abacus import compose, decompose
from tcores.cores import verify_core_formulas
from tcores.distribution import (
    brute_force_profile,
    residue_profile,
    sweep_2hook_vanishing,
    sweep_3hook_vanishing,
)
from tcores.partitions import (
    count_t_hooks,
    enumerate_partitions,
    representation_dimension,
)
from tcores.series import sparse_product

# Published 4-decimal proportions of 2-hook counts mod 3; reproduction must
# agree within one unit in the last place, with the a=2 column exactly zero.
TABLE_FIXTURE = {
    300: ("0.7347", "0.2653"),
    600: ("0.6977", "0.3022"),
    900: ("0.6837", "0.3163"),
    4500: ("0.6669", "0.3330"),
    4800: ("0.6669", "0.3330"),
    5100: ("0.6668", "0.3331"),
}


def _ulps(text: str) -> int:
    return int(text.replace(".", ""))


def test_criterion_1_table_reproduction(capsys):
    code = cli.main(["table", "--t", "2", "--b", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = {}
    for line in out.strip().splitlines()[1:]:
        n, a, count, proportion = line.split(",")
        rows[(int(n), int(a))] = (count, proportion)
    for n, (p0, p1) in TABLE_FIXTURE.items():
        for a, expected in ((0, p0), (1, p1)):
            count, proportion = rows[(n, a)]
            assert abs(_ulps(proportion) - _ulps(expected)) <= 1, (
                f"n={n} a={a}: computed {proportion}, published {expected}"
            )
        count, proportion = rows[(n, 2)]
        assert count == "0" and proportion == "0.0000", f"n={n} a=2 not exactly zero"
    with capsys.disabled():
        print("criterion 1 (table reproduction, n up to 5100): PASS")


def test_criterion_2_vanishing_2hooks(capsys):
    total_cells = 0
    for ell in (3, 5, 7, 11, 13):
        report = sweep_2hook_vanishing(ell, 2000)
        assert report.ok, f"ell={ell}: counterexamples {report.counterexamples}"
        assert report.hypothesis_cells == ell * (ell - 1) // 2
        total_cells += report.hypothesis_cells
    with capsys.disabled():
        print(
            f"criterion 2 (2-hook vanishing, odd primes <= 13, n <= 2000, "
            f"{total_cells} cells): PASS"
        )


def test_criterion_3_vanishing_3hooks(capsys):
    total_cells = 0
    for ell in (2, 5, 11):
        report = sweep_3hook_vanishing(ell, 2000)
        assert report.ok, f"ell={ell}: counterexamples {report.counterexamples}"
        assert report.hypothesis_cells > 0
        total_cells += report.hypothesis_cells
    with capsys.disabled():
        print(
            f"criterion 3 (3-hook vanishing, ell in {{2,5,11}}, n <= 2000, "
            f"{total_cells} cells): PASS"
        )


def test_criterion_4_oracle_equivalence(capsys):
    for t in (2, 3):
        for b in (2, 3, 5, 25):
            for n in range(26):
                fast = residue_profile(t, b, n)
                slow = brute_force_profile(t, b, n)
                assert fast == slow, f"t={t} b={b} n={n}"
    with capsys.disabled():
        print("criterion 4 (generating function = brute force, n <= 25): PASS")


def test_criterion_5_bijection_suite(capsys):
    for n in range(19):
        for lam in enumerate_partitions(n):
            for t in range(2, 8):
                cq = decompose(lam, t)
                assert compose(cq) == lam, f"round trip failed for {lam}, t={t}"
                assert lam.size == cq.core.size + t * cq.quotient_size
                assert cq.quotient_size == count_t_hooks(lam, t)
                assert count_t_hooks(cq.core, t) == 0
    with capsys.disabled():
        print("criterion 5 (core/quotient bijection, |lam| <= 18, t <= 7): PASS")


def test_criterion_6_core_formula_agreement(capsys):
    _, failures = verify_core_formulas(n_max=500, series_n_max=200, t_max=7)
    assert not failures, failures
    with capsys.disabled():
        print(
            "criterion 6 (core-count routes agree, n <= 500; series t <= 7, "
            "n <= 200): PASS"
        )


def test_criterion_7_hook_length_identity(capsys):
    mismatches = nekrasov.check_identity(12)
    assert not mismatches, f"mismatches at {mismatches}"
    assert nekrasov.specialize(12, 2) == sparse_product([(1, 1)], 12)
    assert nekrasov.specialize(12, 4) == sparse_product([(1, 3)], 12)
    with capsys.disabled():
        print("criterion 7 (hook-length identity and specializations, m <= 12): PASS")


def test_criterion_8_dimension_formula(capsys):
    for n in range(15):
        total = sum(
            representation_dimension(lam) ** 2 for lam in enumerate_partitions(n)
        )
        assert total == factorial(n), f"sum of squared dimensions wrong at n={n}"
    with capsys.disabled():
        print("criterion 8 (dimension formula, sum of squares = n!, n <= 14): PASS")
