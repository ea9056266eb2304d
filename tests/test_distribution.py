import random

import pytest

from tcores import distribution
from tcores.distribution import (
    COUNTEREXAMPLE,
    HYPOTHESIS_NOT_MET,
    VERIFIED,
    HookDistribution,
    format_proportion,
    formatted_proportions,
    pt_count,
    residue_profile,
    sweep_2hook_vanishing,
    sweep_3hook_vanishing,
    verify_2hook_vanishing,
    verify_3hook_vanishing,
)
from tcores.partitions import count_t_hooks, enumerate_partitions
from tcores.series import eta_inverse_power_series, sparse_product


def _strided_product(factors, truncation):
    # Oracle: expand each (s, e) into the factors (1 - q^{sm})^e, m >= 1, and
    # apply every one as a dense strided pass over the coefficient table.
    c = [1] + [0] * truncation
    for s, e in factors:
        for m in range(s, truncation + 1, s):
            for _ in range(abs(e)):
                if e < 0:
                    for k in range(m, truncation + 1):
                        c[k] += c[k - m]
                else:
                    for k in range(truncation, m - 1, -1):
                        c[k] -= c[k - m]
    return tuple(c)


def _cauchy_product(a, b):
    n = min(len(a), len(b))
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n))


def test_partition_series_values():
    assert eta_inverse_power_series(1, 5) == (1, 1, 2, 3, 5, 7)
    ps = eta_inverse_power_series(1, 30)
    for n in range(31):
        assert ps[n] == len(list(enumerate_partitions(n)))


def test_eta_inverse_examples():
    assert eta_inverse_power_series(2, 2)[2] == 5
    for t in (1, 2, 3, 7):
        assert eta_inverse_power_series(t, 4)[0] == 1


def test_eta_inverse_counts_tuples():
    # q^k coefficient of 1/prod(1-q^m)^t counts t-tuples of total size k
    ps = eta_inverse_power_series(1, 12)
    q2 = eta_inverse_power_series(2, 12)
    for k in range(13):
        assert q2[k] == sum(ps[i] * ps[k - i] for i in range(k + 1))


def test_product_and_inverse_cancel():
    prod = _cauchy_product(
        sparse_product([(1, 2)], 40), eta_inverse_power_series(2, 40)
    )
    assert prod == (1,) + (0,) * 40


def test_monotone_truncation():
    small = eta_inverse_power_series(2, 50)
    large = eta_inverse_power_series(2, 80)
    assert large[:51] == small
    small = sparse_product([(1, 3)], 40)
    large = sparse_product([(1, 3)], 70)
    assert large[:41] == small


def test_sparse_product_matches_strided_oracle():
    rng = random.Random(20210825)
    cases = [([], 0), ([], 9), ([(1, 0)], 12), ([(3, 2), (1, -1)], 0)]
    # The first factor with |e| >= 2 takes the Miller pass only while the
    # table is still 1: after a factor with e = 0 or s > N, but not after one
    # with |e| = 1.
    cases += [([(1, 0), (2, -3)], 40), ([(2, 0), (1, 4), (3, -2)], 45)]
    cases += [([(50, 2), (1, -2)], 30), ([(31, -1), (3, 3)], 30)]
    cases += [([(1, -1), (1, -2)], 40), ([(2, 1), (1, 3)], 40)]
    cases += [([(1, -3)], 200), ([(5, 5), (1, -1)], 200), ([(2, -2), (3, 2)], 120)]
    # A cube takes one pass over Jacobi's triangular terms: first, after a
    # factor with |e| = 1, and for s > N.
    cases += [([(3, 3), (1, -1)], 90), ([(2, -3)], 60), ([(1, 1), (1, -3)], 60)]
    cases += [([(1, -1), (2, 3), (3, -3)], 70), ([(41, 3), (1, -3)], 40), ([(41, -3)], 40)]
    for _ in range(150):
        factors = [
            (rng.randint(1, 7), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 4))
        ]
        cases.append((factors, rng.randint(0, 45)))
    for factors, truncation in cases:
        assert sparse_product(factors, truncation) == _strided_product(
            factors, truncation
        ), (factors, truncation)


@pytest.mark.parametrize("t", range(2, 8))
def test_eta_inverse_power_matches_plain_passes(t):
    # every factor with |e| = 1 keeps the plain pass, t times
    assert eta_inverse_power_series(t, 300) == sparse_product([(1, -1)] * t, 300)


def test_sparse_product_validation():
    with pytest.raises(ValueError):
        sparse_product([(0, 1)], 5)
    with pytest.raises(ValueError):
        sparse_product([(1, -1), (-2, 1)], 5)
    with pytest.raises(ValueError):
        sparse_product([(1, 1)], -1)
    with pytest.raises(ValueError):
        eta_inverse_power_series(2, -1)
    with pytest.raises(ValueError):
        eta_inverse_power_series(0, 5)


def test_partition_counts_match_sympy():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    ps = eta_inverse_power_series(1, 5100)
    rng = random.Random(5100)
    for n in [0, 1, 2, 100, 5100] + rng.sample(range(5101), 40):
        assert ps[n] == numbers.partition(n), n


def test_pt_count_examples():
    assert pt_count(2, 0, 1, 6) == 11  # p(6)
    # the two vanishing showcases
    for n in (1, 6, 11, 16, 21, 26):
        assert pt_count(2, 1, 5, n) == 0
    for n in (1, 26, 51):
        assert pt_count(3, 1, 25, n) == 0


def test_residue_counts_sum_to_partition_count():
    ps = eta_inverse_power_series(1, 60)
    for t, b in ((2, 3), (3, 5), (4, 4)):
        for n in (0, 1, 7, 30, 60):
            prof = residue_profile(t, b, n)
            assert sum(prof) == ps[n]
            assert all(c >= 0 for c in prof)
            assert len(prof) == b


def test_larger_engine_keeps_lower_counts():
    # a single HookDistribution(t, n_max) serves every n <= n_max: a longer
    # truncation never changes the lower coefficients
    for t in range(2, 6):
        engine = HookDistribution(t, 300)
        for b in (2, 3, 7):
            for n in (0, 1, 29, 150, 300):
                profile = residue_profile(t, b, n)
                assert engine.residue_counts(b, n) == list(profile)


def test_brute_force_smallest_3hook_vanishing_case():
    assert not any(count_t_hooks(lam, 3) % 25 == 1 for lam in enumerate_partitions(26))


def test_engine_validation():
    eng = HookDistribution(2, 50)
    with pytest.raises(ValueError):
        eng.count(0, 0, 10)
    with pytest.raises(ValueError):
        eng.count(0, 3, 51)
    with pytest.raises(ValueError):
        HookDistribution(1, 10)


def test_bad_modulus_is_refused_before_any_series(monkeypatch):
    def no_build(*args):
        raise AssertionError("built a HookDistribution")

    monkeypatch.setattr(distribution, "HookDistribution", no_build)
    for call in (lambda: pt_count(2, 0, 0, 100000), lambda: residue_profile(2, -1, 100000)):
        with pytest.raises(ValueError, match="modulus b must be at least 1"):
            call()


def test_format_proportion_half_even():
    assert format_proportion(1, 3) == "0.3333"
    assert format_proportion(2, 3) == "0.6667"
    assert format_proportion(42, 42) == "1.0000"
    assert format_proportion(0, 7) == "0.0000"
    # exact halves round to the even neighbour
    assert format_proportion(1, 20000) == "0.0000"
    assert format_proportion(3, 20000) == "0.0002"
    with pytest.raises(ValueError):
        format_proportion(1, 0)


def test_formatted_proportions():
    # the published n = 300 row of 2-hook counts mod 3
    assert formatted_proportions(residue_profile(2, 3, 300)) == (
        "0.7347", "0.2653", "0.0000",
    )
    assert formatted_proportions((1, 2)) == ("0.3333", "0.6667")
    with pytest.raises(ValueError):
        formatted_proportions((0, 0))


def test_verify_2hook_examples():
    assert verify_2hook_vanishing(5, 1, 1, 500).status == VERIFIED
    assert verify_2hook_vanishing(3, 2, 0, 500).status == VERIFIED
    # symbol is +1: nothing to check
    v = verify_2hook_vanishing(5, 0, 0, 500)
    assert v.status == HYPOTHESIS_NOT_MET and v.checked == 0
    with pytest.raises(ValueError):
        verify_2hook_vanishing(2, 0, 0, 100)
    with pytest.raises(ValueError):
        verify_2hook_vanishing(9, 0, 0, 100)


def test_verify_3hook_examples():
    assert verify_3hook_vanishing(5, 1, 1, 500).status == VERIFIED
    assert verify_3hook_vanishing(2, 0, 3, 500).status == VERIFIED  # ord_2(10) = 1
    assert verify_3hook_vanishing(2, 1, 1, 500).status == HYPOTHESIS_NOT_MET
    with pytest.raises(ValueError):
        verify_3hook_vanishing(7, 0, 0, 100)  # 7 = 1 mod 3


def _symbol_is_minus_one(v, p):
    # Oracle for (v/p) = -1: v is a unit mod p and not a square of one.
    return v % p != 0 and v % p not in {x * x % p for x in range(1, p)}


def _valuation(ell, v):
    # Oracle for ord_ell(v), v nonzero: divide out ell one factor at a time.
    v, e = abs(v), 0
    while v % ell == 0:
        v, e = v // ell, e + 1
    return e


def test_3hook_hypothesis_matches_valuation_loop():
    for ell in (2, 5, 11, 17, 23):
        b, m, holds, _ = distribution._theorem(3, ell)
        assert (b, m) == (ell * ell, 3)
        for r in range(b):
            for v in (3 * r + 1, 3 * (r - b) + 1):
                assert holds(v) == (_valuation(ell, v) == 1), (ell, v)


def test_2hook_hypothesis_matches_sympy():
    ntheory = pytest.importorskip("sympy.ntheory")
    for ell in (3, 5, 7, 11, 13, 997):
        b, m, holds, _ = distribution._theorem(2, ell)
        assert (b, m) == (ell, 8)
        for r in range(ell):
            # a non-residue, 0 included among the residues, has symbol -1
            assert holds(8 * r + 1) == (not ntheory.is_quad_residue(8 * r + 1, ell))


@pytest.mark.parametrize(
    "t, ell, verify",
    [
        (2, 3, verify_2hook_vanishing),
        (2, 5, verify_2hook_vanishing),
        (2, 13, verify_2hook_vanishing),
        (3, 2, verify_3hook_vanishing),
        (3, 5, verify_3hook_vanishing),
    ],
)
def test_single_cell_verdicts_on_any_integers(t, ell, verify):
    # every (a1, a2) in -2b..2b-1: the hypothesis and note on the paper's
    # literal v, and, where it holds, the theorem's verdict
    b = ell if t == 2 else ell * ell
    for a1 in range(-2 * b, 2 * b):
        for a2 in range(-2 * b, 2 * b):
            if t == 2:
                v = -16 * a1 + 8 * a2 + 1
                holds, note = _symbol_is_minus_one(v, ell), f"({v}/{ell}) != -1"
            else:
                v = -9 * a1 + 3 * a2 + 1
                holds, note = _valuation(ell, v) == 1, f"ord_{ell}({v}) != 1"
            verdict = verify(ell, a1, a2, 40)
            if holds:
                expected = (VERIFIED, len(range(a2 % b, 41, b)), None, "")
            else:
                expected = (HYPOTHESIS_NOT_MET, 0, None, note)
            assert verdict == expected, (ell, a1, a2)


def test_counterexample_branch_fires_on_nonzero_count(monkeypatch):
    # With every core count nonzero, the first n of the progression whose
    # sum has a term is a counterexample. For a1 = 1 that is n = 6 (resp.
    # 26): at n = 1 no k = 1 mod b has t*k <= n, so the sum is empty.
    monkeypatch.setattr(
        distribution, "_core_count_array", lambda t, n_max: [1] * (n_max + 1)
    )
    for a1 in (1, 6):  # only a1 mod ell matters
        v = verify_2hook_vanishing(5, a1, 1, 100)
        assert v.status == COUNTEREXAMPLE and v.counterexample == 6 and v.checked == 1
    v = verify_3hook_vanishing(5, 1, 1, 100)
    assert v.status == COUNTEREXAMPLE and v.counterexample == 26 and v.checked == 1
    # a cell whose progression has a term at its first n fires there
    v = verify_2hook_vanishing(5, 0, 2, 100)
    assert v.status == COUNTEREXAMPLE and v.counterexample == 2 and v.checked == 0


def _walk_cell(t, b, a1, a2, n_max, core_counts):
    # Oracle: walk the n = a2 mod b up to n_max and test each smallest term.
    offset = t * (a1 % b)
    checked = 0
    for n in range(a2 % b, n_max + 1, b):
        if n >= offset and core_counts[n - offset]:
            return distribution.Verdict(COUNTEREXAMPLE, checked, n)
        checked += 1
    return distribution.Verdict(VERIFIED, checked)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_first_core_table_matches_walk_on_every_cell(t):
    for n_max in (0, 1, 2, 37, 300):
        core_counts = distribution._core_count_array(t, n_max)
        for b in range(1, 31):
            first = distribution._first_cores(t, n_max, b)
            assert len(first) <= min(b, n_max + 1)
            for a1 in range(-b, b):
                for a2 in range(-b, b):
                    expected = _walk_cell(t, b, a1, a2, n_max, core_counts)
                    got = distribution._check_cell(t, b, a1, a2, n_max, first)
                    assert got == expected, (t, b, a1, a2, n_max)
    # a modulus far beyond n_max keeps the table at the nonzero counts
    counts = distribution._core_count_array(t, 50)
    first = distribution._first_cores(t, 50, 10**12)
    assert first == {m: m for m, c in enumerate(counts) if c}
    assert distribution._check_cell(t, 10**12, 0, 1, 50, first) == (
        _walk_cell(t, 10**12, 0, 1, 50, counts)
    )


def _grid_sweep(t, ell, n_max, core_counts):
    # Oracle: walk all b*b cells in order and keep the hypothesis cells.
    b, m, holds, _ = distribution._theorem(t, ell)
    return tuple(
        (a1, a2, _walk_cell(t, b, a1, a2, n_max, core_counts))
        for a1 in range(b)
        for a2 in range(b)
        if holds(m * (a2 - t * a1) + 1)
    )


@pytest.mark.parametrize("counts", ["true", "ones", "sparse"])
def test_sweep_cells_match_grid_walk(monkeypatch, counts):
    # The sweep visits only the hypothesis cells; a stand-in c_t with
    # nonzero counts on hypothesis classes reaches its counterexample branch.
    rng = random.Random(16)
    true_counts = distribution._core_count_array
    statuses = set()
    for t, ell in [(2, ell) for ell in (3, 5, 7, 11, 13)] + [(3, 2), (3, 5), (3, 11)]:
        for n_max in (0, 1, 300):
            if counts == "true":
                core_counts = true_counts(t, n_max)
            elif counts == "ones":
                core_counts = [1] * (n_max + 1)
            else:
                core_counts = [
                    rng.randint(1, 5) if rng.random() < 0.03 else 0
                    for _ in range(n_max + 1)
                ]
            monkeypatch.setattr(
                distribution, "_core_count_array", lambda t, n_max: core_counts
            )
            expected = _grid_sweep(t, ell, n_max, core_counts)
            report = distribution._sweep(t, ell, n_max)
            assert report.cells == expected, (t, ell, n_max)
            assert report.values_checked == sum(v.checked for _, _, v in expected)
            assert report.counterexamples == tuple(
                (a1, a2, v.counterexample)
                for a1, a2, v in expected
                if v.status == COUNTEREXAMPLE
            )
            assert report.ok == (not report.counterexamples)
            statuses.update(v.status for _, _, v in expected)
    if counts == "true":
        assert statuses == {VERIFIED}
    else:
        assert statuses == {VERIFIED, COUNTEREXAMPLE}


def _first_nonzero_by_convolution(engine, a1, b, a2, n_max):
    for n in range(a2 % b, n_max + 1, b):
        if engine.count(a1, b, n):
            return n
    return None


@pytest.mark.parametrize(
    "t, ells, verify, sweep",
    [
        (2, (3, 5, 7, 11, 13), verify_2hook_vanishing, sweep_2hook_vanishing),
        (3, (2, 5, 11), verify_3hook_vanishing, sweep_3hook_vanishing),
    ],
)
def test_structural_check_matches_convolution_on_every_cell(
    monkeypatch, t, ells, verify, sweep
):
    n_max = 2000
    engine = HookDistribution(t, n_max)
    # every single-cell verify reads the engine's c_t instead of rebuilding it
    monkeypatch.setattr(
        distribution, "_core_count_array", lambda t, n_max: engine.core_counts
    )
    for ell in ells:
        b = ell if t == 2 else ell * ell
        table = distribution._first_cores(t, n_max, b)
        vanishing, hypothesis = [], []
        for a1 in range(b):
            for a2 in range(b):
                structural = distribution._check_cell(t, b, a1, a2, n_max, table)
                first = _first_nonzero_by_convolution(engine, a1, b, a2, n_max)
                assert structural.counterexample == first, (ell, a1, a2)
                if first is None:
                    vanishing.append((a1, a2))
                verdict = verify(ell, a1, a2, n_max)
                if verdict.status != HYPOTHESIS_NOT_MET:
                    hypothesis.append((a1, a2, verdict))
        assert vanishing == [(a1, a2) for a1, a2, _ in hypothesis], ell
        # the report holds what the sweep computed and nothing it was given
        report = sweep(ell, n_max)
        assert report == (
            b,
            tuple(hypothesis),
            sum(v.checked for _, _, v in hypothesis),
            (),
        )
        assert report.hypothesis_cells == len(hypothesis)


def test_sweeps_are_deterministic_and_verified():
    rep1 = sweep_2hook_vanishing(3, 300)
    rep2 = sweep_2hook_vanishing(3, 300)
    assert rep1.cells == rep2.cells
    assert rep1.ok and rep1.hypothesis_cells == 3

    rep = sweep_3hook_vanishing(2, 300)
    assert rep.ok and rep.hypothesis_cells == 4
    assert rep.counterexamples == ()
    with pytest.raises(ValueError):
        sweep_3hook_vanishing(3, 100)
