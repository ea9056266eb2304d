import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tcores import abacus, cli, cores, distribution, nekrasov, partitions, series, sieves


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_hooks_text(capsys):
    code, out = run(capsys, "hooks", "3,2,1", "--t", "2", "--t", "3")
    assert code == 0
    assert out.splitlines() == [
        "5 3 1",
        "3 1",
        "1",
        "hook lengths: 1 1 1 3 3 5",
        "h_2 = 0",
        "h_3 = 2",
    ]


def test_hooks_single_cell(capsys):
    code, out = run(capsys, "hooks", "1")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_hooks_json(capsys):
    code, out = run(capsys, "hooks", "5,3,2,1", "--t", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == [5, 3, 2, 1]
    assert payload["t_hook_counts"] == {"3": 3}
    assert payload["hook_rows"][0] == [8, 6, 4, 2, 1]


def test_hooks_cell_budget(capsys, monkeypatch):
    calls = []
    real = partitions.hook_rows

    def counting(lam):
        calls.append(lam)
        return real(lam)

    monkeypatch.setattr(partitions, "hook_rows", counting)
    # one part past the real budget is refused before any grid is built
    assert cli.main(["hooks", str(partitions.HOOK_CELL_BUDGET + 1)]) == 2
    assert calls == [] and capsys.readouterr().out == ""
    monkeypatch.setattr(partitions, "HOOK_CELL_BUDGET", 6)
    code, out = run(capsys, "hooks", "3,2,1", "--t", "2")
    assert code == 0 and out.splitlines()[0] == "5 3 1"
    assert calls
    calls.clear()
    monkeypatch.setattr(partitions, "HOOK_CELL_BUDGET", 5)
    assert cli.main(["hooks", "3,2,1", "--t", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err
    assert calls == []
    # one grid serves the hook lengths, and count_t_hooks every h_t, in either format
    monkeypatch.setattr(partitions, "HOOK_CELL_BUDGET", 6)
    code, out = run(capsys, "hooks", "3,2,1", "--t", "2", "--t", "3")
    assert code == 0 and out.splitlines()[-3:] == [
        "hook lengths: 1 1 1 3 3 5", "h_2 = 0", "h_3 = 2"]
    assert len(calls) == 1
    calls.clear()
    code, out = run(capsys, "hooks", "3,2,1", "--t", "2", "--t", "3",
                    "--format", "json")
    assert code == 0 and json.loads(out)["t_hook_counts"] == {"2": 0, "3": 2}
    assert len(calls) == 1
    calls.clear()
    # a t below 2 is refused before any grid is built
    assert cli.main(["hooks", "3,2,1", "--t", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 2" in captured.err
    assert calls == []


def test_bad_partition_is_usage_error(capsys):
    # argparse refuses a bad partition or integer list with its usage exit code
    for argv, message in (
        (["hooks", "1,2,3"], "bad partition '1,2,3'"),
        (["table", "--n", "30,x"], "bad integer list '30,x'"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_decompose_json(capsys):
    code, out = run(capsys, "decompose", "5,3,2,1", "--t", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["core"] == [2]
    assert payload["quotient_size"] == 3
    assert payload["identity"] == "11 = 2 + 3*3"
    assert sorted(map(sum, payload["quotient"])) == [0, 1, 2]


def test_decompose_empty_partition(capsys):
    code, out = run(capsys, "decompose", "", "--t", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["core"] == [] and payload["quotient"] == [[], []]


def test_core_text(capsys):
    code, out = run(capsys, "core", "5,3,2,1", "--t", "3")
    assert code == 0 and out == "2\n"
    code, out = run(capsys, "core", "2", "--t", "2")
    assert code == 0 and out == "-\n"


def test_core_of_small_partition_for_huge_t(capsys):
    code, out = run(capsys, "core", "1", "--t", "1000000000")
    assert code == 0
    assert out == "1\n"


@pytest.mark.parametrize("partition", ["", "-", "1"])
@pytest.mark.parametrize("t", ["0", "1"])
def test_core_refuses_t_below_2_even_without_hooks(capsys, partition, t):
    assert cli.main(["core", partition, "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: t must be at least 2, got {t}\n"


def test_cores_count_json(capsys):
    code, out = run(capsys, "cores-count", "--n", "2", "--t", "3", "--witnesses",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["witnesses"] == [[2], [1, 1]]


def test_cores_count_witnesses_many_runners(capsys):
    code, out = run(capsys, "cores-count", "--n", "2", "--t", "1500", "--witnesses")
    assert code == 0
    assert out.splitlines() == ["c_1500(2) = 2", "  2", "  1,1"]


def test_cores_count_witnesses_for_t_above_n(capsys):
    # one empty partition costs no parts, however large t is
    code, out = run(capsys, "cores-count", "--n", "0", "--t", "20000001", "--witnesses")
    assert code == 0
    assert out == "c_20000001(0) = 1\n  -\n"
    # n p(n) parts exceed the budget from n = 54 on: refused before p(100000)
    code = cli.main(["cores-count", "--n", "100000", "--t", "100001", "--witnesses"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budget" in captured.err


def test_cores_count_witnesses_over_budget(capsys):
    code = cli.main(["cores-count", "--n", "500", "--t", "7", "--witnesses"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budget" in captured.err


@pytest.mark.parametrize("n, t", [(95_693, 2), (104_166, 3)])
def test_cores_count_witnesses_series_bound_edge(capsys, n, t):
    # the walk keeps the c_t series' n bound at t = 2, 3: the last n answers
    code, out = run(capsys, "cores-count", "--n", str(n), "--t", str(t), "--witnesses")
    count = cores.count_t_cores(n, t)
    assert code == 0
    assert out.splitlines()[0] == f"c_{t}({n}) = {count}"
    assert len(out.splitlines()) == 1 + count


def test_table_builds_engine_once(capsys, monkeypatch):
    builds = []

    class Counting(distribution.HookDistribution):
        def __init__(self, t, n_max):
            builds.append((t, n_max))
            super().__init__(t, n_max)

    monkeypatch.setattr(distribution, "HookDistribution", Counting)
    code, out = run(capsys, "table")
    assert code == 0
    assert len(out.splitlines()) == 1 + 3 * len(cli.DEFAULT_TABLE_ROWS)
    assert builds == [(2, max(cli.DEFAULT_TABLE_ROWS))]


def test_table_json_formats_each_row_once(capsys, monkeypatch):
    argv = ("table", "--t", "3", "--b", "9", "--n", "30,60", "--format", "json")
    _, expected = run(capsys, *argv)
    calls = []
    real = distribution.format_proportion

    def counting(count, total):
        calls.append((count, total))
        return real(count, total)

    monkeypatch.setattr(distribution, "format_proportion", counting)
    code, out = run(capsys, *argv)
    assert code == 0 and out == expected
    assert len(calls) == 2 * 9


def test_table_csv(capsys):
    code, out = run(capsys, "table", "--t", "2", "--b", "1", "--n", "10")
    assert code == 0
    assert out.splitlines() == ["n,a,count,proportion", "10,0,42,1.0000"]


def test_table_single_residue(capsys):
    code, out = run(capsys, "table", "--t", "2", "--b", "3", "--n", "9,12", "--a", "2")
    assert code == 0
    assert out.splitlines() == [
        "n,a,count,proportion",
        "9,2,0,0.0000",
        "12,2,0,0.0000",
    ]
    code = cli.main(["table", "--b", "3", "--n", "9", "--a", "5"])
    assert code == 2


def test_table_deterministic(capsys):
    code1, out1 = run(capsys, "table", "--t", "2", "--b", "3", "--n", "30,60")
    code2, out2 = run(capsys, "table", "--t", "2", "--b", "3", "--n", "30,60")
    assert code1 == code2 == 0
    assert out1 == out2


def test_table_json_roundtrip(capsys):
    code, out = run(capsys, "table", "--t", "3", "--b", "5", "--n", "12,13",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [row["n"] for row in payload] == [12, 13]
    for row in payload:
        assert sum(int(c) for c in row["counts"]) == int(row["total"])
        assert len(row["proportions"]) == 5


def test_verify_part1_single_cell(capsys):
    code, out = run(capsys, "verify", "part1", "--ell", "5", "--a1", "1",
                    "--a2", "1", "--nmax", "200")
    assert code == 0
    assert "VERIFIED" in out


def test_verify_part1_sweep(capsys):
    code, out = run(capsys, "verify", "part1", "--ell", "3", "--nmax", "150")
    assert code == 0
    assert "3 hypothesis cells" in out


def test_verify_part2_single_cell(capsys):
    code, out = run(capsys, "verify", "part2", "--ell", "2", "--a1", "0",
                    "--a2", "3", "--nmax", "150")
    assert code == 0
    assert "VERIFIED" in out


def test_verify_hypothesis_not_met_is_ok(capsys):
    code, out = run(capsys, "verify", "part1", "--ell", "5", "--a1", "0",
                    "--a2", "0", "--nmax", "100")
    assert code == 0
    assert "hypothesis-not-met" in out


@pytest.mark.parametrize(
    "argv, note",
    [
        ("verify part1 --ell 3 --a1 -1 --a2 -7 --nmax 50", "(-39/3) != -1"),
        ("verify part2 --ell 5 --a1 0 --a2 0 --nmax 10", "ord_5(1) != 1"),
    ],
)
def test_verify_hypothesis_not_met_note(capsys, argv, note):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert f"hypothesis-not-met\n  {note}\nVERIFIED\n" in out


def test_verify_bad_ell_usage_error(capsys):
    code = cli.main(["verify", "part1", "--ell", "9", "--nmax", "50"])
    assert code == 2
    code = cli.main(["verify", "part2", "--ell", "7", "--nmax", "50"])
    assert code == 2


def test_verify_mismatched_cell_flags(capsys):
    code = cli.main(["verify", "part1", "--ell", "5", "--a1", "1", "--nmax", "50"])
    assert code == 2


# A sweep, a cell whose hypothesis holds and cells whose hypothesis fails.
_NMAX_ARGVS = (
    ["verify", "part1", "--ell", "3"],
    ["verify", "part1", "--ell", "3", "--a1", "0", "--a2", "0"],
    ["verify", "part2", "--ell", "5"],
    ["verify", "part2", "--ell", "5", "--a1", "1", "--a2", "1"],
    ["verify", "part2", "--ell", "5", "--a1", "0", "--a2", "0"],
)


def _assert_nmax_refused(capsys, nmax, message):
    for argv in _NMAX_ARGVS:
        assert cli.main([*argv, "--nmax", str(nmax)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_verify_negative_nmax(capsys):
    # refused before any cell, whether or not the cell's hypothesis holds
    _assert_nmax_refused(capsys, -1, "n_max must be non-negative, got -1")
    with pytest.raises(ValueError, match="non-negative"):
        distribution.verify_2hook_vanishing(3, 0, 0, -1)


def test_verify_nmax_over_budget(capsys):
    nmax = distribution.NMAX_BUDGET + 1
    _assert_nmax_refused(
        capsys, nmax, f"n_max={nmax} is over the budget of {distribution.NMAX_BUDGET}"
    )


@pytest.mark.parametrize("t", range(2, 8))
@pytest.mark.parametrize("witnesses", [[], ["--witnesses"]])
def test_cores_count_negative_n(capsys, t, witnesses):
    assert cli.main(["cores-count", "--n", "-1", "--t", str(t), *witnesses]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be non-negative, got -1\n"


def test_sweep_cell_budget(capsys, monkeypatch):
    assert 3 * 23**4 < distribution.SWEEP_CELL_BUDGET  # part2 --ell 23 fits
    monkeypatch.setattr(distribution, "SWEEP_CELL_BUDGET", 9)
    code, out = run(capsys, "verify", "part1", "--ell", "3", "--nmax", "50")
    assert code == 0
    assert "3 hypothesis cells" in out
    monkeypatch.setattr(distribution, "SWEEP_CELL_BUDGET", 8)
    code = cli.main(["verify", "part1", "--ell", "3", "--nmax", "50"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budget" in captured.err


def test_nmax_budget_boundary(capsys, monkeypatch):
    assert 4000 <= distribution.NMAX_BUDGET  # every vanishing-sweeps command fits
    single = ["verify", "part1", "--ell", "5", "--a1", "1", "--a2", "1", "--nmax", "50"]
    for argv in (["verify", "part2", "--ell", "2", "--nmax", "50"], single):
        monkeypatch.setattr(distribution, "NMAX_BUDGET", 50)
        code, out = run(capsys, *argv)
        assert code == 0 and out.endswith("VERIFIED\n")
        monkeypatch.setattr(distribution, "NMAX_BUDGET", 49)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        "no-check --mmax 32",
        "no-check --mmax 1000000000",
        "verify no-identity --mmax 32",
        "cores-count --n 200000 --t 7",
        "cores-count --n 200000 --t 5 --witnesses",
        "cores-count --n 95694 --t 2 --witnesses",
        "cores-count --n 104167 --t 3 --witnesses",
        "verify part1 --ell 5 --nmax 100001",
        "verify part2 --ell 2 --nmax 100001",
        "verify part1 --ell 5 --a1 1 --a2 1 --nmax 100001",
    ],
)
def test_over_budget_exits_before_work(capsys, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("did work before the budget check")

    real_product = series.sparse_product

    def p_series_only(factors, truncation):
        # the budget checks read p(k) off 1/E(q); any other product must be
        # refused by its cost model before a pass reads a single term
        if list(factors) == [(1, -1)]:
            return real_product(factors, truncation)
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_pentagonal_terms", "_jacobi_terms", "_eta_power", "_multiply"):
                patch.setattr(series, name, no_work)
            return real_product(factors, truncation)

    monkeypatch.setattr(nekrasov, "_scaled_product_sides", no_work)
    monkeypatch.setattr(nekrasov, "_scaled_partition_side", no_work)
    monkeypatch.setattr(series, "sparse_product", p_series_only)
    monkeypatch.setattr(sieves, "c2", no_work)
    monkeypatch.setattr(sieves, "c2_counts", no_work)
    monkeypatch.setattr(sieves, "c3_divisor_sum", no_work)
    monkeypatch.setattr(sieves, "c3_divisor_sums", no_work)
    monkeypatch.setattr(sieves, "c5_divisor_sum", no_work)
    monkeypatch.setattr(sieves, "c5_divisor_sums", no_work)
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        "cores-count --n 100000000000000000000 --t 3",
        "verify part1 --ell 1000000000000000003 --nmax 10",
        "verify part1 --ell 1000000000000000003 --a1 0 --a2 0 --nmax 10",
    ],
)
def test_trial_division_limit_exits_2(capsys, argv):
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "over the limit" in captured.err


def test_table_cell_budget(capsys, monkeypatch):
    builds = []

    class Counting(distribution.HookDistribution):
        def __init__(self, t, n_max):
            builds.append((t, n_max))
            super().__init__(t, n_max)

    monkeypatch.setattr(distribution, "HookDistribution", Counting)
    assert 3 * len(cli.DEFAULT_TABLE_ROWS) <= cli.TABLE_CELL_BUDGET
    assert cli.main(["table", "--b", "1000000000", "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err
    assert builds == []
    monkeypatch.setattr(cli, "TABLE_CELL_BUDGET", 6)  # 3 residues x 2 rows
    code, out = run(capsys, "table", "--b", "3", "--n", "9,12")
    assert code == 0 and len(out.splitlines()) == 1 + 6
    monkeypatch.setattr(cli, "TABLE_CELL_BUDGET", 5)
    assert cli.main(["table", "--b", "3", "--n", "9,12"]) == 2
    assert capsys.readouterr().out == ""
    assert builds == [(2, 12)]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("table --b 0 --n 60000", "modulus b must be at least 1, got 0"),
        ("table --b -1 --t 3 --n 60000", "modulus b must be at least 1, got -1"),
        ("table --b 0 --a 0 --n 5", "modulus b must be at least 1, got 0"),
        ("table --b 3 --a 3 --n 5", "--a must lie in 0..2"),
    ],
)
def test_table_bad_modulus_builds_no_engine(capsys, monkeypatch, argv, message):
    builds = []
    monkeypatch.setattr(distribution, "HookDistribution", lambda *a: builds.append(a))
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert builds == []


@pytest.mark.parametrize(
    "argv, message",
    [
        ("table --n 100000,-1", "n must be non-negative, got -1"),
        ("table --t 4 --n 60000,-1", "n must be non-negative, got -1"),
        ("table --n -1", "n must be non-negative, got -1"),
        ("table --t 3 --b 9 --n 5,100001", "n=100001 is over the budget of 100000"),
    ],
)
def test_table_bad_row_builds_no_engine(capsys, monkeypatch, argv, message):
    def no_build(*args):
        raise AssertionError("built the series before checking every row")

    monkeypatch.setattr(distribution, "HookDistribution", no_build)
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_builds_no_engine(capsys, monkeypatch):
    builds = []

    class Counting(distribution.HookDistribution):
        def __init__(self, t, n_max):
            builds.append((t, n_max))
            super().__init__(t, n_max)

    monkeypatch.setattr(distribution, "HookDistribution", Counting)
    for argv in (
        ["verify", "part1", "--ell", "5", "--nmax", "300"],
        ["verify", "part2", "--ell", "2", "--nmax", "300"],
        ["verify", "part1", "--ell", "5", "--a1", "1", "--a2", "1", "--nmax", "300"],
        ["verify", "part2", "--ell", "5", "--a1", "1", "--a2", "1", "--nmax", "300"],
    ):
        code, out = run(capsys, *argv)
        assert code == 0 and out.endswith("VERIFIED\n")
    assert builds == []


EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


# Every recorded CLI run but --help, whose in-process width follows the terminal.
@pytest.mark.parametrize(
    "argv",
    [key.removeprefix("cli ") for key in json.loads(EXPECTED.read_text())
     if key.startswith("cli ") and key != "cli --help"],
)
def test_verify_output_matches_recorded_digest(capsys, argv):
    recorded = json.loads(EXPECTED.read_text())["cli " + argv]
    code, out = run(capsys, *argv.split())
    assert code == recorded["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == recorded["sha256"]


def test_verify_no_identity(capsys):
    code, out = run(capsys, "verify", "no-identity", "--mmax", "6")
    assert code == 0
    assert "verified" in out


def test_no_check_alias(capsys):
    code, out = run(capsys, "no-check", "--mmax", "5")
    assert code == 0
    assert "VERIFIED" in out


def test_verify_core_formulas(capsys):
    code, out = run(capsys, "verify", "core-formulas", "--nmax", "60",
                    "--series-nmax", "40", "--tmax", "4")
    assert code == 0
    assert "VERIFIED" in out


def test_verify_core_formulas_tmax_9(capsys):
    code, out = run(capsys, "verify", "core-formulas", "--tmax", "9")
    assert code == 0
    assert out.endswith("n <= 200 for t <= 9 series (2610 checks)\nVERIFIED\n")


# c_2(7) = c_3(7) = 0: 7 is not triangular, and 3 * 7 + 1 = 2 * 11
@pytest.mark.parametrize(
    "module, name, fault, report",
    [
        (sieves, "c3_divisor_sums",
         lambda real: lambda n_max: [c + (n == 7) for n, c in enumerate(real(n_max))],
         "c_3(7): divisor sum 0, sieve 1, quadratic form 0, runner DP 0"),
        (sieves, "c2", lambda real: lambda n: real(n) + (n == 7),
         "c_2(7): closed form 1, runner DP 0"),
        (series, "ct_count_series",
         lambda real: lambda t, top: tuple(
             c + (t == 4 and n == 5) for n, c in enumerate(real(t, top))),
         "c_4: series and runner DP differ first at n=5"),
    ],
    ids=["c3-sieve", "c2-closed-form", "c4-series"],
)
def test_verify_core_formulas_checks_the_sieve(capsys, monkeypatch, module, name, fault, report):
    # each route the check reads, wrong at one n, is reported as the one mismatch
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    code, out = run(capsys, "verify", "core-formulas", "--nmax", "20",
                    "--series-nmax", "10", "--tmax", "4")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("MISMATCH")] == [
        f"MISMATCH {report}"
    ]
    assert out.endswith("COUNTEREXAMPLE FOUND\n")


def test_verify_core_formulas_over_budget(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("counted cores before the budget check")

    monkeypatch.setattr(cores, "count_t_cores_up_to", no_work)
    monkeypatch.setattr(series, "ct_count_series", no_work)
    for argv, message in (
        (["verify", "core-formulas", "--tmax", "100000"], "budget"),
        (["verify", "core-formulas", "--nmax", "-1"], "non-negative"),
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--nmax", "n_max must be non-negative, got -1"),
        ("--series-nmax", "series_n_max must be non-negative, got -1"),
    ],
)
def test_verify_core_formulas_names_the_negative_size(capsys, monkeypatch, flag, message):
    def no_work(*args):
        raise AssertionError("did work before the size check")

    # not even the budget estimate runs first
    for name in ("_dp_row_entries", "count_t_cores_up_to"):
        monkeypatch.setattr(cores, name, no_work)
    monkeypatch.setattr(series, "ct_count_series", no_work)
    monkeypatch.setattr(sieves, "c3_divisor_sums", no_work)
    assert cli.main(["verify", "core-formulas", flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("tmax", ["1", "-5"])
def test_verify_core_formulas_refuses_a_tmax_that_checks_no_series(capsys, monkeypatch, tmax):
    def no_work(*args):
        raise AssertionError("did work before the t_max check")

    for name in ("_dp_row_entries", "count_t_cores_up_to"):
        monkeypatch.setattr(cores, name, no_work)
    monkeypatch.setattr(series, "ct_count_series", no_work)
    monkeypatch.setattr(sieves, "c3_divisor_sums", no_work)
    monkeypatch.setattr(series, "sparse_product", no_work)
    assert cli.main(["verify", "core-formulas", "--tmax", tmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: t_max must be at least 2, got {tmax}\n"
    with pytest.raises(ValueError, match=f"^t_max must be at least 2, got {tmax}$"):
        cores.verify_core_formulas(t_max=int(tmax))


def test_decompose_runner_limit(capsys, monkeypatch):
    monkeypatch.setattr(abacus, "MAX_RUNNERS", 5)
    code, out = run(capsys, "decompose", "3,1", "--t", "5")
    assert code == 0 and json.loads(out)["quotient"] == [[]] * 5
    assert cli.main(["decompose", "3,1", "--t", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limit of 5 runners" in captured.err
    # a t beyond |lam| leaves the partition as its own core, with no runners
    code, out = run(capsys, "core", "3,1", "--t", "6")
    assert code == 0 and out == "3,1\n"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code = cli.main(["table", "--t", "2", "--b", "2", "--n", "8", "--out", str(target)])
    assert code == 0
    assert target.read_text().splitlines()[0] == "n,a,count,proportion"
    assert capsys.readouterr().out == ""


def test_out_to_unwritable_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code = cli.main(["table", "--n", "5", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert not target.exists()


def test_cli_import_skips_dataclasses():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import tcores.cli; "
        "print('dataclasses' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"


def test_cli_import_loads_every_module_but_no_unused_stdlib():
    # A cold start pays for json, fractions (with decimal) and pathlib only
    # where a command uses them. Every tcores module must still be in
    # sys.modules, though: bench/trace_child.py wraps functions only in the
    # tcores modules that `import tcores.cli` leaves there, so a module
    # imported inside a function would read 0 calls in every span. The
    # package puts each library module there as a lazy module, which runs on
    # its first attribute read (tests/test_startup.py); the tracer's reads
    # run it before wrapping. Neither the import nor main freezes the heap;
    # only the process entry, cli.run, does.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import tcores.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('tcores.'))); "
        "print([m for m in ('json', 'fractions', 'decimal', 'pathlib') if m in sys.modules]); "
        "import gc; print(gc.get_freeze_count()); "
        "tcores.cli.main(['cores-count', '--n', '6', '--t', '2']); print(gc.get_freeze_count())"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    modules = [f"tcores.{m}" for m in
               ("abacus", "cli", "cores", "distribution", "nekrasov", "partitions", "series",
                "sieves")]
    assert result.stdout == f"{modules}\n[]\n0\nc_2(6) = 1\n0\n"


@pytest.mark.parametrize("argv", [["no-check"], ["verify", "no-identity"]])
def test_no_identity_check_loads_no_fractions_or_json(argv):
    # check_identity works in integers, and its text output needs no json
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import tcores.cli; "
        f"code = tcores.cli.main({argv!r}); "
        "print(code, [m for m in ('json', 'fractions', 'decimal') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == (
        "hook-length identity verified for all q-degrees <= 12\nVERIFIED\n0 []\n"
    )


@pytest.mark.parametrize(
    "outcome, code",
    [(0, 0), (1, 1), (["--help"], 0), (["verify", "part9"], 2)],
    ids=["returns-0", "returns-1", "help", "usage-error"],
)
def test_run_freezes_then_exits_with_the_code_of_main(monkeypatch, capsys, outcome, code):
    # An int outcome is main's return value; a list is the argv given to the
    # real main, whose argparse raises SystemExit itself.
    real_main = cli.main
    calls = []

    def fake_main():
        calls.append("main")
        return outcome if isinstance(outcome, int) else real_main(outcome)

    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", fake_main)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == code
    assert calls == ["freeze", "main"]


@pytest.mark.parametrize(
    "argv",
    [
        "--help",
        "verify part1 --ell 4",
        "cores-count --n 6 --t 2 --witnesses --format json",
        "verify part2 --ell 5",
        "table --n 30,60 --out {out}",
    ],
)
def test_process_entry_matches_main(tmp_path, monkeypatch, capsysbinary, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to this width
    try:
        code = cli.main(argv.format(out=tmp_path / "main").split())
    except SystemExit as exc:
        code = exc.code
    captured = capsysbinary.readouterr()
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "tcores.cli", *argv.format(out=tmp_path / "run").split()],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (result.returncode, result.stdout, result.stderr) == (code, captured.out, captured.err)
    if "{out}" in argv:
        assert (tmp_path / "run").read_bytes() == (tmp_path / "main").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        "hooks 3,2,1 --t 2 --t 3 --format text",
        "hooks 3,2,1 --t 2 --t 3 --format json",
        "decompose 5,3,2,1 --t 3 --format text",
        "decompose 5,3,2,1 --t 3 --format json",
        "core 5,3,2,1 --t 3 --format text",
        "core 5,3,2,1 --t 3 --format json",
        "cores-count --n 6 --t 2 --witnesses --format text",
        "cores-count --n 6 --t 2 --witnesses --format json",
        "table --t 2 --b 3 --n 30,60 --format csv",
        "table --t 2 --b 3 --n 30,60 --format json",
        "table --t 2 --b 3 --n 30,60 --format text",
        "verify part1 --ell 5 --a1 1 --a2 1 --nmax 300",
        "verify part1 --ell 5 --nmax 300",
        "verify part2 --ell 5 --a1 1 --a2 1 --nmax 300",
        "verify part2 --ell 2 --nmax 300",
        "verify no-identity --mmax 6",
        "verify core-formulas --nmax 60 --series-nmax 40 --tmax 4",
        "no-check --mmax 5",
    ],
)
def test_out_file_holds_the_stdout_bytes(tmp_path, capsysbinary, argv):
    code = cli.main(argv.split())
    stdout = capsysbinary.readouterr().out
    target = tmp_path / "out"
    assert cli.main(argv.split() + ["--out", str(target)]) == code
    assert capsysbinary.readouterr().out == b""
    assert stdout and target.read_bytes() == stdout


def test_refused_run_writes_no_out_file(tmp_path, capsys):
    target = tmp_path / "P"
    assert cli.main(["verify", "part1", "--ell", "4", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ell must be an odd prime, got 4\n"
    assert not target.exists()
