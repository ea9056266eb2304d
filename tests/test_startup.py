"""Which tcores modules a process runs, and what the trace harness sees.

The package puts each library module in sys.modules as a lazy module
(tcores/__init__.py): it is there from `import tcores` on, but its code runs
only when something first reads one of its attributes.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tcores

SRC = Path(tcores.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"
LIBRARY = ("abacus", "cores", "distribution", "nekrasov", "partitions", "series", "sieves")


def modules_run(code: str) -> tuple[list[str], list[str]]:
    """Run `code` under `python -S`; return the tcores.* modules run and still lazy."""
    probe = (
        f"import sys, types; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        f"{code}\n"
        "mods = {n: m for n, m in sys.modules.items() if n.startswith('tcores.')}\n"
        "print(sorted(n for n, m in mods.items() if type(m) is types.ModuleType))\n"
        "print(sorted(n for n, m in mods.items() if type(m) is not types.ModuleType))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    run, lazy = result.stdout.splitlines()[-2:]
    return ast.literal_eval(run), ast.literal_eval(lazy)


def test_import_runs_no_submodule():
    assert modules_run("import tcores") == ([], [f"tcores.{m}" for m in LIBRARY])


@pytest.mark.parametrize(
    "argv, runs",
    [
        ("--help", ()),
        # the sweeps and the t = 2, 3 and 5 tables read only sieves' tables
        ("verify part1 --ell 3 --nmax 50", ("distribution", "sieves")),
        ("verify part2 --ell 2 --nmax 50", ("distribution", "sieves")),
        ("table --n 30,60", ("distribution", "series", "sieves")),
        # every cores-count runs sieves, whose closed_forms picks the route;
        # only a t without a closed form runs series
        ("cores-count --n 6 --t 2", ("cores", "sieves")),
        ("verify core-formulas --nmax 20 --series-nmax 10 --tmax 4", ("cores", "series", "sieves")),
        ("no-check --mmax 4", ("nekrasov", "partitions", "series")),
        ("table --t 5 --b 5 --n 30", ("distribution", "series", "sieves")),
        # sieves.core_counts reads series.ct_count_series at t = 4
        ("table --t 4 --n 30,60", ("distribution", "series", "sieves")),
        ("cores-count --n 6 --t 3", ("cores", "sieves")),
        ("cores-count --n 6 --t 7", ("cores", "series", "sieves")),
    ],
)
def test_each_command_runs_only_its_modules(argv, runs):
    code = (
        "import tcores.cli\n"
        f"try: tcores.cli.main({argv.split()!r})\n"
        "except SystemExit: pass"  # --help exits from argparse
    )
    run, lazy = modules_run(code)
    assert run == sorted(["tcores.cli", *(f"tcores.{m}" for m in runs)])
    assert lazy == [f"tcores.{m}" for m in LIBRARY if m not in runs]


def test_library_imports_form_no_cycle():
    # edges of `from . import x` and `from .x import y` between tcores modules
    graph = {}
    for source in Path(tcores.__file__).parent.glob("*.py"):
        edges = graph.setdefault(source.stem, set())
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                edges.update([node.module] if node.module else (a.name for a in node.names))
    done, stack = set(), []

    def visit(module):
        assert module not in stack, " -> ".join([*stack[stack.index(module):], module])
        if module not in done:
            stack.append(module)
            for target in sorted(graph.get(module, ())):
                visit(target)
            done.add(stack.pop())

    for module in sorted(graph):
        visit(module)
    assert {"cores", "series", "sieves"} <= done


def test_driver_runs_only_abacus_and_partitions():
    code = "import bijection_driver; bijection_driver.main(" + repr(
        ["--max-size", "5", "--sample", "2", "--seed", "1"]) + ")"
    assert modules_run(code) == (
        ["tcores.abacus", "tcores.partitions"],
        ["tcores.cores", "tcores.distribution", "tcores.nekrasov", "tcores.series",
         "tcores.sieves"],
    )


def test_quick_tour_names_resolve_to_their_submodules():
    for name in tcores.__all__:
        value = getattr(tcores, name)
        assert vars(sys.modules[value.__module__])[name] is value, name
    namespace = {}
    exec("from tcores import *", namespace)
    assert set(tcores.__all__) <= set(namespace) and set(tcores.__all__) <= set(dir(tcores))
    assert all(isinstance(getattr(tcores, m), types.ModuleType) for m in LIBRARY)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        tcores.nope


# Nonzero span calls and counters of one traced operation; every other span
# and counter reads 0. Every span call is as it was before sieves split from
# cores. The counter charges |e| passes per factor, so the t = 2 tuple series
# E(q) * 1/E(q)^3 counts four passes, though it makes one. The t = 4 table
# reads series.ct_count_series through sieves.core_counts, and the tracer
# counts it under the name cores resolves it by.
TRACED = {
    "cli verify part1 --ell 3": (
        {"distribution.sweep": 1, "cli.main": 1},
        {"distribution.sweep.cells": 3, "distribution.sweep.hypothesis_cells": 3,
         "distribution.sweep.values_checked": 2001},
    ),
    "cli table --n 30,60": (
        {"series.eta_inverse_power_series": 1, "series.sparse_product": 1,
         "distribution.HookDistribution": 1, "distribution.residue_counts": 2,
         "distribution.format_proportion": 6, "cli.main": 1},
        {"series.coeff_updates": 1050},
    ),
    "cli table --t 4 --n 30,60": (
        {"series.eta_inverse_power_series": 1, "series.sparse_product": 2,
         "cores.ct_count_series": 1, "distribution.HookDistribution": 1,
         "distribution.residue_counts": 2, "distribution.format_proportion": 6,
         "cli.main": 1},
        {"series.coeff_updates": 828},
    ),
    "cli no-check --mmax 4": (
        {"series.eta_inverse_power_series": 1, "series.sparse_product": 1,
         "partitions.enumerate_partitions": 5, "partitions.hook_rows": 12,
         "nekrasov.check_identity": 1, "cli.main": 1},
        {"series.coeff_updates": 14},
    ),
    # count_t_cores reads c2 off sieves.closed_forms, which is built at each
    # call and so holds the wrapped form; verify_core_formulas reads the
    # forms off sieves and series at call time, and cores resolves the span
    # names to them
    "cli cores-count --n 6 --t 2": (
        {"cores.c2": 1, "cores.count_t_cores": 1, "cli.main": 1},
        {},
    ),
    "cli verify core-formulas --nmax 20 --series-nmax 10 --tmax 4": (
        {"series.sparse_product": 3, "cores.c2": 21, "cores.c3_divisor_sum": 21,
         "cores.c3_qf_count": 21, "cores.ct_count_series": 3,
         "cores.count_t_cores_up_to": 5, "cores.verify_core_formulas": 1, "cli.main": 1},
        {"series.coeff_updates": 100},
    ),
    "driver --max-size 5 --sample 2 --seed 1": (
        {"abacus.decompose": 126, "abacus.compose": 126, "abacus.t_core": 126,
         "partitions.enumerate_partitions": 6, "partitions.count_t_hooks": 126},
        {"abacus.beads": 1710},
    ),
}


def test_cores_resolves_its_span_names_where_they_are_defined():
    # the tracer looks these spans up in cores, which binds none of them
    from tcores import cores, series, sieves

    assert cores.c2 is sieves.c2 and cores.c3_divisor_sum is sieves.c3_divisor_sum
    assert cores.ct_count_series is series.ct_count_series
    assert not {"c2", "c3_divisor_sum", "ct_count_series"} & set(vars(cores))
    with pytest.raises(AttributeError, match="no attribute 'c5_divisor_sum'"):
        cores.c5_divisor_sum


@pytest.mark.parametrize("op", TRACED)
def test_tracer_sees_every_span(op):
    result = subprocess.run(
        [sys.executable, str(BENCH / "trace_child.py"), *op.split()],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    line = result.stderr.splitlines()[-1]
    assert line.startswith("TRACE ")
    trace = json.loads(line.removeprefix("TRACE "))
    calls = {name: calls for name, (_, _, calls) in trace["spans"].items() if calls}
    counters = {name: n for name, n in trace["counters"].items() if n}
    assert (calls, counters) == TRACED[op]
