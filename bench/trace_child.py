"""Run one benchmark operation in this process with the tcores layers traced.

    PYTHONPATH=src python3 bench/trace_child.py cli table --t 3 --b 9
    PYTHONPATH=src python3 bench/trace_child.py driver --max-size 18 --sample 40 --seed 1

The operation's stdout is untouched, so the benchmark checks it against the
same digest as an untraced run. Each public function named in SPANS is
replaced, at every tcores module attribute that holds it (the name callers
look up), by a wrapper that adds its duration, its self time (duration
minus the wrapped calls made inside it) and one call to per-name totals.
Totals stay in memory; nothing per call is kept, because hot leaves such as
HookDistribution.count run about 10^5 times in one sweep. When the
operation ends, one line "TRACE <json>" goes to stderr.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

MARKER = "TRACE "

# (span name, module, attribute); a dotted attribute is a method of a class.
SPANS = (
    ("series.eta_inverse_power_series", "tcores.series", "eta_inverse_power_series"),
    ("series.sparse_product", "tcores.series", "sparse_product"),
    ("cores.c2", "tcores.cores", "c2"),
    ("cores.c3_divisor_sum", "tcores.cores", "c3_divisor_sum"),
    ("cores.c3_qf_count", "tcores.cores", "c3_qf_count"),
    ("cores.ct_count_series", "tcores.cores", "ct_count_series"),
    ("cores.count_t_cores_up_to", "tcores.cores", "count_t_cores_up_to"),
    ("cores.count_t_cores", "tcores.cores", "count_t_cores"),
    ("cores.verify_core_formulas", "tcores.cores", "verify_core_formulas"),
    ("distribution.HookDistribution", "tcores.distribution", "HookDistribution.__init__"),
    ("distribution.count", "tcores.distribution", "HookDistribution.count"),
    ("distribution.residue_counts", "tcores.distribution", "HookDistribution.residue_counts"),
    ("distribution.format_proportion", "tcores.distribution", "format_proportion"),
    ("distribution.verify_2hook_vanishing", "tcores.distribution", "verify_2hook_vanishing"),
    ("distribution.verify_3hook_vanishing", "tcores.distribution", "verify_3hook_vanishing"),
    ("distribution.sweep", "tcores.distribution", "sweep_2hook_vanishing"),
    ("distribution.sweep", "tcores.distribution", "sweep_3hook_vanishing"),
    ("abacus.decompose", "tcores.abacus", "decompose"),
    ("abacus.compose", "tcores.abacus", "compose"),
    ("abacus.t_core", "tcores.abacus", "t_core"),
    ("partitions.enumerate_partitions", "tcores.partitions", "enumerate_partitions"),
    ("partitions.count_t_hooks", "tcores.partitions", "count_t_hooks"),
    ("partitions.hook_rows", "tcores.partitions", "hook_rows"),
    ("nekrasov.product_side", "tcores.nekrasov", "product_side"),
    ("nekrasov.partition_side", "tcores.nekrasov", "partition_side"),
    ("nekrasov.check_identity", "tcores.nekrasov", "check_identity"),
    ("cli.main", "tcores.cli", "main"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))


def _bead_count(lam, t):
    return {"abacus.beads": -(-len(lam) // t) * t}


# Work counts read off a wrapped call's arguments (by the callee's parameter
# names) and result, once the call has returned.
COUNTERS = {
    # each 1/(1 - q^m) pass touches truncation + 1 - m coefficients
    "series.eta_inverse_power_series": lambda result, t, truncation: {
        "series.coeff_updates": t * truncation * (truncation + 1) // 2
    },
    "series.sparse_product": lambda result, factors, truncation: {
        "series.coeff_updates": sum(
            abs(e) * max(0, truncation + 1 - m) for m, e in factors
        )
    },
    "distribution.count": lambda result, self, a, b, n: {
        "distribution.count.terms": len(range(a % b, n // self.t + 1, b))
    },
    "distribution.sweep": lambda result, ell, n_max, threads=1: {
        "distribution.sweep.cells": len(result.cells),
        "distribution.sweep.hypothesis_cells": result.hypothesis_cells,
        "distribution.sweep.values_checked": result.values_checked,
    },
    "abacus.decompose": lambda result, lam, t: _bead_count(lam, t),
    "abacus.t_core": lambda result, lam, t: _bead_count(lam, t),
}
COUNTER_NAMES = (
    "series.coeff_updates",
    "distribution.count.terms",
    "distribution.sweep.cells",
    "distribution.sweep.hypothesis_cells",
    "distribution.sweep.values_checked",
    "abacus.beads",
)


class Tracer:
    """Per-name totals [seconds, self seconds, calls] and work counters."""

    def __init__(self) -> None:
        self.totals = {name: [0.0, 0.0, 0] for name in SPAN_NAMES}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        # one frame per open span, holding the time its wrapped children took;
        # the bottom frame stands for the untraced caller
        self.stack = [[0.0]]

    def wrap(self, name, fn):
        rec, stack, counter = self.totals[name], self.stack, COUNTERS.get(name)
        counters = self.counters

        def enter():
            frame = [0.0]
            stack.append(frame)
            return frame, perf_counter()

        def leave(frame, start):
            elapsed = perf_counter() - start
            stack.pop()
            stack[-1][0] += elapsed
            rec[0] += elapsed
            rec[1] += elapsed - frame[0]

        if inspect.isgeneratorfunction(fn):
            # time each step, not the consumer's work between steps
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec[2] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame, start = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, start)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, start = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, start)
                rec[2] += 1
            if counter is not None:
                for key, inc in counter(result, *args, **kwargs).items():
                    counters[key] += inc
            return result

        return wrapper

    def install(self) -> None:
        """Replace each SPANS target at every tcores module attribute holding it."""
        importlib.import_module("tcores.cli")
        modules = [m for n, m in sys.modules.items() if n == "tcores" or n.startswith("tcores.")]
        for name, module, attr in SPANS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def report(self) -> dict:
        return {"spans": self.totals, "counters": self.counters}


def main(argv: list[str]) -> int:
    kind, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        if kind == "cli":
            import tcores.cli

            return tcores.cli.main(args)
        if kind == "driver":
            import bijection_driver

            return bijection_driver.main(args)
        raise SystemExit(f"unknown operation kind {kind!r}")
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(tracer.report()) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
