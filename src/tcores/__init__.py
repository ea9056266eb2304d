"""Exact hook-count statistics for integer partitions.

Partitions, hook lengths, abacus encodings, t-cores and t-quotients, closed
forms for 2-, 3- and 5-core counts, exact big-integer generating functions for
partition statistics, and a truncated check of the Nekrasov-Okounkov
hook-length formula. All arithmetic is exact: big integers and rationals,
no floating point.

The package namespace holds the names of the README's quick tour; everything
else is imported from its submodule (tcores.abacus, tcores.cores, ...).

Each library submodule is bound here, and put in sys.modules, as a lazy
module: it is compiled and run when code first reads one of its attributes,
so a process runs only the modules its command reaches. The quick-tour names
resolve through __getattr__ on first use, by the same rule.
"""

import importlib.util
import sys

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "c2",
    "c3_divisor_sum",
    "compose",
    "count_t_hooks",
    "decompose",
    "enumerate_t_cores",
    "formatted_proportions",
    "pt_count",
    "residue_profile",
    "t_core",
]

# the submodule that defines each quick-tour name
_EXPORTS = {
    **dict.fromkeys(("compose", "decompose", "t_core"), "abacus"),
    **dict.fromkeys(("c2", "c3_divisor_sum"), "sieves"),
    "enumerate_t_cores": "cores",
    **dict.fromkeys(("formatted_proportions", "pt_count", "residue_profile"), "distribution"),
    **dict.fromkeys(("Partition", "count_t_hooks"), "partitions"),
}


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


abacus = _lazy("abacus")
cores = _lazy("cores")
distribution = _lazy("distribution")
nekrasov = _lazy("nekrasov")
partitions = _lazy("partitions")
series = _lazy("series")
sieves = _lazy("sieves")


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
