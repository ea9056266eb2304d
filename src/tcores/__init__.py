"""Exact hook-count statistics for integer partitions.

Partitions, hook lengths, abacus encodings, t-cores and t-quotients, closed
forms for 2-, 3- and 5-core counts, exact big-integer generating functions for
partition statistics, and a truncated check of the Nekrasov-Okounkov
hook-length formula. All arithmetic is exact: big integers and rationals,
no floating point.

The package namespace holds the names of the README's quick tour; everything
else is imported from its submodule (tcores.abacus, tcores.cores, ...).
"""

from .abacus import compose, decompose, t_core
from .cores import c2, c3_divisor_sum, enumerate_t_cores
from .distribution import formatted_proportions, pt_count, residue_profile
from .partitions import Partition, count_t_hooks

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
