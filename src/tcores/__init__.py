"""Exact hook-count statistics for integer partitions.

Partitions, hook lengths, abacus encodings, t-cores and t-quotients, closed
forms for 2- and 3-core counts, exact big-integer generating functions for
partition statistics, and a truncated check of the Nekrasov-Okounkov
hook-length formula. All arithmetic is exact: big integers and rationals,
no floating point.
"""

from .abacus import (
    Abacus,
    CanonicalCoreAbacus,
    CoreQuotient,
    abacus_from_partition,
    canonicalize_core_abacus,
    compose,
    decompose,
    partition_from_abacus,
    quotient_components,
    slide_bead,
    structure_numbers,
    t_core,
)
from .cores import (
    CoreCount,
    QFSolution,
    c2,
    c3_divisor_sum,
    c3_nonvanishing,
    c3_qf_count,
    c3_qf_solutions,
    count_t_cores,
    ct_count_series,
    enumerate_t_cores,
    legendre_symbol,
    padic_valuation,
    verify_core_formulas,
)
from .distribution import (
    HookDistribution,
    ResidueProfile,
    brute_force_profile,
    partition_count,
    pt_count,
    residue_profile,
    sweep_2hook_vanishing,
    sweep_3hook_vanishing,
    verify_2hook_vanishing,
    verify_3hook_vanishing,
)
from .partitions import (
    Partition,
    conjugate,
    count_t_hooks,
    enumerate_partitions,
    hook_length,
    hook_multiset,
    representation_dimension,
)
from .series import eta_inverse_power_series

__version__ = "0.1.0"

__all__ = [
    "Abacus",
    "CanonicalCoreAbacus",
    "CoreCount",
    "CoreQuotient",
    "HookDistribution",
    "Partition",
    "QFSolution",
    "ResidueProfile",
    "abacus_from_partition",
    "brute_force_profile",
    "c2",
    "c3_divisor_sum",
    "c3_nonvanishing",
    "c3_qf_count",
    "c3_qf_solutions",
    "canonicalize_core_abacus",
    "compose",
    "conjugate",
    "count_t_cores",
    "count_t_hooks",
    "ct_count_series",
    "decompose",
    "enumerate_partitions",
    "enumerate_t_cores",
    "eta_inverse_power_series",
    "hook_length",
    "hook_multiset",
    "legendre_symbol",
    "padic_valuation",
    "partition_count",
    "partition_from_abacus",
    "pt_count",
    "quotient_components",
    "representation_dimension",
    "residue_profile",
    "slide_bead",
    "structure_numbers",
    "sweep_2hook_vanishing",
    "sweep_3hook_vanishing",
    "t_core",
    "verify_2hook_vanishing",
    "verify_3hook_vanishing",
    "verify_core_formulas",
]
