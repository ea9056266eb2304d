"""Exact counts of partitions by number of t-hooks in a residue class.

Write p_t(a, b; n) for the number of partitions of n whose t-hook count is
congruent to a mod b. The core/quotient bijection turns this into a
convolution: a partition of n with exactly k t-hooks is a t-core of n - t*k
paired with a t-tuple of partitions of total size k, so

    p_t(a, b; n) = sum over k = a mod b, 0 <= t*k <= n of
                   c_t(n - t*k) * Q_t(k),

with Q_t(k) the number of t-tuples of total size k. Everything is exact
big-integer arithmetic; proportions are exact rationals rendered to
PROPORTION_PLACES decimal places (round half to even). A modulus b below 1
is refused before any series is built.

The vanishing verifiers need no products: every c_t(m) is >= 0 and every
Q_t(k) > 0 (the tuple of (k) and t - 1 empty partitions has size k), so
p_t(a, b; n) = 0 exactly when every c_t(n - t*k) with k = a mod b is zero:
no t-core sits on the progression, which is how the paper proves each
vanishing. The cores in question have sizes in the class r = a2 - t*a1 mod
b, and each theorem's hypothesis is a condition on that class: (8r+1 / ell)
= -1 for t = 2, b = ell, and ord_ell(3r+1) = 1 for t = 3, b = ell^2. A
sweep asks the hypothesis once per class r and reads only the c_t array
(sieves.core_counts, as every table does), through one table of the least m
with c_t(m) > 0 in each class mod b. For each a1 it visits only the good
classes shifted by t*a1, so it costs O(b + n_max + hypothesis cells).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

from . import series, sieves

__all__ = [
    "HookDistribution",
    "Verdict",
    "SweepReport",
    "pt_count",
    "residue_profile",
    "format_proportion",
    "formatted_proportions",
    "verify_2hook_vanishing",
    "verify_3hook_vanishing",
    "sweep_2hook_vanishing",
    "sweep_3hook_vanishing",
    "VERIFIED",
    "HYPOTHESIS_NOT_MET",
    "COUNTEREXAMPLE",
]

PROPORTION_PLACES = 4

VERIFIED = "verified"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
COUNTEREXAMPLE = "counterexample"


# Largest n_max for which _core_count_array builds c_t(0..n_max). The c_3
# sieve is cheap: verify part2 --ell 2 --nmax 100000 took 0.12 s in a fresh
# process on a 2.1 GHz Xeon. A table at that n still pays for the tuple
# series, and at t = 4 and t >= 6 for the c_t series too: on a 2-CPU 2.0 GHz
# Xeon VM, table --n 100000 took 0.75 s at --t 3 --b 9, 0.60 s at --t 5,
# 1.4 s at --t 2 and 3.3 s at --t 4.
NMAX_BUDGET = 100_000


def _check_n_max(n_max: int, name: str = "n_max") -> None:
    if n_max < 0:
        raise ValueError(f"{name} must be non-negative, got {n_max}")
    if n_max > NMAX_BUDGET:
        raise ValueError(f"{name}={n_max} is over the budget of {NMAX_BUDGET}")


def _check_modulus(b: int) -> None:
    if b < 1:
        raise ValueError(f"modulus b must be at least 1, got {b}")


def _core_count_array(t: int, n_max: int) -> Sequence[int]:
    _check_n_max(n_max)
    return sieves.core_counts(t, n_max)


class HookDistribution:
    """Precomputed series for counting partitions of n <= n_max by t-hooks."""

    def __init__(self, t: int, n_max: int) -> None:
        if t < 2:
            raise ValueError(f"t must be at least 2, got {t}")
        self.t = t
        self.n_max = n_max
        self.core_counts = _core_count_array(t, n_max)
        self.tuple_counts = series.eta_inverse_power_series(t, n_max // t)

    def _check(self, b: int, n: int) -> None:
        _check_modulus(b)
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={n} outside precomputed range 0..{self.n_max}")

    def count(self, a: int, b: int, n: int) -> int:
        """p_t(a, b; n), summing only the hook counts k = a mod b."""
        self._check(b, n)
        t = self.t
        total = 0
        for k in range(a % b, n // t + 1, b):
            total += self.core_counts[n - t * k] * self.tuple_counts[k]
        return total

    def residue_counts(self, b: int, n: int) -> list[int]:
        """All b residue-class counts of n in one pass; sums to p(n)."""
        self._check(b, n)
        t = self.t
        counts = [0] * b
        for k in range(n // t + 1):
            c = self.core_counts[n - t * k]
            if c:
                counts[k % b] += c * self.tuple_counts[k]
        return counts


def pt_count(t: int, a: int, b: int, n: int) -> int:
    """Number of partitions of n whose t-hook count is a mod b.

    Builds the series for this n on each call; for many n, build one
    HookDistribution(t, n_max) yourself and call its count.
    """
    _check_modulus(b)
    _check_n_max(n, "n")
    return HookDistribution(t, n).count(a, b, n)


def format_proportion(count: int, total: int) -> str:
    """count/total to PROPORTION_PLACES decimals, round half to even, exactly."""
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    scale = 10**PROPORTION_PLACES
    q, r = divmod(count * scale, total)
    if 2 * r > total or (2 * r == total and q % 2 == 1):
        q += 1
    return f"{q // scale}.{q % scale:0{PROPORTION_PLACES}d}"


def formatted_proportions(counts: Sequence[int]) -> tuple[str, ...]:
    """Each count over their sum, p(n) for a residue profile, formatted."""
    total = sum(counts)
    return tuple(format_proportion(c, total) for c in counts)


def residue_profile(t: int, b: int, n: int) -> tuple[int, ...]:
    """All b counts p_t(0, b; n), ..., p_t(b-1, b; n); they sum to p(n).

    Builds the series for this n on each call; for many n, build one
    HookDistribution(t, n_max) yourself and call its residue_counts.
    """
    _check_modulus(b)
    _check_n_max(n, "n")
    return tuple(HookDistribution(t, n).residue_counts(b, n))


class Verdict(NamedTuple):
    """Outcome of one vanishing check: verified, inapplicable, or refuted."""

    status: str
    checked: int = 0
    counterexample: int | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != COUNTEREXAMPLE


# Most (a1, a2) grid cells, modulus^2, that one sweep may cover. The report
# keeps a verdict per hypothesis cell, half the grid for part 1: part1 --ell
# 997 took about 1.1 s and 110 MB in a fresh process on a 2.0 GHz Xeon, and
# about 1.3 s at n_max = NMAX_BUDGET. part2 --ell 23 has 279,841.
SWEEP_CELL_BUDGET = 1_000_000


def _first_cores(t: int, n_max: int, b: int) -> dict[int, int]:
    """r -> the least m <= n_max with m = r mod b and c_t(m) > 0, in one pass.

    A dict, never a list of b entries: a single cell's b can be about 10^12.
    """
    counts = _core_count_array(t, n_max)
    return {m % b: m for m in range(n_max, -1, -1) if counts[m]}


def _check_cell(t, b, a1, a2, n_max, first) -> Verdict:
    # The first n = a2 mod b with some c_t(n - t*k) > 0, k = a1 mod b, is the
    # counterexample; checked counts the n before it. Only the smallest term,
    # k = a = a1 mod b, needs testing: c_t(n - t*k) > 0 is also the smallest
    # term of n - t*(k - a), an earlier n of the same class mod b. So n - t*a
    # is the least m = a2 - t*a1 mod b with c_t(m) > 0.
    n = first.get((a2 - t * a1) % b, n_max + 1) + t * (a1 % b)
    if n <= n_max:
        return Verdict(COUNTEREXAMPLE, checked=(n - a2 % b) // b, counterexample=n)
    return Verdict(VERIFIED, checked=len(range(a2 % b, n_max + 1, b)))


def _theorem(t: int, ell: int):
    """(b, m, holds, note) of the paper's vanishing theorem for t-hooks mod ell.

    holds(v) is the hypothesis on v = m*r + 1 for the class r = a2 - t*a1
    mod b (see the module docstring); it depends on v mod b only. note, a
    format string in v and ell, is the verdict's text when it fails.
    """
    if t == 2:
        if ell < 3 or not sieves.is_prime(ell):
            raise ValueError(f"ell must be an odd prime, got {ell}")
        # Euler's criterion: (v/ell) = -1 exactly when v^((ell-1)/2) = -1 mod ell
        return ell, 8, lambda v: pow(v, ell // 2, ell) == ell - 1, "({v}/{ell}) != -1"
    if ell % 3 != 2 or not sieves.is_prime(ell):
        raise ValueError(f"ell must be a prime congruent to 2 mod 3, got {ell}")
    # v = 1 mod 3 is never 0, so ord_ell(v) is finite
    return (ell * ell, 3, lambda v: v % ell == 0 != v % (ell * ell),
            "ord_{ell}({v}) != 1")


def _verify(t: int, ell: int, a1: int, a2: int, n_max: int) -> Verdict:
    b, m, holds, note = _theorem(t, ell)
    _check_n_max(n_max)  # refused like a sweep's, whether or not the hypothesis holds
    v = m * (a2 - t * a1) + 1
    if not holds(v):
        return Verdict(HYPOTHESIS_NOT_MET, note=note.format(v=v, ell=ell))
    return _check_cell(t, b, a1, a2, n_max, _first_cores(t, n_max, b))


def verify_2hook_vanishing(ell: int, a1: int, a2: int, n_max: int) -> Verdict:
    """Check p_2(a1, ell; n) = 0 for every n <= n_max with n = a2 mod ell.

    Applies only when the symbol (-16*a1 + 8*a2 + 1 / ell) is -1; otherwise
    the verdict is hypothesis-not-met and nothing is asserted.
    """
    return _verify(2, ell, a1, a2, n_max)


def verify_3hook_vanishing(ell: int, a1: int, a2: int, n_max: int) -> Verdict:
    """Check p_3(a1, ell^2; n) = 0 for every n <= n_max with n = a2 mod ell^2.

    Applies when ell is a prime congruent to 2 mod 3 and -9*a1 + 3*a2 + 1 is
    nonzero with ell-adic valuation exactly 1.
    """
    return _verify(3, ell, a1, a2, n_max)


class SweepReport(NamedTuple):
    """Verdicts for the hypothesis cells (a1, a2) of one modulus, in order.

    values_checked sums the cells' checked counts, and counterexamples lists
    (a1, a2, n) for each refuted cell; the sweep counts both as it goes.
    """

    modulus: int
    cells: tuple[tuple[int, int, Verdict], ...]
    values_checked: int
    counterexamples: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    @property
    def hypothesis_cells(self) -> int:
        return len(self.cells)


def _sweep(t: int, ell: int, n_max: int) -> SweepReport:
    b, m, holds, _ = _theorem(t, ell)
    if b * b > SWEEP_CELL_BUDGET:
        raise ValueError(f"a sweep mod {b} covers {b * b} grid cells, "
                         f"over the budget of {SWEEP_CELL_BUDGET}")
    first = _first_cores(t, n_max, b)
    good = [r for r in range(b) if holds(m * r + 1)]
    # A class with no core <= n_max verifies every a1: one shared verdict per a2.
    verified = [_check_cell(t, b, 0, a2, n_max, {}) for a2 in range(b)]
    cells = []
    values_checked = 0
    counterexamples = []
    for a1 in range(b):
        # a2 = r + s mod b; starting at the first r >= b - s keeps a2 ascending
        s = t * a1 % b
        i = bisect_left(good, b - s)
        for r in good[i:] + good[:i]:
            a2 = (r + s) % b
            if r in first:
                verdict = _check_cell(t, b, a1, a2, n_max, first)
                if verdict.counterexample is not None:
                    counterexamples.append((a1, a2, verdict.counterexample))
            else:
                verdict = verified[a2]
            values_checked += verdict.checked
            cells.append((a1, a2, verdict))
    return SweepReport(b, tuple(cells), values_checked, tuple(counterexamples))


def sweep_2hook_vanishing(ell: int, n_max: int) -> SweepReport:
    """verify_2hook_vanishing's verdicts on its hypothesis cells mod ell."""
    return _sweep(2, ell, n_max)


def sweep_3hook_vanishing(ell: int, n_max: int) -> SweepReport:
    """verify_3hook_vanishing's verdicts on its hypothesis cells mod ell^2."""
    return _sweep(3, ell, n_max)
