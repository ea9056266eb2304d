"""Bead abaci for partitions: structure numbers, t-cores, and t-quotients.

A partition with s parts (zeros allowed as padding) has structure numbers
B_i = lam_i - i + s, strictly decreasing. On t runners, B = t*r + c is a bead
in row r >= 0 of runner c. runners(lam, t) lists each runner's rows, and one
decoder turns runner rows back into a partition. Moving B to a free B - t
(a bead one row up) removes a rim t-hook, so the t-core keeps only each
runner's bead count (core_from_counts; a t-core is its vector of runner
counts, as in Garvan, Kim and Stanton, "Cranks and t-cores", 1990), and
each runner's rows, read as one-runner structure numbers, decode to one
t-quotient component.

Bead-count convention: abaci are padded with zero parts so the bead count s
is the least multiple of t with s >= #parts. Fixing s mod t pins down the
labelling of the quotient components (changing s by one cyclically permutes
the runners); any two paddings that agree mod t produce the same labelled
quotient.
"""

from __future__ import annotations

from itertools import chain
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from .partitions import Partition, _unchecked


_EMPTY = Partition()


class CoreQuotient(NamedTuple):
    """Image of a partition under the core/quotient bijection; t = len(quotient)."""

    core: Partition
    quotient: tuple[Partition, ...]

    @property
    def quotient_size(self) -> int:
        return sum(map(sum, self.quotient))


def default_bead_count(num_parts: int, t: int) -> int:
    """Least multiple of t that is >= num_parts."""
    return -(-num_parts // t) * t


# Most runners one abacus may have. Storage is linear in t, about 160 bytes
# a runner: `tcores decompose 1 --t 100000` took 0.6 s and 31 MB peak on a
# 2.1 GHz Xeon, and --t 1000000 took 6 s and 170 MB.
MAX_RUNNERS = 100_000


def _beads(lam: Partition, t: int) -> tuple[int, Iterator[int]]:
    # (k, the parts' structure numbers) at the default bead count; the k < t
    # padding beads k-1, ..., 0 sit in row 0 of runners 0..k-1, below the rest.
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    if t > MAX_RUNNERS:
        raise ValueError(f"t={t} is over the limit of {MAX_RUNNERS} runners")
    s = default_bead_count(len(lam), t)
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


def runners(lam: Partition, t: int) -> tuple[tuple[int, ...], ...]:
    """Runner c lists B // t for each structure number B = c mod t of lam.

    Rows are descending; the bead count follows the padding rule.
    Raises ValueError for t above MAX_RUNNERS.
    """
    return tuple(map(tuple, _rows(lam, t)))


def core_from_counts(counts: Iterable[int]) -> Partition:
    """The t-core whose runner c holds counts[c] beads in its top rows."""
    counts = tuple(counts)
    low = min(counts, default=0)
    if low < 0:
        raise ValueError(f"bead counts must be non-negative, got {counts}")
    # Dropping row 0 of every runner (t beads, one shift of the padding)
    # leaves the core unchanged, so every count is first lowered by low.
    t = len(counts)
    values = [b for c, a in enumerate(counts) for b in range(c, c + t * (a - low), t)]
    values.sort(reverse=True)
    return _partition_from_descending(values)


def _partition_from_descending(values: Sequence[int]) -> Partition:
    # The i-th largest of s distinct structure numbers B >= 0 is the part
    # B + i - s >= 0, non-increasing in i, so dropping the zeros leaves a
    # valid partition. Gap-free beads, the top one at B = s - 1, are empty.
    s = len(values)
    if not s or values[0] == s - 1:
        return _EMPTY
    return _unchecked(filter(None, map(add, values, range(1 - s, 1))))


def t_core(lam: Partition, t: int) -> Partition:
    """The unique t-core obtained by removing rim t-hooks until none remain."""
    if type(lam) is not Partition:
        lam = Partition(lam)
    if t > max(lam.size, 1):  # t >= 2 and no hook of lam reaches length t
        return lam
    padding, values = _beads(lam, t)
    counts = [1] * padding + [0] * (t - padding)
    for b in values:
        counts[b % t] += 1
    return core_from_counts(counts)


def decompose(lam: Partition, t: int) -> CoreQuotient:
    """Split lam into its t-core and t-quotient.

    The total quotient size equals the number of t-hooks of lam, and
    |lam| = |core| + t * (total quotient size).
    """
    if type(lam) is not Partition:
        lam = Partition(lam)
    rows = _rows(lam, t)
    return CoreQuotient(
        core=core_from_counts(map(len, rows)),
        quotient=tuple(map(_partition_from_descending, rows)),
    )


def compose(cq: CoreQuotient) -> Partition:
    """Inverse of decompose: rebuild the partition from core and quotient."""
    core, quotient = cq
    if type(core) is not Partition:
        core = Partition(core)
    quotient = [comp if type(comp) is Partition else Partition(comp) for comp in quotient]
    t = len(quotient)
    rows = _rows(core, t)
    # A t-core's runners are gap-free: their descending rows start at count - 1.
    if any(rs and rs[0] != len(rs) - 1 for rs in rows):
        raise ValueError(f"core {tuple(core)} has a {t}-hook")
    # t more zero parts put one more bead atop every runner: add them until
    # runner c can hold comp's structure numbers, padded to counts[c] parts.
    extra = max(0, max(len(comp) - len(rs) for comp, rs in zip(quotient, rows)))
    counts = [len(rs) + extra for rs in rows]
    values = [
        t * r + c
        for c, (comp, a) in enumerate(zip(quotient, counts))
        for r in chain(map(add, comp, range(a - 1, -1, -1)), range(a - len(comp)))
    ]
    return _partition_from_descending(sorted(values, reverse=True))
