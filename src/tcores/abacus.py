"""Bead abaci for partitions: structure numbers, t-cores, and t-quotients.

A partition with s parts (zeros allowed as padding) has structure numbers
B_i = lam_i - i + s, strictly decreasing. On t runners, B = t*r + c is a bead
in row r >= 0 of runner c. runners(lam, t) lists each runner's rows, and one
decoder turns runner rows back into a partition. Sliding a bead up a row
removes a rim t-hook, so the t-core keeps only each runner's bead count
(core_from_counts; a t-core is its vector of runner counts, as in Garvan,
Kim and Stanton, "Cranks and t-cores", 1990), and each runner's rows, read
as one-runner structure numbers, decode to one t-quotient component. Abacus
is the same picture as a validated set of (row + 1, runner) beads.

Bead-count convention: unless a caller supplies one, abaci are padded with
zero parts so the bead count s is the least multiple of t with s >= #parts.
Fixing s mod t pins down the labelling of the quotient components (changing
s by one cyclically permutes the runners); any two paddings that agree mod t
produce the same labelled quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .partitions import Partition


@dataclass(frozen=True)
class Abacus:
    """t runners holding beads at positions (row, column), row >= 1."""

    t: int
    beads: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.t < 2:
            raise ValueError(f"runner count must be at least 2, got {self.t}")
        object.__setattr__(self, "beads", frozenset(self.beads))
        for r, c in self.beads:
            if r < 1 or not 0 <= c < self.t:
                raise ValueError(f"bead {(r, c)} outside runners 0..{self.t - 1}")

    def column_rows(self, c: int) -> list[int]:
        """Occupied rows of runner c, ascending."""
        return sorted(r for r, cc in self.beads if cc == c)


class CanonicalCoreAbacus(NamedTuple):
    """Unique per-runner bead counts (a_0, ..., a_{t-1}) of a t-core, a_0 = 0."""

    column_counts: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.column_counts)

    def partition(self) -> Partition:
        return core_from_counts(self.column_counts)


@dataclass(frozen=True)
class CoreQuotient:
    """Image of a partition under the core/quotient bijection."""

    core: Partition
    quotient: tuple[Partition, ...]
    t: int

    @property
    def quotient_size(self) -> int:
        return sum(comp.size for comp in self.quotient)

    @property
    def size(self) -> int:
        """Size of the partition this pair composes to."""
        return self.core.size + self.t * self.quotient_size


def default_bead_count(num_parts: int, t: int) -> int:
    """Least multiple of t that is >= num_parts."""
    return -(-num_parts // t) * t


def structure_numbers(lam: Partition, pad_to: int | None = None) -> tuple[int, ...]:
    """B_i = lam_i - i + s for i = 1..s, with s parts after zero-padding.

    With the default s = #parts, B_i is the hook length of cell (i, 1).
    Padding by one extra zero part shifts every entry up by one and appends 0.
    """
    s = len(lam) if pad_to is None else pad_to
    if s < len(lam):
        raise ValueError(f"pad_to={s} is below the number of parts {len(lam)}")
    padding = range(s - len(lam) - 1, -1, -1)
    # enumerate(lam, 1 - s) counts j = i - s for the 1-based row i
    return (*[p - j for j, p in enumerate(lam, 1 - s)], *padding)


# Most runners one abacus may have. Storage is linear in t, about 160 bytes
# a runner: `tcores decompose 1 --t 100000` took 0.6 s and 31 MB peak on a
# 2.1 GHz Xeon, and --t 1000000 took 6 s and 170 MB.
MAX_RUNNERS = 100_000


def runners(
    lam: Partition, t: int, bead_count: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Runner c lists B // t for each structure number B = c mod t of lam.

    Rows are descending; the bead count follows the padding rule by default.
    Raises ValueError for t above MAX_RUNNERS.
    """
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    if t > MAX_RUNNERS:
        raise ValueError(f"t={t} is over the limit of {MAX_RUNNERS} runners")
    s = default_bead_count(len(lam), t) if bead_count is None else bead_count
    rows: list[list[int]] = [[] for _ in range(t)]
    for b in structure_numbers(lam, pad_to=s):
        rows[b % t].append(b // t)
    return tuple(map(tuple, rows))


def _decode(rows: Sequence[Iterable[int]]) -> Partition:
    # The partition with structure numbers t*r + c for each row r of runner c.
    t = len(rows)
    values = sorted((t * r + c for c, rs in enumerate(rows) for r in rs), reverse=True)
    return _partition_from_descending(values)


def core_from_counts(counts: Iterable[int]) -> Partition:
    """The t-core whose runner c holds counts[c] beads in its top rows."""
    counts = tuple(counts)
    if min(counts, default=0) < 0:
        raise ValueError(f"bead counts must be non-negative, got {counts}")
    return _decode([range(a) for a in counts])


def abacus_from_partition(
    lam: Partition, t: int, bead_count: int | None = None
) -> Abacus:
    """Abacus of lam on t runners; default bead count per the padding rule."""
    beads = frozenset(
        (r + 1, c) for c, rs in enumerate(runners(lam, t, bead_count)) for r in rs
    )
    return Abacus(t, beads)


def partition_from_abacus(ab: Abacus) -> Partition:
    """Decode an abacus back to its partition (trailing zero parts dropped)."""
    return _decode([[r - 1 for r in ab.column_rows(c)] for c in range(ab.t)])


def _partition_from_descending(values: Sequence[int]) -> Partition:
    # The i-th largest of s structure numbers B is the part B + i - s.
    shifts = enumerate(values, 1 - len(values))
    return Partition([p for i, b in shifts if (p := b + i) > 0])


def slide_bead(ab: Abacus, bead: tuple[int, int]) -> Abacus:
    """Move one bead up a row; the decoded partition loses one rim t-hook."""
    if bead not in ab.beads:
        raise ValueError(f"no bead at {bead}")
    r, c = bead
    if r == 1:
        raise ValueError(f"bead {bead} is already in the top row")
    if (r - 1, c) in ab.beads:
        raise ValueError(f"target position {(r - 1, c)} is occupied")
    return Abacus(ab.t, (ab.beads - {bead}) | {(r - 1, c)})


def compact_columns(ab: Abacus) -> Abacus:
    """Slide every bead maximally upward in its runner (order-independent)."""
    beads = frozenset(
        (r, c)
        for c in range(ab.t)
        for r in range(1, len(ab.column_rows(c)) + 1)
    )
    return Abacus(ab.t, beads)


def t_core(lam: Partition, t: int) -> Partition:
    """The unique t-core obtained by removing rim t-hooks until none remain."""
    if t > max(lam.size, 1):  # t >= 2 and no hook of lam reaches length t
        return lam
    return core_from_counts(map(len, runners(lam, t)))


def quotient_components(ab: Abacus) -> tuple[Partition, ...]:
    """Decode each runner of ab on its own, as a one-runner abacus.

    Beads of runner c in rows r_1 < ... < r_m become the one-runner structure
    numbers r_j - 1 with bead count m. Unchanged when the bead count grows by
    a full multiple of t (each runner then gains row-1 beads, i.e. zero
    padding), which is why the multiple-of-t convention makes the labelling
    well defined.
    """
    return tuple(
        _partition_from_descending([r - 1 for r in reversed(ab.column_rows(c))])
        for c in range(ab.t)
    )


def decompose(lam: Partition, t: int) -> CoreQuotient:
    """Split lam into its t-core and t-quotient.

    The total quotient size equals the number of t-hooks of lam, and
    |lam| = |core| + t * (total quotient size).
    """
    rows = runners(lam, t)
    return CoreQuotient(
        core=core_from_counts(map(len, rows)),
        quotient=tuple(map(_partition_from_descending, rows)),
        t=t,
    )


def compose(cq: CoreQuotient) -> Partition:
    """Inverse of decompose: rebuild the partition from core and quotient."""
    t = cq.t
    if len(cq.quotient) != t:
        raise ValueError(f"quotient must have {t} components, got {len(cq.quotient)}")
    rows = runners(cq.core, t)
    # A t-core's runners are gap-free: their descending rows start at count - 1.
    if any(rs and rs[0] != len(rs) - 1 for rs in rows):
        raise ValueError(f"core {tuple(cq.core)} has a {t}-hook")
    counts = list(map(len, rows))
    # Grow the padding (one bead lands atop every runner per t extra zero
    # parts) until each runner has at least as many beads as its component
    # has parts.
    extra = max(
        [len(comp) - counts[c] for c, comp in enumerate(cq.quotient)], default=0
    )
    if extra > 0:
        counts = [a + extra for a in counts]
    return _decode(
        [structure_numbers(comp, pad_to=a) for comp, a in zip(cq.quotient, counts)]
    )


def canonicalize_core_abacus(ab: Abacus) -> CanonicalCoreAbacus:
    """Unique bead-count tuple (0, a_1, ..., a_{t-1}) for a t-core abacus.

    The abacus must be in core form: every runner's beads fill rows 1..a_c
    with no gaps. The shift (a_0, ..., a_{t-1}) -> (a_1, ..., a_{t-1}, a_0 - 1)
    preserves the decoded partition and is applied until runner 0 is empty.
    """
    counts = []
    for c in range(ab.t):
        rows = ab.column_rows(c)
        if rows != list(range(1, len(rows) + 1)):
            raise ValueError(f"runner {c} has gaps: occupied rows {rows}")
        counts.append(len(rows))
    while counts[0] != 0:
        counts = counts[1:] + [counts[0] - 1]
    return CanonicalCoreAbacus(tuple(counts))
