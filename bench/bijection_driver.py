"""Library driver of the bijection-cores workload: core/quotient round trips.

For every partition of size <= --max-size and for a seeded sample of larger
partitions, long (many small parts) and wide (a few large parts), and for
every t in 2..7, it checks:

    compose(decompose(lam, t)) == lam
    |lam| = |core| + t * |quotient|
    |quotient| = count_t_hooks(lam, t)
    t_core(lam, t) == core

It prints one JSON line. The "exhaustive" part covers the fixed partitions
only and carries a sha256 over every (t, lam, core, quotient), so the
benchmark can compare it with the digest recorded for this program. The
sample depends on --seed and is checked by the invariants alone.

Run it from the repository root with the library on the path:

    PYTHONPATH=src python3 bench/bijection_driver.py --max-size 18 --sample 40 --seed 1

Every library call goes through its module attribute (abacus.decompose, ...)
so that the traced run can wrap it. Exit code 1 when any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from tcores import abacus, partitions

T_VALUES = range(2, 8)
SAMPLE_SIZES = (60, 240)
WIDE_MAX_PARTS = 4
LONG_MAX_PART = 3


def check(lam: partitions.Partition, t: int, failures: list[str]) -> abacus.CoreQuotient:
    """Decompose lam and append a message to failures for each broken invariant."""
    cq = abacus.decompose(lam, t)
    where = f"t={t} lam={tuple(lam)}"
    if abacus.compose(cq) != lam:
        failures.append(f"{where}: compose(decompose(lam)) != lam")
    if lam.size != cq.core.size + t * cq.quotient_size:
        failures.append(f"{where}: |lam| != |core| + t*|quotient|")
    if cq.quotient_size != partitions.count_t_hooks(lam, t):
        failures.append(f"{where}: |quotient| != number of {t}-hooks")
    if abacus.t_core(lam, t) != cq.core:
        failures.append(f"{where}: t_core differs from the decomposed core")
    return cq


def long_partition(rng: random.Random, n: int) -> partitions.Partition:
    parts = []
    while n:
        part = rng.randint(1, min(LONG_MAX_PART, n))
        parts.append(part)
        n -= part
    return partitions.Partition(sorted(parts, reverse=True))


def wide_partition(rng: random.Random, n: int) -> partitions.Partition:
    k = rng.randint(1, min(WIDE_MAX_PARTS, n))
    cuts = sorted(rng.sample(range(1, n), k - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    return partitions.Partition(sorted(parts, reverse=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, required=True)
    parser.add_argument("--sample", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    failures: list[str] = []
    digest = hashlib.sha256()
    exhaustive = 0
    for n in range(args.max_size + 1):
        for lam in partitions.enumerate_partitions(n):
            for t in T_VALUES:
                cq = check(lam, t, failures)
                quotient = [tuple(comp) for comp in cq.quotient]
                digest.update(f"{t}|{tuple(lam)}|{tuple(cq.core)}|{quotient}\n".encode())
                exhaustive += 1

    rng = random.Random(args.seed)
    sampled = 0
    for i in range(args.sample):
        shape = long_partition if i % 2 == 0 else wide_partition
        lam = shape(rng, rng.randint(*SAMPLE_SIZES))
        for t in T_VALUES:
            check(lam, t, failures)
            sampled += 1

    print(json.dumps({
        "exhaustive": {"checked": exhaustive, "sha256": digest.hexdigest()},
        "sampled": sampled,
        "failed": len(failures),
        "failures": failures[:5],
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
