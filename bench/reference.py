"""A fixed stdlib-only workload that the benchmark times between operations.

    python3 bench/reference.py

Mostly a plain interpreter loop, with a short big-integer power-series pass
(the partition numbers by strided 1/(1-q^m) updates), in plain Python and
independent of tcores. It prints one digest line, which the benchmark checks
like an operation's output. The benchmark divides each operation's time by
this workload's time next to it (see README.md), so the reference must
never change: a changed reference changes every normalised figure.
"""

from __future__ import annotations

import hashlib

LOOP = 2_500_000
N = 500


def interpreter_loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def partition_numbers(n: int) -> list[int]:
    coeffs = [1] + [0] * n
    for m in range(1, n + 1):
        for k in range(m, n + 1):
            coeffs[k] += coeffs[k - m]
    return coeffs


def main() -> None:
    digest = hashlib.sha256(repr((interpreter_loop(LOOP), partition_numbers(N)[N])).encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
