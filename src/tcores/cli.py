"""Command-line front end.

Subcommands: hooks, decompose, core, cores-count, table, verify, no-check.
Exit codes: 0 on success (all checks verified), 1 when a verification sweep
finds a counterexample, 2 on usage errors and unwritable --out paths. Output
is deterministic for fixed arguments; --format selects text, json, or csv.
Each command returns its exit code and output lines, and main writes the
lines once, to stdout or to --out, so a refused run writes nothing.
main(argv) is the in-process API; run() is the process entry point.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import abacus, cores, distribution, nekrasov, partitions

# highest q-degree `verify no-identity` and `no-check` check by default
DEFAULT_MMAX = 12
DEFAULT_TABLE_ROWS = (300, 600, 900, 4500, 4800, 5100)
# Most (row, residue) cells one table may hold: 10^6 took about 2.3 s and
# 218 MB peak on a 2.1 GHz Xeon.
TABLE_CELL_BUDGET = 1_000_000


def _dumps(payload, **kwargs) -> str:
    import json  # loaded only for a --format json payload

    return json.dumps(payload, **kwargs)


def _parse_partition(text: str) -> partitions.Partition:
    text = text.strip()
    if text in ("", "-"):
        return partitions.Partition()
    try:
        parts = [int(tok) for tok in text.split(",")]
        return partitions.Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def cmd_hooks(args) -> tuple[int, list[str]]:
    lam = args.partition
    ts = args.t or []
    if lam.size > partitions.HOOK_CELL_BUDGET:
        raise ValueError(
            f"the hook grid has {lam.size} cells, over the budget of "
            f"{partitions.HOOK_CELL_BUDGET}"
        )
    # every count, and so every refusal of a t, comes before the grid is built
    t_hooks = [(t, partitions.count_t_hooks(lam, t)) for t in ts]
    rows = partitions.hook_rows(lam)
    lengths = sorted(h for row in rows for h in row)
    if args.format == "json":
        payload = {
            "partition": list(lam),
            "hook_rows": rows,
            "hook_lengths": lengths,
            "t_hook_counts": {str(t): k for t, k in t_hooks},
        }
        return 0, [_dumps(payload, indent=2)]
    lines = [" ".join(map(str, row)) for row in rows]
    lines.append("hook lengths: " + " ".join(map(str, lengths)))
    lines += [f"h_{t} = {k}" for t, k in t_hooks]
    return 0, lines


def cmd_decompose(args) -> tuple[int, list[str]]:
    lam, t = args.partition, args.t
    core, quotient = cq = abacus.decompose(lam, t)
    identity = f"{lam.size} = {core.size} + {t}*{cq.quotient_size}"
    if args.format == "text":
        lines = [
            f"partition: {','.join(map(str, lam)) or '-'}",
            f"core:      {','.join(map(str, core)) or '-'}",
        ]
        for c, comp in enumerate(quotient):
            lines.append(f"quotient[{c}]: {','.join(map(str, comp)) or '-'}")
        ok = lam.size == core.size + t * cq.quotient_size
        return 0, lines + [identity + (" OK" if ok else " MISMATCH")]
    payload = {
        "partition": list(lam),
        "t": t,
        "core": list(core),
        "quotient": [list(comp) for comp in quotient],
        "size": lam.size,
        "core_size": core.size,
        "quotient_size": cq.quotient_size,
        "identity": identity,
    }
    return 0, [_dumps(payload, indent=2)]


def cmd_core(args) -> tuple[int, list[str]]:
    core = abacus.t_core(args.partition, args.t)
    if args.format == "json":
        return 0, [_dumps({"t": args.t, "core": list(core)})]
    return 0, [",".join(map(str, core)) or "-"]


def cmd_cores_count(args) -> tuple[int, list[str]]:
    found = cores.enumerate_t_cores(args.n, args.t) if args.witnesses else None
    count = cores.count_t_cores(args.n, args.t) if found is None else len(found)
    if args.format == "json":
        payload = {"n": args.n, "t": args.t, "count": count}
        if found is not None:
            payload["witnesses"] = [list(w) for w in found]
        return 0, [_dumps(payload, indent=2)]
    lines = [f"c_{args.t}({args.n}) = {count}"]
    if found is not None:
        lines += ["  " + (",".join(map(str, w)) or "-") for w in found]
    return 0, lines


def cmd_table(args) -> tuple[int, list[str]]:
    rows = args.n
    distribution._check_modulus(args.b)
    if args.a is not None and not 0 <= args.a < args.b:
        raise ValueError(f"--a must lie in 0..{args.b - 1}")
    residues = range(args.b) if args.a is None else (args.a,)
    if (cells := args.b * len(rows)) > TABLE_CELL_BUDGET:
        raise ValueError(f"the table has {cells} cells, over the budget of {TABLE_CELL_BUDGET}")
    for n in rows:  # every row is refused before the series are built
        distribution._check_n_max(n, "n")
    engine = distribution.HookDistribution(args.t, max(rows))
    formatted = []
    for n in rows:
        counts = engine.residue_counts(args.b, n)
        formatted.append((n, counts, distribution.formatted_proportions(counts)))
    if args.format == "json":
        payload = [
            {
                "n": n,
                "total": str(sum(counts)),
                "counts": [str(counts[a]) for a in residues],
                "proportions": [props[a] for a in residues],
            }
            for n, counts, props in formatted
        ]
        return 0, [_dumps(payload, indent=2)]
    if args.format == "text":
        lines = [f"t={args.t} b={args.b}"]
        for n, _, props in formatted:
            lines.append(f"n={n}: " + " ".join(props[a] for a in residues))
        return 0, lines
    lines = ["n,a,count,proportion"]
    for n, counts, props in formatted:
        for a in residues:
            lines.append(f"{n},{a},{counts[a]},{props[a]}")
    return 0, lines


def _verify_part(args) -> tuple[int, list[str]]:
    if (args.a1 is None) != (args.a2 is None):
        raise ValueError("--a1 and --a2 must be given together")
    hooks = 2 if args.target == "part1" else 3
    kind = f"{hooks}-hook vanishing"
    if args.a1 is not None:
        verify = getattr(distribution, f"verify_{hooks}hook_vanishing")
        verdict = verify(args.ell, args.a1, args.a2, args.nmax)
        lines = [f"{kind} ell={args.ell}: {verdict.status}" + (
            f" at n={verdict.counterexample}" if verdict.counterexample is not None else ""
        )]
        if verdict.status == distribution.VERIFIED:
            lines.append(f"  {verdict.checked} values of n checked, all zero")
        elif verdict.note:
            lines.append(f"  {verdict.note}")
        return (0 if verdict.ok else 1), lines
    report = getattr(distribution, f"sweep_{hooks}hook_vanishing")(args.ell, args.nmax)
    lines = [f"{kind}, ell={args.ell}, residues mod {report.modulus}, n <= {args.nmax}:"]
    suffixes = {}  # the sweep shares one Verdict among cells; format it once
    for a1, a2, v in report.cells:
        suffix = suffixes.get(v)
        if suffix is None:
            suffix = suffixes[v] = (
                f"counterexample at n={v.counterexample}"
                if v.status == distribution.COUNTEREXAMPLE
                else f"verified ({v.checked} values)"
            )
        lines.append(f"  a1={a1} a2={a2}: {suffix}")
    lines.append(
        f"  {report.hypothesis_cells} hypothesis cells, "
        f"{report.values_checked} values checked, "
        f"{len(report.counterexamples)} counterexamples"
    )
    return (0 if report.ok else 1), lines


def _verify_no_identity(args) -> tuple[int, list[str]]:
    mismatches = nekrasov.check_identity(args.mmax)
    if not mismatches:
        return 0, [f"hook-length identity verified for all q-degrees <= {args.mmax}"]
    return 1, [f"MISMATCH at q-degree {m}, z-degree {k}" for m, k in mismatches]


def _verify_core_formulas(args) -> tuple[int, list[str]]:
    checked, failures = cores.verify_core_formulas(
        n_max=args.nmax, series_n_max=args.series_nmax, t_max=args.tmax
    )
    lines = [
        f"core-count agreement: n <= {args.nmax} for the t=2,3 formulas, "
        f"n <= {args.series_nmax} for t <= {args.tmax} series ({checked} checks)"
    ]
    lines += ["MISMATCH " + failure for failure in failures]
    return (1 if failures else 0), lines


def cmd_verify(args) -> tuple[int, list[str]]:
    if args.nmax is None:
        args.nmax = 500 if args.target == "core-formulas" else 2000
    if args.target in ("part1", "part2"):
        code, lines = _verify_part(args)
    elif args.target == "no-identity":
        code, lines = _verify_no_identity(args)
    else:
        code, lines = _verify_core_formulas(args)
    lines.append("VERIFIED" if code == 0 else "COUNTEREXAMPLE FOUND")
    return code, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcores",
        description="Exact hook-count statistics for integer partitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func, formats=(), default=None):
        if formats:
            p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--out", default=None, help="write output to a file")
        p.set_defaults(func=func)

    p = sub.add_parser("hooks", help="hook lengths of a partition")
    p.add_argument("partition", type=_parse_partition, help="comma-separated parts, '' for the empty partition")
    p.add_argument("--t", action="append", type=int, help="also report the t-hook count (repeatable)")
    add_common(p, cmd_hooks, ("text", "json"), "text")

    p = sub.add_parser("decompose", help="t-core and t-quotient of a partition")
    p.add_argument("partition", type=_parse_partition)
    p.add_argument("--t", type=int, required=True)
    add_common(p, cmd_decompose, ("text", "json"), "json")

    p = sub.add_parser("core", help="t-core of a partition")
    p.add_argument("partition", type=_parse_partition)
    p.add_argument("--t", type=int, required=True)
    add_common(p, cmd_core, ("text", "json"), "text")

    p = sub.add_parser("cores-count", help="number of t-cores of n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--witnesses", action="store_true", help="list the t-cores too")
    add_common(p, cmd_cores_count, ("text", "json"), "text")

    p = sub.add_parser("table", help="residue-class counts of t-hook numbers")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--b", type=int, default=3)
    p.add_argument("--a", type=int, default=None, help="emit a single residue class")
    p.add_argument(
        "--n",
        type=_parse_int_list,
        default=DEFAULT_TABLE_ROWS,
        help=f"comma-separated sizes (default {','.join(map(str, DEFAULT_TABLE_ROWS))})",
    )
    add_common(p, cmd_table, ("csv", "json", "text"), "csv")

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument(
        "target", choices=("part1", "part2", "no-identity", "core-formulas")
    )
    p.add_argument("--ell", type=int, default=5)
    p.add_argument("--a1", type=int, default=None)
    p.add_argument("--a2", type=int, default=None)
    p.add_argument(
        "--nmax",
        type=int,
        default=None,
        help="default 2000 (part1/part2) or 500 (core-formulas)",
    )
    p.add_argument("--mmax", type=int, default=DEFAULT_MMAX)
    p.add_argument("--series-nmax", type=int, default=200, dest="series_nmax")
    p.add_argument("--tmax", type=int, default=7)
    add_common(p, cmd_verify)

    p = sub.add_parser("no-check", help="shorthand for 'verify no-identity'")
    p.add_argument("--mmax", type=int, default=DEFAULT_MMAX)
    add_common(p, cmd_verify)
    p.set_defaults(target="no-identity", nmax=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, lines = args.func(args)
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as out:
                out.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    """Process entry point: the console script and `python -m tcores.cli`.

    gc.freeze() moves what start-up built to the collector's permanent
    generation, so no collection, nor shutdown, walks or frees it again:
    about 12 ms of a 111 ms `verify part1 --ell 3` on a 2-CPU Xeon VM.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
