#!/usr/bin/env python3
"""tcores benchmark: one workload as a closed loop of fresh processes.

    python3 bench/run.py --workload paper-table --seed 1 --seconds 40 --trace 0

One client runs the workload's operations one at a time, each in a fresh
`python -m tcores.cli ...` process or a fresh library-driver process, so at
most one child runs at a time. Passes over the operations repeat while one
more would end within --seconds. Every operation's exit code and stdout are
checked against the digests in expected.json (recorded with --record), and
the library driver checks its own round-trip invariants.

Runs of reference.py, a fixed stdlib-only workload, come between the
untraced operations (see Run.one_pass). --trace 0 prints the end-to-end
metrics: wall_s and cpu_s, the median over the passes of a pass's time as a
multiple of the reference runs around each operation, times REF_SECONDS
(see normalised); peak_rss_mb; and setup_s, the same normalised median for
a fresh `tcores --help`. --trace 1 alternates untraced passes with traced
ones, where each operation runs under trace_child.py, and prints the
per-layer metrics. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; a results record goes to bench/results/.
The exit code is 1 when any operation fails, 2 when the tcores source or
the recorded digests are missing.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from trace_child import COUNTER_NAMES, MARKER, SPAN_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
DRIVER = BENCH / "bijection_driver.py"
TRACE_CHILD = BENCH / "trace_child.py"
REFERENCE = BENCH / "reference.py"

CHILD_TIMEOUT_S = 60
SETUP_REPS_PER_PASS = 2
SETUP_OP = ("cli", ("--help",))
REF_OP = ("ref", ())
# Normalised times read in seconds of a machine on which reference.py takes
# REF_SECONDS; it takes about that long on the 2.1 GHz Xeon where the
# benchmark was written, when that machine is quiet.
REF_SECONDS = 0.24
REF_GAP_S = 1.5

# An operation is (kind, argv): kind "cli" runs `python -m tcores.cli argv`,
# kind "driver" runs bijection_driver.py argv --seed <seed>, kind "ref" runs
# reference.py. Sweeps run
# serially (no --threads). Why each workload was chosen: README.md.
WORKLOADS = {
    "paper-table": (
        ("cli", ("table",)),
        ("cli", ("table", "--t", "3", "--b", "9")),
        ("cli", ("table", "--t", "5", "--b", "5", "--n", "3000")),
    ),
    "vanishing-sweeps": (
        *(("cli", ("verify", "part1", "--ell", ell)) for ell in ("3", "5", "7", "11", "13")),
        *(("cli", ("verify", "part2", "--ell", ell)) for ell in ("2", "5", "11")),
        ("cli", ("verify", "part2", "--ell", "23")),
        ("cli", ("verify", "part1", "--ell", "13", "--nmax", "4000")),
    ),
    "bijection-cores": (
        ("cli", ("verify", "core-formulas")),
        ("cli", ("no-check",)),
        ("cli", ("cores-count", "--n", "200", "--t", "7")),
        ("driver", ("--max-size", "18", "--sample", "120")),
    ),
}

# Tiny versions of the same workloads for --smoke.
SMOKE_WORKLOADS = {
    "paper-table": (
        ("cli", ("table", "--n", "30,60")),
        ("cli", ("table", "--t", "5", "--b", "5", "--n", "40")),
    ),
    "vanishing-sweeps": (
        ("cli", ("verify", "part1", "--ell", "5", "--nmax", "100")),
        ("cli", ("verify", "part2", "--ell", "2", "--nmax", "100")),
    ),
    "bijection-cores": (
        ("cli", ("verify", "core-formulas", "--nmax", "20", "--series-nmax", "10", "--tmax", "4")),
        ("cli", ("no-check", "--mmax", "4")),
        ("cli", ("cores-count", "--n", "10", "--t", "4")),
        ("driver", ("--max-size", "5", "--sample", "2")),
    ),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{f"{name}.{suffix}": unit for name in SPAN_NAMES
       for suffix, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))},
    **dict.fromkeys(COUNTER_NAMES, "count"),
    "cli.process_overhead_s": "s",
    "trace.overhead_s": "s",
    "raw.wall_s": "s",
    "raw.cpu_s": "s",
    "reference.wall_s": "s",
    "fail_ratio": "ratio",
}
RECORD_KEYS = {
    "workload", "seed", "seconds", "trace", "smoke", "commit", "python", "nproc",
    "src_lines", "runs", "attempted", "failed", "fail_ratio", "failures",
    "metrics", "reference", "operations",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing source or digests)."""


def op_key(op) -> str:
    kind, argv = op
    return " ".join((kind, *argv))


def child_argv(op, seed: int, traced: bool) -> list[str]:
    kind, argv = op
    argv = list(argv) + (["--seed", str(seed)] if kind == "driver" else [])
    if traced:
        return [sys.executable, str(TRACE_CHILD), kind, *argv]
    if kind == "cli":
        return [sys.executable, "-m", "tcores.cli", *argv]
    if kind == "ref":
        return [sys.executable, str(REFERENCE), *argv]
    return [sys.executable, str(DRIVER), *argv]


def run_child(argv: list[str]) -> dict:
    """Run one child to completion; its own CPU time and peak RSS come from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        deadline = start + CHILD_TIMEOUT_S
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, deadline - time.perf_counter()))
            if not ready:
                proc.kill()
                timed_out = True
                deadline = float("inf")
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "exit": proc.returncode,
        "timed_out": timed_out,
        "stdout": b"".join(chunks[proc.stdout]),
        "stderr": b"".join(chunks[proc.stderr]).decode(errors="replace"),
    }


def split_trace(stderr: str) -> tuple[str, dict | None]:
    head, sep, tail = stderr.rpartition(MARKER)
    if not sep:
        return stderr, None
    return head, json.loads(tail)


def check(op, res: dict, expected: dict) -> str | None:
    """None when the operation's output is right, else why it is not."""
    key = op_key(op)
    if res["timed_out"]:
        return f"{key}: killed after {CHILD_TIMEOUT_S} s"
    want = expected.get(key)
    if want is None:
        return f"{key}: no recorded digest"
    if op[0] in ("cli", "ref"):
        got = {"exit": res["exit"], "sha256": hashlib.sha256(res["stdout"]).hexdigest()}
        return None if got == want else f"{key}: got {got}, recorded {want}"
    if res["exit"] != 0:
        return f"{key}: exit {res['exit']}: {res['stdout'][-500:]!r} {res['stderr'][-500:]}"
    try:
        summary = json.loads(res["stdout"])
    except ValueError:
        return f"{key}: unreadable output {res['stdout'][-200:]!r}"
    if summary.get("failed") != 0:
        return f"{key}: {summary.get('failures')}"
    if summary.get("exhaustive") != want:
        return f"{key}: exhaustive {summary.get('exhaustive')}, recorded {want}"
    return None


class Run:
    """One benchmark invocation: every operation's results, and the failures."""

    def __init__(self, ops, seed: int, expected: dict) -> None:
        self.ops, self.seed, self.expected = ops, seed, expected
        self.attempted = 0
        self.failures: list[str] = []
        # results[traced][op key]: one entry per pass (several for SETUP_OP)
        self.results = {traced: {op_key(op): [] for op in (SETUP_OP, *ops)}
                        for traced in (False, True)}
        self.reference: list[dict] = []

    def op(self, op, traced: bool = False) -> dict:
        res = run_child(child_argv(op, self.seed, traced))
        if traced:
            res["stderr"], res["trace"] = split_trace(res["stderr"])
        self.attempted += 1
        problem = check(op, res, self.expected)
        if traced and problem is None and res["trace"] is None:
            problem = f"{op_key(op)}: traced child wrote no trace"
        if problem:
            self.failures.append(problem)
            print("FAIL " + problem, file=sys.stderr)
        return res

    def one_pass(self, setup_reps: int = 0) -> None:
        """setup_reps SETUP_OP probes, then the operations, with reference runs between.

        A reference run opens and closes the pass, and one comes before an
        operation whenever REF_GAP_S have gone by since the last. Each
        result gets ref_wall_s and ref_cpu_s, the means of the reference
        runs just before and just after it.
        """
        before = self.reference_op()
        since = time.perf_counter()
        pending: list[dict] = []
        for op in (SETUP_OP,) * setup_reps + self.ops:
            if pending and time.perf_counter() - since >= REF_GAP_S:
                before = self.close(pending, before)
                since = time.perf_counter()
            res = self.op(op)
            self.results[False][op_key(op)].append(res)
            pending.append(res)
        self.close(pending, before)

    def close(self, pending: list[dict], before: dict) -> dict:
        """Run a reference, pair it with `before` around the pending results; return it."""
        after = self.reference_op()
        for res in pending:
            for name in ("wall_s", "cpu_s"):
                res["ref_" + name] = (before[name] + after[name]) / 2
        pending.clear()
        return after

    def traced_pass(self) -> None:
        for op in self.ops:
            self.results[True][op_key(op)].append(self.op(op, traced=True))

    def reference_op(self) -> dict:
        res = self.op(REF_OP)
        self.reference.append(res)
        return res


def op_metrics(op, res: dict) -> dict:
    """Flat metrics of one operation run; a traced run adds its layer metrics."""
    out = {name: res[name] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    trace = res.get("trace")
    if trace is None:
        return out
    for name, (total, self_time, calls) in trace["spans"].items():
        out[f"{name}.s"], out[f"{name}.self_s"], out[f"{name}.calls"] = total, self_time, calls
    out.update(trace["counters"])
    if op[0] == "cli":
        out["cli.process_overhead_s"] = res["wall_s"] - trace["spans"]["cli.main"][0]
    return out


def best_pass(ops, results: dict) -> dict:
    """Each operation's lowest value over the passes, summed over the operations.

    The traced metrics use it: nothing makes a correct run faster than the
    program allows, and it keeps each layer's figures from one operation
    run. peak_rss_mb is the largest per-operation value instead of a sum.
    """
    out: dict = {}
    for op in ops:
        rows = [op_metrics(op, res) for res in results[op_key(op)]]
        for name in rows[0]:
            low = min(row[name] for row in rows)
            out[name] = max(out.get(name, 0), low) if name == "peak_rss_mb" else out.get(name, 0) + low
    return out


def normalised(passes: list[list[dict]], name: str) -> float:
    """The median over passes of the sum of name ÷ the reference's name, times REF_SECONDS.

    passes holds one list of results per pass. Other tenants of a shared
    machine slow every process on it by 20-90% for seconds to minutes at a
    time, so a raw time says as much about them as about the program. The
    reference runs just before and after an operation are slowed nearly
    alike, and the ratio cancels most of it: across 30-s runs under such
    contention the normalised time spread 2-5 times less than the raw time.
    """
    return REF_SECONDS * statistics.median(
        sum(res[name] / res["ref_" + name] for res in results) for results in passes
    )


def measure(run: Run, seconds: float, trace: bool, setup_reps: int) -> tuple[dict, int]:
    """Repeat passes while one more would end within `seconds`; return the values and passes.

    There is always one pass. A run ends by about `seconds` however slow
    the machine is. The setup probes run at the start of each untraced
    pass, so that they sample the whole run rather than its first second.
    """
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        run.one_pass(0 if trace else setup_reps)
        if trace:
            run.traced_pass()
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    results = run.results[False]
    if not trace:
        by_pass = list(zip(*(results[op_key(op)] for op in run.ops)))
        values = {name: normalised(by_pass, name) for name in ("wall_s", "cpu_s")}
        values["peak_rss_mb"] = max(
            min(res["peak_rss_mb"] for res in results[op_key(op)]) for op in run.ops
        )
        values["setup_s"] = normalised([[res] for res in results[op_key(SETUP_OP)]], "wall_s")
        return values, passes
    untraced = best_pass(run.ops, results)
    traced = best_pass(run.ops, run.results[True])
    values = {name: traced.get(name, 0) for name in PER_LAYER}
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    for name in ("wall_s", "cpu_s"):
        values["raw." + name] = sum(
            statistics.median(res[name] for res in results[op_key(op)]) for op in run.ops
        )
    values["reference.wall_s"] = statistics.median(res["wall_s"] for res in run.reference)
    values["fail_ratio"] = len(run.failures) / run.attempted
    return values, passes


def op_record(run: Run, op, trace: bool) -> dict:
    """One operation's entry in the results record."""
    results = run.results[False][op_key(op)]
    walls = [res["wall_s"] for res in results]
    entry = {
        "op": op_key(op),
        "samples": len(walls),
        **{f"best_{k}": v for k, v in best_pass([op], run.results[False]).items()},
        "median_wall_s": statistics.median(walls),
        "normalised_wall_s": normalised([[res] for res in results], "wall_s"),
        "normalised_cpu_s": normalised([[res] for res in results], "cpu_s"),
        "wall_s_per_pass": walls,
        "ref_wall_s_per_pass": [res["ref_wall_s"] for res in results],
    }
    if trace:
        entry["layers"] = {k: v for k, v in best_pass([op], run.results[True]).items() if v}
    return entry


def preflight() -> None:
    """Fail unless the children will import tcores from this checkout's src/."""
    cli = SRC / "tcores" / "cli.py"
    if not cli.is_file():
        raise BenchError(f"no tcores source at {cli}")
    res = run_child([sys.executable, "-c", "import tcores.cli; print(tcores.cli.__file__)"])
    found = res["stdout"].decode().strip()
    if res["exit"] != 0 or Path(found).resolve() != cli.resolve():
        raise BenchError(f"children import tcores from {found!r}, not {cli}: {res['stderr']}")


def load_expected() -> dict:
    if not EXPECTED.is_file():
        raise BenchError(f"no recorded digests at {EXPECTED}; run with --record")
    return json.loads(EXPECTED.read_text())


def record_expected() -> int:
    """Run every operation once and write its exit code and stdout digest."""
    ops = [REF_OP, SETUP_OP, *(op for table in (WORKLOADS, SMOKE_WORKLOADS)
                       for ops in table.values() for op in ops)]
    expected = {}
    for op in dict.fromkeys(ops):
        res = run_child(child_argv(op, 0, traced=False))
        if op[0] in ("cli", "ref"):
            expected[op_key(op)] = {
                "exit": res["exit"], "sha256": hashlib.sha256(res["stdout"]).hexdigest()
            }
            continue
        summary = json.loads(res["stdout"])
        if res["exit"] != 0 or summary["failed"]:
            raise BenchError(f"{op_key(op)} fails: {summary['failures']}")
        expected[op_key(op)] = summary["exhaustive"]
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} operations in {EXPECTED}")
    return 0


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def validate_record(record: dict) -> None:
    """Raise ValueError unless record has the results schema."""
    if set(record) != RECORD_KEYS:
        raise ValueError(f"record keys {sorted(set(record) ^ RECORD_KEYS)} differ from the schema")
    want = PER_LAYER if record["trace"] else END_TO_END
    if set(record["metrics"]) != set(want):
        raise ValueError(f"metrics {sorted(set(record['metrics']) ^ set(want))} differ")
    for name, metric in record["metrics"].items():
        if set(metric) != {"value", "unit"} or metric["unit"] != want[name]:
            raise ValueError(f"metric {name}: {metric}")
        if not isinstance(metric["value"], (int, float)):
            raise ValueError(f"metric {name} is not a number: {metric}")
    if record["attempted"] < 1 or not 0 <= record["failed"] <= record["attempted"]:
        raise ValueError(f"bad counts: attempted {record['attempted']}, failed {record['failed']}")
    for key in ("seed", "nproc", "src_lines", "runs"):
        if not isinstance(record[key], int) or record[key] < 0:
            raise ValueError(f"{key} is not a count: {record[key]!r}")
    for entry in record["operations"]:
        if entry["samples"] != record["runs"]:
            raise ValueError(f"operation {entry['op']} ran {entry['samples']} times, not {record['runs']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tcores benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass of tiny operations")
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    parser.add_argument("--results-dir", type=Path, default=BENCH / "results")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    try:
        preflight()
        if args.record:
            return record_expected()
        expected = load_expected()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ops = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    run = Run(ops, args.seed, expected)
    seconds = 0.0 if args.smoke else args.seconds
    values, passes = measure(run, seconds, bool(args.trace), 1 if args.smoke else SETUP_REPS_PER_PASS)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = len(run.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "runs": passes,
        "attempted": run.attempted,
        "failed": failed,
        "fail_ratio": failed / run.attempted,
        "failures": run.failures[:20],
        "metrics": metrics,
        "reference": {
            "seconds": REF_SECONDS,
            "wall_s": [res["wall_s"] for res in run.reference],
            "cpu_s": [res["cpu_s"] for res in run.reference],
        },
        "operations": [op_record(run, op, bool(args.trace)) for op in ops],
    }
    validate_record(record)
    args.results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (args.results_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
