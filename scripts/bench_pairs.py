#!/usr/bin/env python3
"""Compare two checkouts on the benchmark's end-to-end metrics, in alternating pairs.

Usage: python scripts/bench_pairs.py BASE CHANGE [--pairs 10] [--seconds 20]
           [--case WORKLOAD[:SEED] ...] [--out FILE]

For each case it runs ``perfbench/run.py --workload W --seed S --trace 0``
once in BASE and once in CHANGE, and repeats that pair ``--pairs`` times,
BASE first in even pairs and CHANGE first in odd ones, so that drift of
the host's speed falls on both sides alike.  Each run is a fresh process
started in its own checkout.  Compare two fresh clones (``git clone``,
then the change applied to one of them), never the development working
tree: the same diff measured in a long-lived working tree has read
+5-6% on a workload that never enters the changed code, and 0% in a
fresh clone.  The two checkouts' resolved paths must have one length
(say ``a`` and ``b`` in one parent), or the script exits 2 naming both
before it runs anything: on ring300-continuous, two fresh clones of one
commit read 2.7% apart (0 of 3 pairs to the second) when their names
differed by one character in length, and 0.4% apart (2 of 4) at equal
lengths.  The output (standard output, or ``--out``) is one JSON
object: the host, with the OpenBLAS kernel numpy loads (it sets how
matmuls round and how fast they run); each side's checkout path, commit
and whether its tree had uncommitted changes; and per case and metric
the median and quartiles of each side, the change's median relative to
the base's, the number of pairs in which the change did better, whether
the change's median is within the metric's bound of the base's, whether
the comparison is resolved (see ``resolved``), and each side's
run-by-run values; plus each side's correctness and failure counts.  The
metrics, their direction and their bounds are the ``end_to_end`` table
of the repository's BENCHMARK.json.  The default cases are the three
workloads at the default seed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from socopt.blas import blas_kernel  # noqa: E402 (the package is imported from ./src)

# [{"name", "unit", "better": "lower" | "higher", "bound"}, ...]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
DEFAULT_CASES = ("presets", "ring300-event", "ring300-continuous")
STDERR_TAIL = 20  # lines of a failed run's stderr to show


def run_once(checkout: Path, workload: str, seed: int | None, seconds: float) -> dict:
    """One benchmark process in ``checkout``; its final JSON line.  A run
    that exits non-zero stops the comparison with the tail of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0", "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        case = workload if seed is None else f"{workload}:{seed}"
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        raise SystemExit(f"{checkout}: case {case} exited {proc.returncode}; end of its stderr:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host() -> dict:
    """What the timings were taken on; ``blas_kernel`` is the OpenBLAS
    kernel numpy loads here (``socopt.blas.blas_kernel``), which the runs,
    started with this interpreter and environment, load too."""
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "blas_kernel": blas_kernel(),
    }


def checkout(path: Path) -> dict:
    """What a side ran: the absolute ``path`` of its checkout, the commit
    checked out there and whether its tree has uncommitted changes (both
    None outside a git work tree)."""

    def git(*args):
        return subprocess.run(["git", *args], cwd=path, capture_output=True, text=True).stdout

    commit = git("rev-parse", "HEAD").strip()
    dirty = bool(git("status", "--porcelain").strip()) if commit else None
    return {"path": str(path.resolve()), "commit": commit or None, "dirty": dirty}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def within_bound(base: float, change: float, lower: bool, bound: float) -> bool:
    """Whether ``change`` is no worse than ``base`` by more than the
    relative ``bound``."""
    return change <= base * (1.0 + bound) if lower else change >= base * (1.0 - bound)


def resolved(base: list[float], change: list[float], lower: bool, bound: float) -> bool:
    """Whether the runs can tell a change of the relative ``bound``: the
    base's spread (q3 - q1) / median is within the bound, or else every
    change run beats every base run."""
    q = quartiles(base)
    if q["q3"] - q["q1"] <= bound * abs(q["median"]):
        return True
    return max(change) < min(base) if lower else min(change) > max(base)


def summarize(base: list[dict], change: list[dict]) -> dict:
    out = {}
    for metric in END_TO_END:
        name, lower = metric["name"], metric["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        qb, qc = quartiles(b), quartiles(c)
        out[name] = {
            "base": qb,
            "change": qc,
            "change_over_base": qc["median"] / qb["median"] if qb["median"] else None,
            "pairs_better": sum((y < x) if lower else (y > x) for x, y in zip(b, c)),
            "within_bound": within_bound(qb["median"], qc["median"], lower, metric["bound"]),
            "resolved": resolved(b, c, lower, metric["bound"]),
            "base_runs": b,
            "change_runs": c,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--case", action="append", metavar="WORKLOAD[:SEED]", help="repeatable")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()
    if len(str(base)) != len(str(change)):
        parser.error(f"checkout paths differ in length: {base} ({len(str(base))}) and {change} ({len(str(change))})")

    report = {
        "host": host(),
        "checkouts": {side: checkout(getattr(args, side)) for side in ("base", "change")},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "cases": {},
    }
    for case in args.case or DEFAULT_CASES:
        workload, _, seed = case.partition(":")
        seed = int(seed) if seed else None
        runs = {"base": [], "change": []}
        for k in range(args.pairs):
            for side in ("base", "change")[:: 1 if k % 2 == 0 else -1]:
                runs[side].append(run_once(getattr(args, side), workload, seed, args.seconds))
            print(f"{case}: pair {k + 1}/{args.pairs}", file=sys.stderr)
        report["cases"][case] = {
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "metrics": summarize(runs["base"], runs["change"]),
        }
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
