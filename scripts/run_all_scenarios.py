#!/usr/bin/env python3
"""Run every bundled scenario, emit reports, and print a results table.

Usage: python scripts/run_all_scenarios.py [--out DIR] [--seed N]

Writes per scenario the trajectory arrays (.npz), the constants and
summary JSONs and, in event mode, the events CSV, plus one merged
error-vs-time CSV comparing the continuous and triggered runs of the
strongly convex scenario.
"""

import argparse
import sys
from pathlib import Path

from socopt.harness import compare, default_out_dir, load_preset, run
from socopt.presets import preset_names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    out = Path(args.out) if args.out else default_out_dir()

    rows = []
    all_ok = True
    for name in preset_names():
        sc = load_preset(name)
        rep = run(sc, out_dir=out, seed=args.seed)
        all_ok &= rep.passed
        ratio = rep.trigger_summary["trigger_ratio"] if rep.trigger_summary else None
        rows.append(
            (
                name,
                sc.algorithm,
                rep.terminal_error,
                rep.consensus_residual,
                rep.fitted_rate,
                ratio,
                "ok" if rep.passed else "CHECK FAILED",
            )
        )

    print(f"{'scenario':<24} {'algo':<11} {'err(T)':>10} {'consensus':>10} {'rate':>8} {'trig':>7}  status")
    for name, algo, err, cons, rate, ratio, status in rows:
        print(
            f"{name:<24} {algo:<11} "
            f"{err if err is not None else float('nan'):>10.2e} {cons:>10.2e} "
            f"{rate if rate is not None else float('nan'):>8.3f} "
            f"{ratio if ratio is not None else float('nan'):>7.3f}  {status}"
        )

    cont = load_preset("cdc18-scenario3")
    event = load_preset("cdc18-scenario3-event")
    merged = compare([cont, event], out / "scenario3_continuous_vs_event.csv", seed=args.seed)
    print(f"\nmerged error curves: {merged}")
    print(f"reports under: {out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
