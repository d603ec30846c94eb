"""Command-line entry points.

    socopt run <config.json> [--out DIR] [--seed N]
    socopt run --preset cdc18-scenario3 [--out DIR] [--seed N]
    socopt constants <config.json|--preset NAME> [--out DIR] [--seed N]
    socopt compare <config...> [--preset NAME ...] --out-file merged.csv

Exit codes: 0 all enabled invariant checks passed, 1 a check failed,
2 configuration rejected, 3 trajectory diverged.  The output directory
defaults to ./out and can be overridden by --out or the SOCOPT_OUT_DIR
environment variable.
"""

import argparse
import sys
from pathlib import Path

from .dynamics import DivergenceError, HypothesisError
from .graph import GraphError
from .harness import ConfigError, compare, default_out_dir, load_preset, load_scenario, run
from .harness import certificate_outcome, write_constants
from .presets import preset_names


def _load(args) -> list:
    scenarios = []
    for path in getattr(args, "config", []) or []:
        scenarios.append(load_scenario(path))
    for name in getattr(args, "preset", []) or []:
        scenarios.append(load_preset(name))
    if not scenarios:
        raise ConfigError("no scenario given; pass a config path or --preset NAME")
    return scenarios


def _cmd_run(args) -> int:
    scenarios = _load(args)
    out_dir = Path(args.out) if args.out else default_out_dir()
    worst = 0
    for sc in scenarios:
        report = run(sc, out_dir=out_dir, seed=args.seed)
        status = "ok" if report.passed else "CHECK FAILED"
        print(f"{sc.name} [{sc.algorithm}]: {status}")
        for key, val in sorted(report.checks.items()):
            print(f"  check {key}: {'pass' if val else 'FAIL'}")
        if report.terminal_error is not None:
            print(f"  terminal error: {report.terminal_error:.6e}")
        print(f"  consensus residual: {report.consensus_residual:.6e}")
        if report.trigger_summary is not None:
            ts = report.trigger_summary
            counts = [a["count"] for a in ts["per_agent"]]
            print(
                f"  triggers: {counts} ratio={ts['trigger_ratio']:.4f} "
                f"reduction={ts['reduction_ratio']:.4f}"
            )
        print(f"  files: {', '.join(sorted(report.files.values()))}")
        if not report.passed:
            worst = 1
    return worst


def _cmd_constants(args) -> int:
    scenarios = _load(args)
    out_dir = Path(args.out) if args.out else default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    for sc in scenarios:
        consts, reason = certificate_outcome(sc, args.seed)
        if consts is None:
            print(f"{sc.name}: certificate constants unavailable ({reason})")
            continue
        path = write_constants(out_dir, sc.name, consts)
        print(f"{sc.name}: wrote {path}")
        print(path.read_text(encoding="utf-8"), end="")
    return 0


def _cmd_compare(args) -> int:
    scenarios = _load(args)
    out_file = Path(args.out_file) if args.out_file else default_out_dir() / "compare.csv"
    path = compare(scenarios, out_file, seed=args.seed)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="socopt", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi_config=False):
        p.add_argument("config", nargs="*" if multi_config else "?", default=None, help="scenario config JSON")
        p.add_argument("--preset", action="append", choices=preset_names(), help="bundled scenario name")
        p.add_argument("--seed", type=int, default=None, help="override the initial-state seed")
        p.add_argument("--out", default=None, help="output directory")

    p_run = sub.add_parser("run", help="integrate scenarios and emit reports")
    common(p_run)
    p_const = sub.add_parser("constants", help="compute and print certificate constants")
    common(p_const)
    p_cmp = sub.add_parser("compare", help="merge error-vs-time curves of several scenarios")
    common(p_cmp, multi_config=True)
    p_cmp.add_argument("--out-file", default=None, help="path of the merged CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not isinstance(getattr(args, "config", None), list):
        args.config = [args.config] if args.config else []
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "compare":
            return _cmd_compare(args)
    except (ConfigError, GraphError, HypothesisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        last = exc.last_state
        print(f"error: {exc}", file=sys.stderr)
        print(f"last finite state at t={exc.last_t:.4f}:", file=sys.stderr)
        print(f"  x={last.x.tolist()}", file=sys.stderr)
        print(f"  y={last.y.tolist()}", file=sys.stderr)
        print(f"  v={last.v.tolist()}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
