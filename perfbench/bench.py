"""Measurement, correctness gate and report of the socopt benchmark.

With ``--trace 0`` a run measures the end-to-end metrics with tracing
off: set-up is timed on its own, then passes over the workload repeat
until ``--seconds`` have elapsed and each timing is the median over
passes.  With ``--trace 1`` a run measures the per-layer metrics: a few
untraced passes, one traced pass and traced set-up (tracing.py), kernel
micro-timings (kernels.py) and the ring scaling sweep.

Every scenario run counts as attempted.  A run fails if it raises, if a
``RunReport.checks`` entry is False, if an output is not finite, if its
figures differ from the first pass of the same process, or, at a seed
recorded in reference.json, if they differ from the recorded ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric by name with its unit.
"""

import argparse
import contextlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import kernels
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "agent_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "triggers_total": "count",
}

PER_LAYER = {
    "events.self_s": "s",
    "events.calls": "count",
    "events.qhat_us": "us",
    "events.qhat_calls": "count",
    "events.trigger_margin_calls": "count",
    "events.trigger_sweep_us": "us",
    "events.fire_ratio": "ratio",
    "events.rhs_event_us": "us",
    "events.simulate_event_self_s": "s",
    "events.varphi_all_ms": "ms",
    "graph.self_s": "s",
    "graph.calls": "count",
    "graph.neighbors_calls": "count",
    "graph.neighbors_self_s": "s",
    "graph.laplacian_apply_us": "us",
    "graph.build_graph_ms": "ms",
    "graph.spectral_ms": "ms",
    "costs.self_s": "s",
    "costs.calls": "count",
    "costs.grad_stack_us": "us",
    "costs.grad_stack_calls": "count",
    "costs.grad_stack_self_s": "s",
    "costs.minimizer_oracle_ms": "ms",
    "costs.estimate_mf_ms": "ms",
    "dynamics.self_s": "s",
    "dynamics.calls": "count",
    "dynamics.rhs_continuous_us": "us",
    "dynamics.rhs_alternative_us": "us",
    "dynamics.rk4_step_us": "us",
    "dynamics.integrate_self_s": "s",
    "analysis.self_s": "s",
    "analysis.calls": "count",
    "analysis.lyapunov_sample_us": "us",
    "analysis.lyapunov_sample_calls": "count",
    "analysis.lyapunov_self_s": "s",
    "analysis.fit_rate_ms": "ms",
    "analysis.certificate_ms": "ms",
    "harness.self_s": "s",
    "harness.calls": "count",
    "harness.run_self_s": "s",
    "harness.emit_bytes": "B",
    "harness.scenario_from_dict_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "result.terminal_error_max": "dist",
    "result.terminal_error_rms": "dist",
    **{f"scale.{algo}.n{n}.step_us": "us" for algo in ("continuous", "event") for n in kernels.SCALE_NS},
}

MIN_PASSES = 2
SETUP_SLICE_S = 0.3  # set-up repeats before each pass, so they spread over the run
SETUP_MIN_REPS = 3
TRACED_SETUP_REPS = 3


class Tally:
    """Attempted and failed scenario runs, checked against a first pass."""

    def __init__(self, workload: str, seed: int):
        self.attempted = 0
        self.failures: list[str] = []
        self.first: list[dict] | None = None
        recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))["seeds"] if REFERENCE.exists() else {}
        self.recorded = recorded.get(workload, {}).get(str(seed))

    def add(self, outcomes: list[workloads.Outcome]) -> None:
        keys = [o.key() for o in outcomes]
        if self.first is None:
            self.first = keys
        for i, o in enumerate(outcomes):
            self.attempted += 1
            why = o.failure
            if why is None and keys[i] != self.first[i]:
                why = f"differs from the first pass: {keys[i]} != {self.first[i]}"
            if why is None and self.recorded is not None:
                why = workloads.mismatch(o, self.recorded[i])
            if why is not None:
                self.failures.append(f"{o.name}: {why}")

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
        }


def out_dir_for(workload: str):
    """A fresh temporary report directory inside the checkout for presets, else none.

    Each pass gets its own directory: overwriting the previous pass's
    files made later presets passes about 30% slower on ext4.
    """
    if workload != "presets":
        return contextlib.nullcontext()
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT_DIR)


def one_pass(workload: str, configs, tally: Tally, on_scenario=None):
    with out_dir_for(workload) as out_dir:
        wall, outcomes, reports = workloads.run_pass(configs, out_dir, on_scenario)
        emit_bytes = sum(Path(f).stat().st_size for rep in reports if rep is not None for f in rep.files.values())
    tally.add(outcomes)
    return wall, outcomes, reports, emit_bytes


def setup_slice(configs) -> list[float]:
    samples = []
    t_end = time.perf_counter() + SETUP_SLICE_S
    while len(samples) < SETUP_MIN_REPS or time.perf_counter() < t_end:
        samples.append(workloads.setup_once(configs))
    return samples


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    configs = workloads.workload_configs(workload, seed)
    workloads.setup_once(configs)  # warm-up, not counted
    setups, walls = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        setups += setup_slice(configs)
        wall, outcomes, _, _ = one_pass(workload, configs, tally)
        walls.append(wall)
    wall_s = statistics.median(walls)
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "agent_steps_per_s": workloads.agent_steps(configs) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "triggers_total": sum(o.triggers or 0 for o in outcomes),
    }


def _module_totals(summary: dict, prefix: str) -> tuple[float, int]:
    rows = [v for name, v in summary.items() if name.startswith(prefix)]
    return sum(r["self_s"] for r in rows), sum(r["calls"] for r in rows)


def traced_setup(configs) -> dict[str, float]:
    """Inclusive milliseconds of the set-up functions, median over traced reps."""
    spans = {
        "harness.scenario_from_dict_ms": ("harness.scenario_from_dict",),
        "graph.build_graph_ms": ("graph.build_graph",),
        "graph.spectral_ms": ("graph.spectral",),
        "costs.minimizer_oracle_ms": ("costs.minimizer_oracle",),
        "costs.estimate_mf_ms": ("costs.estimate_mf",),
        "events.varphi_all_ms": ("events.varphi_all",),
        "analysis.certificate_ms": ("analysis.certificate_continuous", "analysis.certificate_event"),
    }
    reps = {metric: [] for metric in spans}
    for _ in range(TRACED_SETUP_REPS):
        with tracing.Tracer() as tracer:
            workloads.setup_once(configs)
        summary = tracer.summary()
        for metric, names in spans.items():
            reps[metric].append(1e3 * sum(summary.get(n, {}).get("total_s", 0.0) for n in names))
    return {metric: statistics.median(v) for metric, v in reps.items()}


def per_layer(workload: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    configs = workloads.workload_configs(workload, seed)
    walls = []
    deadline = time.perf_counter() + seconds / 2.0
    while not walls or time.perf_counter() < deadline:
        wall, _, reports, _ = one_pass(workload, configs, tally)
        walls.append(wall)
    with tracing.Tracer() as tracer:
        traced_wall, outcomes, traced_reports, emit_bytes = one_pass(
            workload, configs, tally, on_scenario=lambda i: setattr(tracer, "request", i)
        )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"trace-{workload}.npz")
    summary = tracer.summary()
    (OUT_DIR / f"trace-{workload}.json").write_text(json.dumps(summary, indent=1, sort_keys=True), encoding="utf-8")

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    out: dict[str, float] = {}
    for module in tracing.MODULES:
        out[f"{module}.self_s"], out[f"{module}.calls"] = _module_totals(summary, module + ".")
    fires = sum(
        rep.trigger_summary["total_triggers"] - cfg["graph"]["n"]
        for cfg, rep in zip(configs, traced_reports)
        if rep is not None and rep.trigger_summary is not None
    )
    margins = calls("events.trigger_margin")
    out.update(
        {
            "events.qhat_calls": calls("events.qhat"),
            "events.trigger_margin_calls": margins,
            "events.fire_ratio": fires / margins if margins else 0.0,
            "events.simulate_event_self_s": self_s("events.simulate_event"),
            "graph.neighbors_calls": calls("graph.NetworkGraph.neighbors"),
            "graph.neighbors_self_s": self_s("graph.NetworkGraph.neighbors"),
            "costs.grad_stack_calls": calls("costs.GlobalObjective.grad_stack"),
            "costs.grad_stack_self_s": self_s("costs.GlobalObjective.grad_stack"),
            "dynamics.integrate_self_s": self_s("dynamics.integrate"),
            "analysis.lyapunov_sample_calls": calls("analysis.LyapunovContext.sample"),
            "analysis.lyapunov_self_s": _module_totals(summary, "analysis.LyapunovContext.")[0]
            + self_s("analysis.w1_value"),
            "harness.run_self_s": self_s("harness.run"),
            "harness.emit_bytes": emit_bytes,
            "trace.overhead_frac": traced_wall / statistics.median(walls) - 1.0,
            "trace.spans": len(tracer.start),
            "result.terminal_error_max": max((o.error_max for o in outcomes if o.error_max is not None), default=0.0),
            "result.terminal_error_rms": max((o.error_rms for o in outcomes if o.error_rms is not None), default=0.0),
        }
    )
    out.update(traced_setup(configs))
    out.update(kernels.kernel_timings(workload, configs, reports))
    out.update(kernels.scaling_sweep(seed))
    return out


def print_table(workload: str, result: dict) -> None:
    failed_frac = result["failed"] / result["attempted"]
    print(f"{workload:<20} {'failed_frac':<34} {failed_frac:>14.6g}  ({result['failed']}/{result['attempted']} runs)")
    for name, m in result["metrics"].items():
        print(f"{workload:<20} {name:<34} {m['value']:>14.6g}  {m['unit']}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally(workload, seed)
    if trace:
        result = tally.result(per_layer(workload, seed, seconds, tally), PER_LAYER)
    else:
        result = tally.result(end_to_end(workload, seed, seconds, tally), END_TO_END)
    for line in tally.failures:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    print_table(workload, result)
    return result


def record(seeds: list[int]) -> None:
    """Rewrite reference.json with one pass of every workload at each seed."""
    seeds_out: dict[str, dict[str, list]] = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            configs = workloads.workload_configs(workload, seed)
            with out_dir_for(workload) as out_dir:
                _, outcomes, _ = workloads.run_pass(configs, out_dir)
            bad = [f"{o.name}: {o.failure}" for o in outcomes if o.failure]
            if bad:
                raise SystemExit(f"cannot record {workload} seed {seed}: {bad}")
            seeds_out.setdefault(workload, {})[str(seed)] = [o.key() for o in outcomes]
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    doc = {"rtol": workloads.ERROR_RTOL, "atol": workloads.ERROR_ATOL, "seeds": seeds_out}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="socopt benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED", help="rewrite reference.json at these seeds")
    args = parser.parse_args(argv)
    if args.record:
        record(args.record)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0
