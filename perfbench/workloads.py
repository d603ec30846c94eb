"""Seeded workload inputs, one timed pass, and the correctness rule.

A workload is a list of scenario config dicts generated from the seed.
The program under test only ever sees those dicts: a pass validates each
one with ``scenario_from_dict`` and runs it with ``run``, one after the
other (a closed loop with a single client).
"""

import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

from socopt import harness, presets

WORKLOADS = ("presets", "ring300-event", "ring300-continuous")
DEFAULT_SEED = presets.DEFAULT_SEED

RING_N = 300
RING_P = 3
# theta = 0.5 keeps theta * rho(L) < alpha * gamma on these graphs; the
# alternative variant passes validation with theta = 3.5 and then diverges.
RING_GAINS = {"alpha": 2.0, "beta": 2.0, "gamma": 6.0, "theta": 0.5}
RING_STEP = 0.01
RING_EVENT_HORIZON = 4.0  # 400 steps
RING_CONTINUOUS_HORIZON = 10.0  # 1000 steps per algorithm

# Terminal errors must match the recorded ones to this relative tolerance;
# the absolute floor covers errors at round-off level (scenario1 ends near 1e-15).
ERROR_RTOL = 1e-9
ERROR_ATOL = 1e-12


def ring_edges(n: int, rng: np.random.Generator) -> list[list]:
    """A ring plus n // 2 distinct random chords, weights U[0.5, 2], 0-based."""
    ring = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in ring]
    picks = rng.choice(len(free), size=min(n // 2, len(free)), replace=False) if free else []
    pairs = sorted(ring) + sorted(free[int(k)] for k in picks)
    weights = rng.uniform(0.5, 2.0, len(pairs))
    return [[i, j, float(w)] for (i, j), w in zip(pairs, weights)]


def ring_config(seed: int, n: int, algorithm: str, horizon: float, p: int = RING_P) -> dict:
    """Strongly convex quadratic_linear costs on a seeded ring-plus-chords network.

    C_i = Q_i Q_i^T / p + 0.5 I with Q_i standard normal, linear terms
    U[-2, 2], initial box [-5, 5] drawn with the same seed, default
    trigger parameters, no diagnostics and no Lyapunov sampling.
    """
    rng = np.random.default_rng(seed)
    edges = ring_edges(n, rng)
    matrices = []
    for _ in range(n):
        q = rng.standard_normal((p, p))
        matrices.append((q @ q.T / p + 0.5 * np.eye(p)).tolist())
    linear = rng.uniform(-2.0, 2.0, (n, p)).tolist()
    return {
        "schema_version": 1,
        "name": f"ring{n}-{algorithm}",
        "graph": {"n": n, "edges": edges},
        "costs": {"kind": "quadratic_linear", "matrices": matrices, "linear_terms": linear},
        "gains": dict(RING_GAINS),
        "algorithm": algorithm,
        "integration": {"step": RING_STEP, "horizon": horizon},
        "initial": {"box": [-5.0, 5.0], "seed": int(seed)},
        "diagnostics": {"lyapunov": False, "constants": False, "rate_fit": False},
    }


def workload_configs(workload: str, seed: int) -> list[dict]:
    """The scenario configs one pass of ``workload`` runs, generated from ``seed``."""
    if workload == "presets":
        configs = []
        for name in presets.preset_names():
            cfg = presets.preset_config(name)
            if "box" in cfg["initial"]:
                cfg["initial"]["seed"] = int(seed)
            configs.append(cfg)
        return configs
    if workload == "ring300-event":
        return [ring_config(seed, RING_N, "event", RING_EVENT_HORIZON)]
    if workload == "ring300-continuous":
        return [ring_config(seed, RING_N, algo, RING_CONTINUOUS_HORIZON) for algo in ("continuous", "alternative")]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def steps_of(cfg: dict) -> int:
    integ = cfg["integration"]
    return int(round(integ["horizon"] / integ["step"]))


def agent_steps(configs: list[dict]) -> int:
    """Sum of n * steps over the pass: the work a pass does."""
    return sum(cfg["graph"]["n"] * steps_of(cfg) for cfg in configs)


@dataclass
class Outcome:
    """What one scenario run produced, reduced to the figures the gate checks."""

    name: str
    triggers: int | None = None
    error_max: float | None = None
    error_rms: float | None = None
    failure: str | None = None

    def key(self) -> dict:
        return {
            "name": self.name,
            "triggers": self.triggers,
            "terminal_error_max": self.error_max,
            "terminal_error_rms": self.error_rms,
        }


def broadcasts(cfg: dict, report) -> int:
    """Position broadcasts of one run, the t = 0 broadcast included.

    Event mode counts its triggers; continuous communication broadcasts
    every agent at every sample.
    """
    if report.trigger_summary is not None:
        return int(report.trigger_summary["total_triggers"])
    return cfg["graph"]["n"] * (steps_of(cfg) + 1)


def terminal_errors(report) -> tuple[float, float]:
    """(max, rms) over agents of the final distance to the solution set."""
    mini = report.minimizer
    d = report.trajectory.x[-1] - mini.x[None, :]
    if not mini.unique and mini.null_basis is not None:
        d = d - (d @ mini.null_basis) @ mini.null_basis.T
    dist = np.linalg.norm(d, axis=1)
    return float(dist.max()), float(np.sqrt(np.mean(dist**2)))


def evaluate(cfg: dict, report) -> Outcome:
    """Reduce a report to an Outcome; a failed check or a non-finite output fails it."""
    out = Outcome(name=cfg["name"], triggers=broadcasts(cfg, report))
    failed_checks = sorted(k for k, ok in report.checks.items() if not ok)
    if failed_checks:
        out.failure = f"checks failed: {failed_checks}"
        return out
    final = report.trajectory.final_state()
    scalars = [report.consensus_residual, report.gradient_sum_residual, *report.equilibrium_residuals]
    if not all(math.isfinite(v) for v in scalars) or not all(
        np.all(np.isfinite(a)) for a in (final.x, final.y, final.v)
    ):
        out.failure = "non-finite output"
        return out
    out.error_max, out.error_rms = terminal_errors(report)
    if not (math.isfinite(out.error_max) and math.isfinite(out.error_rms)):
        out.failure = "non-finite terminal error"
    return out


def run_pass(configs: list[dict], out_dir=None, on_scenario=None) -> tuple[float, list[Outcome], list]:
    """Validate and run every config once.

    Returns the summed wall time of validate plus ``run`` (nothing else
    is inside the timed region), one Outcome per config, and the reports
    (None where the run raised).  ``on_scenario(i)``, if given, is called
    before scenario i starts.
    """
    wall = 0.0
    outcomes, reports = [], []
    for i, cfg in enumerate(configs):
        if on_scenario is not None:
            on_scenario(i)
        t0 = time.perf_counter()
        try:
            report = harness.run(harness.scenario_from_dict(cfg), out_dir=out_dir)
        except Exception as exc:  # any raise fails the run; the pass goes on
            wall += time.perf_counter() - t0
            traceback.print_exc()
            outcomes.append(Outcome(name=cfg["name"], failure=f"{type(exc).__name__}: {exc}"))
            reports.append(None)
            continue
        wall += time.perf_counter() - t0
        outcomes.append(evaluate(cfg, report))
        reports.append(report)
    return wall, outcomes, reports


def setup_once(configs: list[dict]) -> float:
    """Wall time of scenario_from_dict plus certificate_constants over the pass."""
    t0 = time.perf_counter()
    for cfg in configs:
        harness.certificate_constants(harness.scenario_from_dict(cfg))
    return time.perf_counter() - t0


def mismatch(outcome: Outcome, recorded: dict) -> str | None:
    """Why an outcome differs from its recorded reference, or None."""
    if outcome.triggers != recorded["triggers"]:
        return f"triggers {outcome.triggers} != recorded {recorded['triggers']}"
    for key, value in (("terminal_error_max", outcome.error_max), ("terminal_error_rms", outcome.error_rms)):
        ref = recorded[key]
        if value is None or abs(value - ref) > ERROR_RTOL * abs(ref) + ERROR_ATOL:
            return f"{key} {value!r} != recorded {ref!r}"
    return None
