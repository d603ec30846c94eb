"""Scenario configuration, validation gates, run orchestration, and output.

A scenario is a JSON document (or a bundled preset) declaring the graph,
the cost family, the gains, the algorithm variant, integration settings,
the initial-state rule, and diagnostic toggles.  Loading validates every
hypothesis the algorithms rely on, naming a violated one, and computes what
the config alone decides (spectrum, minimizer, trigger law).  Running
integrates, computes the requested diagnostics from the stored trajectory,
checks the runtime invariants, and emits the trajectory as NumPy arrays
(``.npz``) plus CSV and JSON reports.
"""

import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis, presets
from .costs import (
    CostError,
    GlobalObjective,
    MinimizerResult,
    estimate_mf,
    minimizer_oracle,
    quadratic_family,
    quartic_family,
)
from .dynamics import (
    EquilibriumResidual,
    GainParams,
    SwarmState,
    Trajectory,
    equilibrium_residual,
    integrate,
    rhs_alternative,
    rhs_continuous,
    route_for,
    v_balance_violation,
    whole_steps,
)
from .events import (
    TRIGGER_FIELDS,
    EventRun,
    TriggerConfigError,
    TriggerLaw,
    TriggerParams,
    default_eps0,
    make_trigger_law,
    simulate_event,
    zeno_report,
)
from .graph import GraphError, NetworkGraph, SpectralData, build_graph, connected_components, is_connected, spectral

SCHEMA_VERSION = 1
OUT_DIR_ENV = "SOCOPT_OUT_DIR"
ALGORITHMS = ("continuous", "alternative", "event")
# the top-level config fields, and the data fields of each cost kind
CONFIG_FIELDS = (
    "schema_version", "name", "graph", "costs", "gains", "algorithm", "trigger", "integration", "initial",
    "diagnostics", "eps0", "eps",
)
COST_FIELDS = {
    "quadratic_shift": ("matrices", "shifts"),
    "quadratic_linear": ("matrices", "linear_terms"),
    "quartic": ("centers",),
}

V_BALANCE_TOL = 1e-10
DISCIPLINE_TOL = 1e-9
CHI_FLOOR_TOL = 1e-9
MAX_TRAJECTORY_ENTRIES = 2**28  # 2 GiB of float64; the bundled workloads need at most 2.7e6


class ConfigError(ValueError):
    """Scenario configuration that fails validation."""


@dataclass
class Diagnostics:
    lyapunov: bool = False
    rate_fit: bool = False


@dataclass
class InitialSpec:
    """Either explicit state literals or a seeded uniform box."""

    x: np.ndarray | None = None
    y: np.ndarray | None = None
    v: np.ndarray | None = None
    box: tuple[float, float] | None = None
    seed: int | None = None


@dataclass
class Scenario:
    """A validated config plus what it alone decides: spectrum, minimizer and, in event mode, trigger law."""

    name: str
    graph: NetworkGraph
    obj: GlobalObjective
    gains: GainParams
    algorithm: str
    step: float
    horizon: float
    initial: InitialSpec
    diagnostics: Diagnostics
    eps0: float
    eps: float
    spectrum: SpectralData
    minimizer: MinimizerResult
    law: TriggerLaw | None = None
    threshold_denominator = "varphi"  # a class constant only perfbench/kernels.py reads; ROADMAP item 22 removes it

    @property
    def trigger(self) -> TriggerParams | None:
        return None if self.law is None else self.law.params


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _section(cfg: dict, key: str) -> dict:
    sec = cfg.get(key, {})
    _require(isinstance(sec, dict), f"{key} must be a JSON object, got a {type(sec).__name__}")
    return sec


def _known_fields(sec: dict, name: str, known: tuple):
    """Reject the keys of ``sec`` outside ``known``, naming them."""
    unknown = sorted(set(sec) - set(known))
    _require(not unknown, f"{name}: unknown field(s) {unknown}; known fields are {', '.join(known)}")


def _finite(value, name: str) -> float:
    """A JSON number (an int or float, not a bool or a string), finite."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{name} must be a number, got {value!r}")
    # false for NaN, the infinities and ints beyond the float range
    _require(abs(value) <= sys.float_info.max, f"{name} must be finite, got {value}")
    return float(value)


def _holds_bool(value, arr: np.ndarray) -> bool:
    """Whether ``value``, read by ``np.asarray`` as ``arr``, holds a boolean, which ``arr`` shows as 1 or 0."""
    for index in np.argwhere((arr == 0) | (arr == 1)).tolist():
        entry = value
        for k in index:
            entry = entry[k]
        if isinstance(entry, bool):
            return True
    return False


def _finite_array(value, name: str, shapes: tuple, expected: str) -> np.ndarray:
    """``value`` as a float array of one of ``shapes``, every entry a finite
    JSON number, not a boolean, broadcast to (a copy of) the last shape."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    ok = arr is not None and arr.dtype.kind in "iuf" and arr.shape in shapes and not _holds_bool(value, arr)
    _require(ok, f"{name} must be {expected}")
    _require(bool(np.all(np.isfinite(arr))), f"{name} must be finite")
    return np.broadcast_to(arr, shapes[-1]).astype(float)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _build_costs(cost_cfg: dict, n: int) -> GlobalObjective:
    """The objective of n agents; the cost data are finite JSON numbers, a
    vector of one length p per agent and, for quadratics, a p x p matrix."""
    kind = cost_cfg.get("kind")
    _require(isinstance(kind, str) and kind in COST_FIELDS, f"unknown cost kind {kind!r}")
    _known_fields(cost_cfg, f"costs (kind {kind})", ("kind", *COST_FIELDS[kind], "lipschitz_override"))
    for key in COST_FIELDS[kind]:
        _require(key in cost_cfg, f"costs.{key} is required for cost kind {kind!r}")

    vec_key = COST_FIELDS[kind][-1]  # shifts, linear_terms or centers
    try:  # p is the length of the first vector; a malformed field fails its shape check
        p = max(len(cost_cfg[vec_key][0]), 1)
    except (TypeError, IndexError, KeyError):
        p = 1
    vecs = _finite_array(cost_cfg[vec_key], f"costs.{vec_key}", ((n, p),), f"an array of shape ({n}, p)")
    if kind == "quartic":
        obj = quartic_family(vecs)
    else:
        mats = _finite_array(cost_cfg["matrices"], "costs.matrices", ((n, p, p),), f"an array of shape ({n}, {p}, {p})")
        try:
            obj = quadratic_family(mats, **{vec_key: vecs})
        except CostError as exc:  # an asymmetric or indefinite matrix, agent named
            raise ConfigError(f"costs.matrices: {exc}") from None
    if "lipschitz_override" in cost_cfg:
        mbar = _finite(cost_cfg["lipschitz_override"], "costs.lipschitz_override")
        _require(mbar > 0, f"costs.lipschitz_override must be positive, got {mbar}")
        obj.global_lipschitz = np.full(n, mbar)
    return obj


def scenario_from_dict(cfg: dict) -> Scenario:
    """Validate a config dict and resolve it into a runnable scenario.

    Gates checked here, each rejected with the violated hypothesis or the
    offending field named: schema version, every section being a JSON
    object, no unknown key in any section but ``diagnostics``, an integer
    agent count, edges as [i, j, weight] with integer ends, finite JSON
    numbers, not strings or booleans at any depth (edge entries, horizon, step, box,
    literal initial state, cost data, gains, eps0, eps, a positive
    Lipschitz override), required cost fields, cost vectors of shape
    (n, p) and matrices of shape (n, p, p), the gain field set, gain
    positivity and theta < alpha*gamma, eps0 in (theta/(alpha*gamma), 1)
    and eps > 0 (eps0 defaults to the midpoint), graph connectivity,
    literal initial states of shape (n, p), a box with lo <= hi and a
    non-negative integer seed, boolean diagnostics flags, a horizon of a
    whole number of steps whose trajectory buffer holds at most
    MAX_TRAJECTORY_ENTRIES floats, event mode needing a global gradient-Lipschitz
    modulus per agent, balanced integral states for the primary
    algorithms, a trigger section only in event mode, the trigger field
    set (sigma, delta, phi_rate, kappa, chi0; eps0 and eps live at the
    top level), trigger fields that are finite numbers or lists of n,
    trigger-parameter ranges and, computed last, one zero Laplacian
    eigenvalue, a minimizer, and with nonzero sigma the event certificate,
    whose eps8 gives the threshold constants.
    """
    _require(isinstance(cfg, dict), "a scenario config must be a JSON object")
    version = cfg.get("schema_version")
    _require(
        _is_int(version) and version == SCHEMA_VERSION,
        f"schema_version {version!r} does not match supported {SCHEMA_VERSION}",
    )
    _known_fields(cfg, "config", CONFIG_FIELDS)

    gspec = _section(cfg, "graph")
    _known_fields(gspec, "graph", ("n", "edges"))
    n = gspec.get("n")
    _require(n is None or _is_int(n), f"graph.n must be an integer, got {n!r}")
    edges = gspec.get("edges", [])
    _require(isinstance(edges, (list, tuple)), f"graph.edges must be a list, got a {type(edges).__name__}")
    if edges:
        ends = _finite_array(edges, "graph.edges", ((len(edges), 3),), "a list of [i, j, weight]")[:, :2]
        _require(bool(np.all(ends % 1 == 0)), "graph.edges must have integer vertex indices i and j")
    g = build_graph(edges, n=n)
    if not is_connected(g):
        comps = connected_components(g)
        raise ConfigError(
            "connectivity hypothesis violated: graph is disconnected; components "
            + ", ".join("{" + ",".join(str(v + 1) for v in c) + "}" for c in comps)
        )

    obj = _build_costs(_section(cfg, "costs"), g.n)

    gain_cfg = _section(cfg, "gains")
    bad = sorted(set(gain_cfg) ^ set(GainParams.__dataclass_fields__))
    _require(not bad, f"gains: unknown or missing field(s) {bad}; expected exactly alpha, beta, gamma, theta")
    gains = GainParams(**{k: _finite(v, f"gains.{k}") for k, v in gain_cfg.items()})
    eps0 = default_eps0(gains) if cfg.get("eps0") is None else _finite(cfg["eps0"], "eps0")
    eps = _finite(cfg.get("eps", 0.1), "eps")
    try:
        analysis._validate_design(gains, eps0, eps)
    except analysis.ConstantsError as exc:
        raise ConfigError(f"design-parameter hypothesis violated: {exc}") from None

    algorithm = cfg.get("algorithm", "continuous")
    _require(algorithm in ALGORITHMS, f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")

    integ = _section(cfg, "integration")
    _known_fields(integ, "integration", ("step", "horizon"))
    step = _finite(integ.get("step", 0.01), "integration.step")
    horizon = _finite(integ.get("horizon", 50.0), "integration.horizon")
    _require(step > 0, "integration step must be positive")
    _require(horizon >= step, "horizon must cover at least one step")
    samples, packed = horizon / step + 1.0, g.n * (3 * obj.p + (1 if algorithm == "event" else 0))
    _require(
        samples * packed <= MAX_TRAJECTORY_ENTRIES,
        f"integration.horizon {horizon} at step {step} needs a trajectory buffer of {samples * packed:.4g} "
        f"entries ({samples:.4g} samples of {packed}); the bound is {MAX_TRAJECTORY_ENTRIES}",
    )
    _require(
        whole_steps(step, horizon),
        f"integration.horizon {horizon} must be a whole number of steps of {step}; it is {horizon / step:.6g} steps",
    )

    init_cfg = _section(cfg, "initial")
    initial = InitialSpec()
    literal = "x" in init_cfg or "y" in init_cfg
    _known_fields(init_cfg, "initial", ("x", "y", "v") if literal else ("box", "seed"))
    if literal:
        _require("x" in init_cfg and "y" in init_cfg, "literal initial state needs both x and y")
        shape = (g.n, obj.p)
        for key in ("x", "y", "v"):
            if key in init_cfg:
                lit = _finite_array(init_cfg[key], f"initial.{key}", (shape,), f"an array of shape {shape}")
                setattr(initial, key, lit)
    else:
        box = init_cfg.get("box")
        _require(isinstance(box, list) and len(box) == 2, "initial needs literals x/y or a box [lo, hi]")
        initial.box = (_finite(box[0], "initial.box"), _finite(box[1], "initial.box"))
        _require(initial.box[0] <= initial.box[1], f"initial.box [lo, hi] needs lo <= hi, got {list(initial.box)}")
        seed = init_cfg.get("seed", presets.DEFAULT_SEED)
        _require(_is_int(seed) and seed >= 0, f"initial.seed must be a non-negative integer, got {seed!r}")
        initial.seed = seed

    if initial.v is not None and algorithm in ("continuous", "event"):
        drift = np.abs(initial.v.sum(axis=0)).max()
        _require(
            drift <= 1e-12,
            "balanced-start hypothesis violated: sum_i v_i(0) must be zero for the "
            f"{algorithm} algorithm (componentwise max |sum| = {drift:.3e}); only the "
            "alternative algorithm tolerates arbitrary v(0)",
        )

    diag_cfg = _section(cfg, "diagnostics")
    flags = {k: diag_cfg.get(k, False) for k in Diagnostics.__dataclass_fields__}
    for k, v in flags.items():
        _require(isinstance(v, bool), f"diagnostics.{k} must be true or false, got {v!r}")
    diagnostics = Diagnostics(**flags)

    trigger = None
    if algorithm != "event":
        _require("trigger" not in cfg, f"trigger is read only when algorithm is 'event', not {algorithm!r}")
    else:
        _require(
            obj.global_lipschitz is not None,
            "global gradient-Lipschitz hypothesis violated: event mode requires a "
            "global modulus for every agent, and quartic costs have none; set an "
            "explicit costs.lipschitz_override",
        )
        trig_cfg = _section(cfg, "trigger")
        for key in ("eps0", "eps"):
            _require(key not in trig_cfg, f"trigger.{key} is not read; set the top-level field {key} instead")
        _known_fields(trig_cfg, "trigger", TRIGGER_FIELDS)
        per_agent = ((), (1,), (g.n,)), f"a number or a list of {g.n} numbers"
        overrides = {k: _finite_array(v, f"trigger.{k}", *per_agent) for k, v in trig_cfg.items()}
        try:
            trigger = replace(TriggerParams.defaults(g.n), **overrides)
        except TriggerConfigError as exc:  # a range error, its field named first
            raise ConfigError(f"trigger.{exc}") from None

    try:
        sd, mini = spectral(g), minimizer_oracle(obj)
    except GraphError as exc:  # weights so far apart that round-off leaves two zero eigenvalues
        raise ConfigError(f"graph: {exc}") from None
    except CostError as exc:
        raise ConfigError(f"costs: the minimizer of the summed objective was not found: {exc}") from None
    law = eps8 = None
    if trigger is not None:
        try:
            eps8 = analysis.certificate_event(sd, obj, gains, eps0, eps, trigger, estimate_mf(obj, mini.x)).eps8
        except analysis.ConstantsError as exc:
            _require(
                not np.any(trigger.sigma),
                f"{exc}; so the event certificate gives no eps8, which the threshold constants varphi_i of the "
                "event trigger need; trigger.sigma: 0 runs without them, giving up the c_i*qhat_i disagreement term",
            )
        law = make_trigger_law(g, gains, trigger, eps0=eps0, eps8=eps8)

    return Scenario(
        name=str(cfg.get("name", "scenario")),
        graph=g,
        obj=obj,
        gains=gains,
        algorithm=algorithm,
        step=step,
        horizon=horizon,
        initial=initial,
        diagnostics=diagnostics,
        eps0=eps0,
        eps=eps,
        spectrum=sd,
        minimizer=mini,
        law=law,
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario config file (JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(cfg)


def load_preset(name: str) -> Scenario:
    return scenario_from_dict(presets.preset_config(name))


def make_initial(scenario: Scenario, seed: int | None = None) -> tuple[SwarmState, int | None]:
    """Materialize the initial state; returns (state, seed actually used)."""
    n, p = scenario.graph.n, scenario.obj.p
    init = scenario.initial
    if init.x is not None:
        v = init.v if init.v is not None else np.zeros((n, p))
        return SwarmState(init.x, init.y, v), None
    used = seed if seed is not None else init.seed
    rng = np.random.default_rng(used)
    lo, hi = init.box
    x = rng.uniform(lo, hi, (n, p))
    y = rng.uniform(lo, hi, (n, p))
    return SwarmState(x, y, np.zeros((n, p))), used


@dataclass
class RunReport:
    """Outcome of one run.

    ``runtime_s`` is the wall time of certificate preparation, integration
    (trigger processing included) and the post-hoc Lyapunov diagnostics.  It
    excludes loading (the spectrum, minimizer and trigger law too), the
    initial state, the checks, residuals and rate fit that follow, and file
    emission.  ``timings`` splits it into the seconds of its three phases,
    "certificates", "integrate" and "diagnostics", which share their
    timestamps and so sum to ``runtime_s`` up to rounding, and adds "emit",
    the file writing up to the summary's own write (0 without an output
    directory).  ``stepper`` names the form that stepped the run ("affine",
    "stages" or "rk4", see ``dynamics.route_for``), which sets its rounding.
    """

    name: str
    algorithm: str
    seed: int | None
    terminal_error: float | None
    terminal_error_to_solution_set: float | None
    consensus_residual: float
    gradient_sum_residual: float
    equilibrium_residuals: EquilibriumResidual
    fitted_rate: float | None
    rate_bound: float | None
    checks: dict[str, bool]
    trigger_summary: dict | None
    constants: analysis.CertificateConstants | None
    runtime_s: float
    timings: dict[str, float]
    stepper: str
    files: dict[str, str] = field(default_factory=dict)
    trajectory: Trajectory | None = None
    event_run: EventRun | None = None
    minimizer: MinimizerResult | None = None

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


# the RunReport fields summary.json carries
SUMMARY_FIELDS = (
    "name", "algorithm", "seed", "terminal_error", "terminal_error_to_solution_set", "consensus_residual",
    "gradient_sum_residual", "equilibrium_residuals", "fitted_rate", "rate_bound", "checks", "trigger_summary",
    "runtime_s", "timings", "stepper", "files",
)


def _solution_distance(x: np.ndarray, mini: MinimizerResult, to_set: bool = True) -> np.ndarray:
    """max_i distance of agent positions x (..., n, p) to the whole solution
    set, x* plus the span of ``null_basis`` (or to x* alone), as (...)."""
    d = x - mini.x
    if to_set and not mini.unique and mini.null_basis is not None:
        B = mini.null_basis
        d = d - (d @ B) @ B.T
    return np.linalg.norm(d, axis=-1).max(axis=-1)


# why ``_prepare_certificates`` leaves the certificate constants unavailable
SINGLE_AGENT = "a single agent: the certificate needs n > 1"
NO_MF = "no positive restricted strong convexity modulus m_f"
OUT_OF_RANGE = "the certificate's arithmetic leaves the float range"
ALTERNATIVE = "the alternative variant: the theorem covers the continuous and event laws only"


def _prepare_certificates(scenario: Scenario, state0: SwarmState):
    """Lyapunov context, constants, and why the constants are unavailable
    (None when they are not), as far as the scenario's data and the initial
    state allow: a single agent has neither context nor constants, the
    alternative variant has the context but no constants, and the constants
    are unavailable when m_f is not positive or their arithmetic leaves the
    float range (the context too, when its own coefficients do)."""
    g, obj, gains, eps0, eps = scenario.graph, scenario.obj, scenario.gains, scenario.eps0, scenario.eps
    sd, mini = scenario.spectrum, scenario.minimizer
    if g.n < 2:
        return None, None, SINGLE_AGENT
    eq = analysis.equilibrium_point(obj, gains, mini.x)
    varphi = None if scenario.law is None else scenario.law.varphi  # the V3 column's threshold constants
    try:
        ctx = analysis.LyapunovContext(g=g, sd=sd, obj=obj, gains=gains, eps0=eps0, eps=eps, eq=eq, varphi=varphi)
    except analysis.FloatRangeError:
        return None, None, OUT_OF_RANGE
    if scenario.algorithm == "alternative":
        return ctx, None, ALTERNATIVE
    mf = estimate_mf(obj, mini.x)
    if not mf > 0.0:
        return ctx, None, NO_MF
    V1_0 = ctx.sample(state0)["V1"]
    try:
        consts = analysis.certificate_continuous(sd, obj, gains, eps0, eps, V1_0, mini.x, mf)
        if scenario.algorithm == "event":
            consts = analysis.certificate_event(sd, obj, gains, eps0, eps, scenario.trigger, mf, base=consts)
    except analysis.FloatRangeError:
        return ctx, None, OUT_OF_RANGE
    ctx.consts = consts
    return ctx, consts, None


def certificate_outcome(
    scenario: Scenario, seed: int | None = None
) -> tuple[analysis.CertificateConstants | None, str | None]:
    """The certificate constants a scenario admits, without running it, and
    why it admits none: (constants, None) or (None, reason)."""
    state0, _ = make_initial(scenario, seed)
    return _prepare_certificates(scenario, state0)[1:]


def certificate_constants(scenario: Scenario, seed: int | None = None) -> analysis.CertificateConstants | None:
    """The certificate constants a scenario admits, without running it, or
    None; ``certificate_outcome`` gives the reason, one of those above."""
    return certificate_outcome(scenario, seed)[0]


def run(scenario: Scenario, out_dir=None, seed: int | None = None) -> RunReport:
    """Integrate a validated scenario and emit its reports.

    Returns a RunReport whose ``checks`` dict holds the runtime invariant
    results (balanced integral states; in event mode also the trigger
    discipline, chi positivity, and the chi decay floor).  Files are
    written under ``out_dir`` when given.
    """
    state0, used_seed = make_initial(scenario, seed)
    t_start = time.perf_counter()
    ctx, consts, _ = _prepare_certificates(scenario, state0)
    t_certified = time.perf_counter()
    g, obj, gains, mini = scenario.graph, scenario.obj, scenario.gains, scenario.minimizer

    event_run = None
    if scenario.algorithm == "event":
        event_run = simulate_event(state0, g, obj, gains, scenario.law, scenario.step, scenario.horizon)
        traj = event_run.trajectory
    else:
        rhs_fn = rhs_continuous if scenario.algorithm == "continuous" else rhs_alternative
        traj = integrate(
            lambda s, o=obj: rhs_fn(s, g, o, gains),
            state0,
            scenario.step,
            scenario.horizon,
            route=route_for(obj, gains, state0.u.size),
        )
    t_integrated = time.perf_counter()
    if scenario.diagnostics.lyapunov and ctx is not None:
        traj.extras = ctx.values(traj.x, traj.y, traj.v, traj.chi)
    t_end = time.perf_counter()
    timings = {
        "certificates": t_certified - t_start,
        "integrate": t_integrated - t_certified,
        "diagnostics": t_end - t_integrated,
        "emit": 0.0,
    }

    checks = {"v_balance": bool(v_balance_violation(traj) <= V_BALANCE_TOL)}
    trigger_summary = None
    if event_run is not None:
        trigger_summary = zeno_report(event_run.trigger_state, scenario.horizon, scenario.step)
        checks["trigger_discipline"] = bool(event_run.discipline_margin <= DISCIPLINE_TOL)
        checks["chi_positive"] = bool(event_run.chi.min() > 0.0)
        checks["chi_floor"] = bool(event_run.chi_floor_margin >= -CHI_FLOOR_TOL)

    final = traj.final_state()
    terminal_error = float(_solution_distance(final.x, mini, to_set=False))
    terminal_error_set = float(_solution_distance(final.x, mini))
    avg = final.x.mean(axis=0)
    consensus_residual = float(np.linalg.norm(final.x - avg))
    gradient_sum_residual = float(np.linalg.norm(obj.sum_grad(avg)))

    fitted = None
    rate_bound = None
    if consts is not None:
        rate_bound = consts.rate_bound_event if scenario.algorithm == "event" else consts.rate_bound_continuous
    if scenario.diagnostics.rate_fit and mini.unique:
        try:
            fitted = analysis.fit_rate(traj, mini.x).rate
        except ValueError:
            fitted = None

    report = RunReport(
        name=scenario.name,
        algorithm=scenario.algorithm,
        seed=used_seed,
        terminal_error=terminal_error,
        terminal_error_to_solution_set=terminal_error_set,
        consensus_residual=consensus_residual,
        gradient_sum_residual=gradient_sum_residual,
        equilibrium_residuals=equilibrium_residual(final, g, obj, gains),
        fitted_rate=fitted,
        rate_bound=rate_bound,
        checks=checks,
        trigger_summary=trigger_summary,
        constants=consts,
        runtime_s=t_end - t_start,
        timings=timings,
        stepper=traj.stepper,
        trajectory=traj,
        event_run=event_run,
        minimizer=mini,
    )
    if out_dir is not None:
        _emit(scenario, report, Path(out_dir))
    return report


def _write_csv(path: Path, header: list[str], rows):
    """The one CSV writer: the header, then each row of Python ints and
    floats written with ``repr`` (exact round trip)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _write_json(path: Path, payload: dict) -> Path:
    """The one JSON writer: sorted keys, two-space indent, a final newline."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_constants(out_dir: Path, name: str, consts: analysis.CertificateConstants) -> Path:
    """Write ``<name>_constants.json``: each certificate symbol's value and formula."""
    return _write_json(out_dir / f"{name}_constants.json", consts.to_report())


def _emit(scenario: Scenario, report: RunReport, out_dir: Path):
    """Write the run's files.  ``<name>_trajectory.npz`` is uncompressed
    NumPy arrays: t (m,); x, y and v (m, n, p); chi (m, n) in event mode;
    and each Lyapunov column (m,) under its own name."""
    t_start = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    base = scenario.name
    traj = report.trajectory
    arrays = {"t": traj.t, "x": traj.x, "y": traj.y, "v": traj.v, "chi": traj.chi, **traj.extras}
    traj_path = out_dir / f"{base}_trajectory.npz"
    np.savez(traj_path, **{k: a for k, a in arrays.items() if a is not None})
    report.files["trajectory"] = str(traj_path)

    if report.constants is not None:
        report.files["constants"] = str(write_constants(out_dir, base, report.constants))

    if report.event_run is not None:
        ev_path = out_dir / f"{base}_events.csv"
        ev = report.event_run.trigger_state.events
        columns = [c.tolist() for c in (ev.agent + 1, ev.index, ev.t, ev.chi, ev.error_sq, ev.qhat)]
        _write_csv(ev_path, ["agent", "k", "t", "chi_at_trigger", "error_norm_sq", "qhat"], zip(*columns))
        report.files["events"] = str(ev_path)

    report.timings["emit"] = time.perf_counter() - t_start
    summary = {name: getattr(report, name) for name in SUMMARY_FIELDS}
    summary["equilibrium_residuals"] = report.equilibrium_residuals._asdict()
    report.files["summary"] = str(_write_json(out_dir / f"{base}_summary.json", summary))


def compare(scenarios: list[Scenario], out_path, seed: int | None = None) -> Path:
    """Run scenarios sharing (step, horizon) and merge their error curves
    into one CSV: a time column plus one error column per scenario."""
    if not scenarios:
        raise ConfigError("compare needs at least one scenario")
    steps = {s.step for s in scenarios}
    horizons = {s.horizon for s in scenarios}
    if len(steps) > 1 or len(horizons) > 1:
        raise ConfigError(
            f"compare requires a shared step and horizon; got steps {sorted(steps)}, horizons {sorted(horizons)}"
        )
    curves = []
    names = []
    t_axis = None
    for sc in scenarios:
        rep = run(sc, out_dir=None, seed=seed)
        curves.append(_solution_distance(rep.trajectory.x, rep.minimizer))
        base = sc.name + ("" if sc.name not in names else f"_{len(names)}")
        names.append(base)
        t_axis = rep.trajectory.t
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out_path, ["t"] + [f"error_{name}" for name in names], np.column_stack([t_axis, *curves]).tolist())
    return out_path


def default_out_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "out"))
