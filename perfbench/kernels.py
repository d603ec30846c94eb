"""Kernel micro-timings at a mid-run state, and the ring scaling sweep.

Each kernel is timed untraced, on the inputs of the workload that calls
it, at the sample halfway through that workload's run.  A kernel the
workload never calls reports 0, which marks the bypass.
"""

import time

import numpy as np

from socopt import analysis, costs, dynamics, events, graph, harness

import workloads

TIMING_BUDGET_S = 0.15  # per kernel, split over ROUNDS rounds
ROUNDS = 7

SCALE_NS = (3, 30, 300)
# steps per scaling measurement, chosen so that each takes 0.05-0.4 s
SCALE_STEPS = {"continuous": {3: 400, 30: 200, 300: 60}, "event": {3: 400, 30: 150, 300: 30}}
SCALE_REPEATS = 3


def median_us(fn) -> float:
    """Median over ROUNDS rounds of the mean microseconds per call of fn()."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    number = max(1, int(TIMING_BUDGET_S / ROUNDS / once))
    samples = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return float(np.median(samples)) * 1e6


def _mid_state(report) -> tuple[int, dynamics.SwarmState]:
    traj = report.trajectory
    k = traj.samples // 2
    return k, traj.state_at(k)


def _mid_trigger_state(report, k: int) -> events.TriggerState:
    """Broadcast caches and chi as they stood at sample k of an event run.

    A broadcast copies the agent's position at that sample, so xhat_i is
    x_i at agent i's last event at or before sample k.
    """
    er = report.event_run
    traj = report.trajectory
    step = traj.t[1] - traj.t[0]
    n = traj.x.shape[1]
    last = np.zeros(n, dtype=int)
    counts = np.zeros(n, dtype=int)
    for ev in er.trigger_state.events:
        idx = int(round(ev.t / step))
        if idx <= k:
            last[ev.agent] = max(last[ev.agent], idx)
            counts[ev.agent] += 1
    return events.TriggerState(
        xhat=traj.x[last, np.arange(n)].copy(),
        chi=er.chi[k].copy(),
        last_event=traj.t[last].copy(),
        counts=counts,
    )


def _continuous_kernels(cfg: dict, report, algorithm: str, out: dict, lyapunov: bool):
    sc = harness.scenario_from_dict(cfg)
    g, obj, gains = sc.graph, sc.obj, sc.gains
    _, state = _mid_state(report)
    rhs = dynamics.rhs_continuous if algorithm == "continuous" else dynamics.rhs_alternative
    out[f"dynamics.rhs_{algorithm}_us"] = median_us(lambda: rhs(state, g, obj, gains))
    if algorithm == "continuous":
        out["costs.grad_stack_us"] = median_us(lambda: obj.grad_stack(state.x))
        out["graph.laplacian_apply_us"] = median_us(lambda: g.laplacian @ state.x)
        out["dynamics.rk4_step_us"] = median_us(
            lambda: dynamics.rk4_step(lambda s: rhs(s, g, obj, gains), state, sc.step)
        )
    if lyapunov:
        sd = graph.spectral(g)
        mini = costs.minimizer_oracle(obj)
        ctx = analysis.LyapunovContext(
            g=g,
            sd=sd,
            obj=obj,
            gains=gains,
            eps0=events.default_eps0(gains),
            eps=sc.eps,
            eq=analysis.equilibrium_point(obj, gains, mini.x),
        )
        ctx.consts = harness.certificate_constants(sc)
        out["analysis.lyapunov_sample_us"] = median_us(lambda: ctx.sample(state))
        out["analysis.fit_rate_ms"] = median_us(lambda: analysis.fit_rate(report.trajectory, mini.x)) / 1e3


def _event_kernels(cfg: dict, report, out: dict, shared: bool):
    sc = harness.scenario_from_dict(cfg)
    g, obj, gains = sc.graph, sc.obj, sc.gains
    k, state = _mid_state(report)
    ts = _mid_trigger_state(report, k)
    law = report.event_run.law
    n = g.n
    out["events.qhat_us"] = median_us(lambda: [events.qhat(i, ts, g) for i in range(n)])
    out["events.trigger_sweep_us"] = median_us(
        lambda: [events.trigger_margin(i, ts, g, law, state.x) for i in range(n)]
    )
    out["events.rhs_event_us"] = median_us(lambda: events.rhs_event(state, ts, g, obj, gains))
    if shared:
        out["costs.grad_stack_us"] = median_us(lambda: obj.grad_stack(state.x))
        out["graph.laplacian_apply_us"] = median_us(lambda: g.laplacian @ ts.xhat)


KERNEL_METRICS = (
    "costs.grad_stack_us",
    "graph.laplacian_apply_us",
    "dynamics.rhs_continuous_us",
    "dynamics.rhs_alternative_us",
    "dynamics.rk4_step_us",
    "events.qhat_us",
    "events.trigger_sweep_us",
    "events.rhs_event_us",
    "analysis.lyapunov_sample_us",
    "analysis.fit_rate_ms",
)


def kernel_timings(workload: str, configs: list[dict], reports: list) -> dict[str, float]:
    """Micro-timings on the workload's own inputs, 0 for kernels it bypasses.

    presets: continuous kernels, Lyapunov sample and rate fit on
    cdc18-scenario3; event kernels on cdc18-scenario3-event.
    ring300-event: event kernels plus gradients and Laplacian apply.
    ring300-continuous: continuous kernels on the continuous run, the
    alternative right-hand side on the alternative run.
    """
    out = dict.fromkeys(KERNEL_METRICS, 0.0)
    by_name = {cfg["name"]: (cfg, rep) for cfg, rep in zip(configs, reports)}
    if workload == "presets":
        _continuous_kernels(*by_name["cdc18-scenario3"], "continuous", out, lyapunov=True)
        _event_kernels(*by_name["cdc18-scenario3-event"], out, shared=False)
    elif workload == "ring300-event":
        _event_kernels(configs[0], reports[0], out, shared=True)
    elif workload == "ring300-continuous":
        _continuous_kernels(configs[0], reports[0], "continuous", out, lyapunov=False)
        _continuous_kernels(configs[1], reports[1], "alternative", out, lyapunov=False)
    return out


def _step_us(cfg: dict, algorithm: str) -> float:
    sc = harness.scenario_from_dict(cfg)
    g, obj, gains = sc.graph, sc.obj, sc.gains
    state0, _ = harness.make_initial(sc)
    if algorithm == "event":
        law = events.make_trigger_law(
            g,
            gains,
            sc.trigger,
            eps0=events.default_eps0(gains),
            eps8=harness.certificate_constants(sc).eps8,
            denominator=sc.threshold_denominator,
        )

        def go():
            events.simulate_event(state0, g, obj, gains, law, sc.step, sc.horizon)

    else:

        def go():
            dynamics.integrate(lambda s: dynamics.rhs_continuous(s, g, obj, gains), state0, sc.step, sc.horizon)

    samples = []
    for _ in range(SCALE_REPEATS):
        t0 = time.perf_counter()
        go()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples)) / workloads.steps_of(cfg) * 1e6


def scaling_sweep(seed: int) -> dict[str, float]:
    """Microseconds per step on the ring generator, from t = 0, no Lyapunov."""
    out = {}
    for algorithm in ("continuous", "event"):
        for n in SCALE_NS:
            horizon = workloads.RING_STEP * SCALE_STEPS[algorithm][n]
            cfg = workloads.ring_config(seed, n, algorithm, horizon)
            out[f"scale.{algorithm}.n{n}.step_us"] = _step_us(cfg, algorithm)
    return out
