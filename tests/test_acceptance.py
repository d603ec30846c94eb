"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (run with -s to see
them all).  Tolerances are fixed here, not calibrated.  Criteria 3 and 6
are implemented exactly as stated; with the pinned default parameters the
quartic scenario has not finished settling at T=100 and the triggered run
communicates more than the bound allows, so those two report FAIL with
the measured values (see the repository README for the analysis).
"""

import numpy as np

from socopt.analysis import envelope_excess, monotonicity_excess
from socopt.costs import estimate_mf, minimizer_oracle
from socopt.dynamics import v_balance_violation
from socopt.events import TriggerState, default_eps0, qhat
from socopt.graph import spectral
from socopt.harness import ConfigError, scenario_from_dict
from socopt.presets import preset_config

from conftest import heavy_ball_closed_form, random_connected_graph
from oracle import check_combined_convexity, gradient_check

# trigger counts the benchmark reports for its (unstated) parameters;
# kept as a reference fixture, not asserted against
REFERENCE_TRIGGER_COUNTS = (1199, 139, 664)


def _criterion(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" | {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_conservation_and_runtime(run1, run2, run3, run3_event, run_heavy_ball):
    worst = max(
        v_balance_violation(rep.trajectory)
        for _, rep in (run1, run2, run3, run3_event, run_heavy_ball)
    )
    runtimes = {name: rep.runtime_s for name, rep in
                (("scenario3", run3[1]), ("scenario3-event", run3_event[1]))}
    ok = worst <= 1e-10 and all(rt < 5.0 for rt in runtimes.values())
    _criterion(
        1,
        "integral-state balance and runtime",
        ok,
        f"max |sum_i v_i(t)|/(1+t) = {worst:.2e}; runtimes {runtimes}",
    )


def test_criterion_2_scenario3_convergence(run3):
    _, rep = run3
    assert rep.minimizer.method == "linear-solve"
    err = rep.terminal_error
    _criterion(2, "scenario-3 terminal error vs linear-solve oracle", err <= 1e-3, f"max_i ||x_i(50)-x*|| = {err:.2e}")


def test_criterion_3_asymptotic_scenarios_1_2(run1, run2):
    details = []
    ok = True
    for label, (_, rep) in (("scenario1", run1), ("scenario2", run2)):
        c, g = rep.consensus_residual, rep.gradient_sum_residual
        details.append(f"{label}: consensus={c:.2e} gradsum={g:.2e}")
        ok = ok and c <= 1e-2 and g <= 1e-2
    _criterion(3, "consensus and gradient-sum residuals at T=100", ok, "; ".join(details))


def test_criterion_4_v1_monotone(run1):
    _, rep = run1
    excess = monotonicity_excess(rep.trajectory.extras["V1"])
    _criterion(4, "V1 nonincreasing along scenario 1", excess <= 1e-8, f"max per-step increase = {excess:.2e}")


def test_criterion_5_envelopes_and_rates(run3, run3_event):
    _, rep3 = run3
    _, repe = run3_event
    c3, ce = rep3.constants, repe.constants
    t3, te = rep3.trajectory.t, repe.trajectory.t
    v2_excess = envelope_excess(t3, rep3.trajectory.extras["V2"], c3.eps3 / c3.eps4)
    v3_excess = envelope_excess(te, repe.trajectory.extras["V3"], ce.eps9 / ce.eps10)
    ok = (
        v2_excess <= 1e-6
        and v3_excess <= 1e-6
        and rep3.fitted_rate >= c3.rate_bound_continuous
        and repe.fitted_rate >= ce.rate_bound_event
    )
    _criterion(
        5,
        "exponential envelopes and certified rates",
        ok,
        f"V2 excess={v2_excess:.2e}, V3 excess={v3_excess:.2e}, "
        f"rates cont {rep3.fitted_rate:.3f}>={c3.rate_bound_continuous:.2e}, "
        f"event {repe.fitted_rate:.3f}>={ce.rate_bound_event:.2e}",
    )


def test_criterion_6_communication_saving(run3_event):
    _, rep = run3_event
    ts = rep.trigger_summary
    counts = tuple(a["count"] for a in ts["per_agent"])
    ratio = ts["trigger_ratio"]
    _criterion(
        6,
        "triggered communication within the saving bound",
        ratio <= 0.40,
        f"counts={counts} ratio={ratio:.4f} (reference counts {REFERENCE_TRIGGER_COUNTS})",
    )


def test_criterion_7_zeno_proxy(run3_event):
    sc, rep = run3_event
    er = rep.event_run
    finite = all(np.isfinite(a["count"]) for a in rep.trigger_summary["per_agent"])
    min_gap = min(a["min_gap"] for a in rep.trigger_summary["per_agent"])
    ok = finite and min_gap >= sc.step - 1e-12 and er.chi_floor_margin >= -1e-9
    _criterion(
        7,
        "Zeno-freedom proxy (finite counts, gap floor, chi floor)",
        ok,
        f"min gap={min_gap:.4f}, chi floor margin={er.chi_floor_margin:.2e}",
    )


def test_criterion_8_trigger_discipline(run3_event):
    _, rep = run3_event
    margin = rep.event_run.discipline_margin
    _criterion(8, "trigger inequality holds at every sample", margin <= 1e-9, f"max margin = {margin:.2e}")


def test_criterion_9_oracle_equivalences(path3, obj1, obj2, obj3):
    rng = np.random.default_rng(2024)
    samples = rng.uniform(-5.0, 5.0, (100, 3))
    quad_err = max(gradient_check(obj1, samples), gradient_check(obj3, samples))
    quartic_err = gradient_check(obj2, samples)

    qhat_gap = 0.0
    for _ in range(100):
        xhat = rng.uniform(-5.0, 5.0, (3, 3))
        ts = TriggerState(xhat=xhat, chi=np.ones(3), last_event=np.zeros(3), counts=np.ones(3, int))
        total = sum(qhat(i, ts, path3) for i in range(3))
        form = float(np.sum(xhat * (path3.laplacian @ xhat)))
        qhat_gap = max(qhat_gap, abs(total - form))

    spec_gap = 0.0
    for k in range(20):
        g = random_connected_graph(np.random.default_rng(1000 + k), int(rng.integers(2, 11)))
        sd = spectral(g)
        L = g.laplacian
        kn = np.eye(g.n) - np.ones((g.n, g.n)) / g.n
        spec_gap = max(
            spec_gap,
            float(np.abs(sd.lambda1 - np.linalg.svd(L, compute_uv=False)[-2::-1]).max()),
            abs(float(sd.lambda1.sum() - np.trace(L))),
            abs(float(np.sum(sd.lambda1**2) - np.sum(L**2))),
            max(0.0, -float(np.linalg.eigvalsh(L - sd.rho2 * kn).min())),
        )

    ok = quad_err <= 1e-6 and quartic_err <= 1e-5 and qhat_gap <= 1e-12 and spec_gap <= 1e-10
    _criterion(
        9,
        "finite-difference, disagreement-sum, and spectral oracles",
        ok,
        f"fd quad={quad_err:.2e}, fd quartic={quartic_err:.2e}, qhat={qhat_gap:.2e}, spectral={spec_gap:.2e}",
    )


def test_criterion_10_heavy_ball_reduction(run_heavy_ball):
    _, rep = run_heavy_ball
    traj = rep.trajectory
    gap = float(np.abs(traj.x[:, 0, 0] - heavy_ball_closed_form(traj.t)).max())
    _criterion(10, "single-agent run matches the closed form", gap <= 1e-8, f"max gap = {gap:.2e}")


def test_criterion_11_hypothesis_gates():
    failures = []

    cfg = preset_config("cdc18-scenario1")
    cfg["gains"]["theta"] = 12.0
    try:
        scenario_from_dict(cfg)
        failures.append("gain gate accepted theta >= alpha*gamma")
    except ValueError as exc:
        if "theta < alpha*gamma" not in str(exc):
            failures.append(f"gain gate message: {exc}")

    cfg = preset_config("cdc18-scenario1")
    cfg["graph"]["edges"] = [[1, 2, 1.0]]
    try:
        scenario_from_dict(cfg)
        failures.append("connectivity gate accepted a disconnected graph")
    except ConfigError as exc:
        if "disconnected" not in str(exc):
            failures.append(f"connectivity gate message: {exc}")

    cfg = preset_config("cdc18-scenario2")
    cfg["algorithm"] = "event"
    try:
        scenario_from_dict(cfg)
        failures.append("event gate accepted quartics without a modulus")
    except ConfigError as exc:
        if "gradient-Lipschitz" not in str(exc):
            failures.append(f"event gate message: {exc}")

    _criterion(11, "hypothesis gates reject with the named hypothesis", not failures, "; ".join(failures))


def test_criterion_12_combined_convexity_sampling(path3, obj3, gains_theta35):
    sd = spectral(path3)
    mini = minimizer_oracle(obj3)
    mf = estimate_mf(obj3, mini.x)
    Mbar = obj3.global_lipschitz.max()
    eps0 = default_eps0(gains_theta35)
    r = (gains_theta35.alpha * gains_theta35.gamma * eps0 - gains_theta35.theta) * gains_theta35.beta / (
        8.0 * gains_theta35.alpha
    )
    rng = np.random.default_rng(99)
    rep = check_combined_convexity(obj3, mini.x, path3, sd, r, rng.uniform(-10, 10, (500, 3, 3)), mf, Mbar)
    _criterion(12, "combined convexity inequality sampled margin", rep.margin >= -1e-9, f"margin = {rep.margin:.2e}")
