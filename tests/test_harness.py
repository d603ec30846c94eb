import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from socopt import events, harness
from socopt.cli import main as cli_main
from socopt.dynamics import DivergenceError
from socopt.harness import (
    ConfigError,
    _emit,
    _solution_distance,
    certificate_constants,
    compare,
    load_preset,
    load_scenario,
    run,
    scenario_from_dict,
)
from socopt.presets import (
    SCENARIO1_A,
    SCENARIO1_SHIFTS,
    SCENARIO2_CENTERS,
    SCENARIO3_C,
    SCENARIO3_LINEAR,
    preset_config,
    preset_names,
)

from conftest import unit_ring_scenario

# the benchmark literals, embedded independently of the presets module
FIXTURE_A = [
    [[2.0, -1.0, -1.0], [-1.0, 1.5, -0.5], [-1.0, -0.5, 1.5]],
    [[3.0, -3.0, 0.0], [-3.0, 4.0, -1.0], [0.0, -1.0, 1.0]],
    [[2.5, 0.0, -2.5], [0.0, 10.0, -10.0], [-2.5, -10.0, 12.5]],
]
FIXTURE_SHIFTS = [
    [0.6132, -0.5278, 1.2416],
    [-0.1576, -1.3736, 0.8708],
    [-1.5685, -1.8443, 0.2884],
]
FIXTURE_B = [[0.0, 0.0, 0.0], [2.5, 2.0, 3.0], [-3.5, -2.7, -1.0]]
FIXTURE_C = [
    [[4.7471, 1.2843, 0.5836], [1.2843, 5.0861, -2.4209], [0.5836, -2.4209, 2.2270]],
    [[1.3528, 0.5141, -2.1684], [0.5141, 1.2333, -0.5857], [-2.1684, -0.5857, 4.0361]],
    [[1.0223, 1.2630, -0.4907], [1.2630, 2.1391, -0.1378], [-0.4907, -0.1378, 0.7207]],
]
FIXTURE_L = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]


def test_preset_literals_match_fixture():
    np.testing.assert_array_equal(SCENARIO1_A, FIXTURE_A)
    np.testing.assert_array_equal(SCENARIO1_SHIFTS, FIXTURE_SHIFTS)
    np.testing.assert_array_equal(SCENARIO2_CENTERS, FIXTURE_B)
    np.testing.assert_array_equal(SCENARIO3_C, FIXTURE_C)
    np.testing.assert_array_equal(SCENARIO3_LINEAR, FIXTURE_SHIFTS)


def test_preset_graph_and_gains():
    sc1 = load_preset("cdc18-scenario1")
    np.testing.assert_array_equal(sc1.graph.laplacian, FIXTURE_L)
    assert (sc1.gains.alpha, sc1.gains.beta, sc1.gains.gamma, sc1.gains.theta) == (2.0, 2.0, 6.0, 5.0)
    sc3 = load_preset("cdc18-scenario3")
    assert sc3.gains.theta == 3.5
    sc2 = load_preset("cdc18-scenario2")
    assert not sc2.obj.all_quadratic()
    assert "heavy-ball" in preset_names()


def test_gate_theta_hypothesis():
    cfg = preset_config("cdc18-scenario1")
    cfg["gains"]["theta"] = 12.0
    with pytest.raises(ValueError, match="theta < alpha\\*gamma"):
        scenario_from_dict(cfg)


def test_gate_disconnected_graph_names_components():
    cfg = preset_config("cdc18-scenario1")
    cfg["graph"]["edges"] = [[1, 2, 1.0]]
    with pytest.raises(ConfigError, match="disconnected.*\\{1,2\\}.*\\{3\\}"):
        scenario_from_dict(cfg)


def test_gate_event_mode_quartic_needs_override():
    cfg = preset_config("cdc18-scenario2")
    cfg["algorithm"] = "event"
    with pytest.raises(ConfigError, match="gradient-Lipschitz"):
        scenario_from_dict(cfg)
    cfg["costs"]["lipschitz_override"] = 400.0
    sc = scenario_from_dict(cfg)  # accepted with an explicit modulus
    assert sc.obj.global_lipschitz.tolist() == [400.0] * 3


def test_gate_event_mode_singular_quadratic_rejected():
    # scenario 1's summed matrix is singular (m_f = 0): the varphi threshold
    # constants do not exist, so event mode with sigma != 0 is rejected at load
    cfg = preset_config("cdc18-scenario1")
    cfg["algorithm"] = "event"
    with pytest.raises(ConfigError, match="restricted strong convexity.*trigger.sigma: 0.*c_i\\*qhat_i"):
        scenario_from_dict(cfg)
    cfg["integration"]["horizon"] = 0.2
    cfg["trigger"] = {"sigma": 0}
    assert run(scenario_from_dict(cfg)).passed
    for name in preset_names():
        load_preset(name)  # no bundled preset trips the gate


def test_gate_event_mode_single_agent_rejected(tmp_path, capsys):
    # the varphi threshold constants come from the event certificate, which
    # needs a positive Laplacian eigenvalue: one agent is rejected at load
    cfg = preset_config("heavy-ball")
    cfg["algorithm"] = "event"
    named = "network hypothesis violated"
    with pytest.raises(ConfigError, match=f"{named}.*trigger.sigma: 0.*c_i\\*qhat_i"):
        scenario_from_dict(cfg)
    path = tmp_path / "one-agent-event.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path)]) == 2
    assert named in capsys.readouterr().err
    cfg["trigger"] = {"sigma": 0}
    rep = run(scenario_from_dict(cfg))
    assert rep.passed and set(rep.checks) == {"v_balance", "trigger_discipline", "chi_positive", "chi_floor"}


def test_gate_unbalanced_v0():
    cfg = preset_config("cdc18-scenario3")
    cfg["initial"] = {"x": [[0.0] * 3] * 3, "y": [[0.0] * 3] * 3, "v": [[1.0, 0.0, 0.0]] * 3}
    with pytest.raises(ConfigError, match="sum_i v_i"):
        scenario_from_dict(cfg)
    cfg["algorithm"] = "alternative"
    scenario_from_dict(cfg)  # tolerated there


def test_gate_schema_version():
    cfg = preset_config("cdc18-scenario1")
    cfg["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        scenario_from_dict(cfg)


def _missing_shifts(cfg):
    del cfg["costs"]["shifts"]


def _unknown_gain(cfg):
    cfg["gains"]["delta"] = 0.5


FIELD_MUTATIONS = {"costs.shifts": _missing_shifts, "delta": _unknown_gain}


@pytest.mark.parametrize("field", sorted(FIELD_MUTATIONS))
def test_gate_config_fields_named(field, tmp_path, capsys):
    # a missing cost field or an unknown gain is a rejected config (exit 2),
    # not an internal error (exit 1)
    cfg = preset_config("cdc18-scenario1")
    FIELD_MUTATIONS[field](cfg)
    with pytest.raises(ConfigError, match=field):
        scenario_from_dict(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path)]) == 2
    assert field in capsys.readouterr().err


def _set(path: str, value):
    """A mutation setting one (dotted) config field."""

    def mutate(cfg):
        *head, last = path.split(".")
        node = cfg
        for key in head:
            node = node.setdefault(key, {})
        node[last] = value

    return mutate


def _set_entry(path: str, index: tuple, value):
    """A mutation setting one entry of a (dotted) array field."""

    def mutate(cfg):
        node = cfg
        for key in (*path.split("."), *index[:-1]):
            node = node[key]
        node[index[-1]] = value

    return mutate


def _quartic_costs(centers):
    """A mutation replacing the costs with quartics on the given centers."""
    return _set("costs", {"kind": "quartic", "centers": centers})


def _literal_initial(cfg):
    cfg["initial"] = {"x": [[float("inf"), 0.0, 0.0]] + [[0.0] * 3] * 2, "y": [[0.0] * 3] * 3}


def _literal_initial_short(cfg):
    cfg["initial"] = {"x": [[0.0] * 3] * 2, "y": [[0.0] * 3] * 3}


def _literal_initial_bool(cfg):
    cfg["initial"] = {"x": [[True, 0.0, 0.0]] + [[0.0] * 3] * 2, "y": [[0.0] * 3] * 3}


def _trigger_outside_event(cfg):
    cfg["algorithm"] = "continuous"
    cfg["trigger"] = {"sigma": 0.3}


# each mutation of cdc18-scenario3-event, and the text the rejection must name
BAD_CONFIGS = {
    "costs-array": (_set("costs", []), "costs"),
    "diagnostics-bool": (_set("diagnostics", True), "diagnostics"),
    "trigger-array": (_set("trigger", [1]), "trigger"),
    "initial-number": (_set("initial", 5), "initial"),
    "graph-string": (_set("graph", "ring"), "graph"),
    "gains-array": (_set("gains", ["alpha", "beta", "gamma", "theta"]), "gains"),
    "integration-number": (_set("integration", 0.1), "integration"),
    "graph-n-fraction": (_set("graph.n", 2.5), "graph.n"),
    "horizon-infinite": (_set("integration.horizon", float("inf")), "integration.horizon"),
    # a horizon that is no whole number of steps would end the run at another time
    "horizon-1.5-steps": (
        _set("integration.horizon", 0.015),
        "integration.horizon 0.015 must be a whole number of steps of 0.01",
    ),
    "horizon-2.5-steps": (
        _set("integration.horizon", 0.025),
        "integration.horizon 0.025 must be a whole number of steps of 0.01",
    ),
    "horizon-fractional-steps": (
        _set("integration", {"step": 0.03, "horizon": 50.0}),
        "integration.horizon 50.0 must be a whole number of steps of 0.03",
    ),
    "box-nan": (_set("initial.box", [float("nan"), 5.0]), "initial.box"),
    "literal-initial-infinite": (_literal_initial, "initial.x"),
    "gain-nan": (_set("gains.alpha", float("nan")), "gains.alpha"),
    "lipschitz-zero": (_set("costs.lipschitz_override", 0.0), "lipschitz_override"),
    "lipschitz-negative": (_set("costs.lipschitz_override", -1.0), "lipschitz_override"),
    "lipschitz-nan": (_set("costs.lipschitz_override", float("nan")), "lipschitz_override"),
    "trigger-unknown-key": (_set("trigger.sigmaa", 0.3), "sigmaa"),
    # the removed trigger.preset and trigger.threshold_denominator are unknown fields like any other
    "trigger-unknown-preset": (_set("trigger.preset", "local_only"), "trigger: unknown field(s) ['preset']"),
    "trigger-preset-and-sigma": (
        _set("trigger", {"preset": "local-only", "sigma": 0.3}),
        "trigger: unknown field(s) ['preset']",
    ),
    "trigger-threshold-denominator": (
        _set("trigger.threshold_denominator", "rate"),
        "trigger: unknown field(s) ['threshold_denominator']",
    ),
    # a trigger section is read only in event mode
    "trigger-outside-event": (
        _trigger_outside_event,
        "trigger is read only when algorithm is 'event', not 'continuous'",
    ),
    "trigger-eps0": (_set("trigger.eps0", 0.9), "top-level field eps0"),
    "trigger-eps": (_set("trigger.eps", 0.2), "top-level field eps"),
    "eps-nan": (_set("eps", float("nan")), "eps must be finite"),
    "eps0-string": (_set("eps0", "big"), "eps0 must be a number"),
    "trigger-kappa-nan": (_set("trigger.kappa", float("nan")), "trigger.kappa must be finite"),
    "trigger-sigma-nan": (_set("trigger.sigma", float("nan")), "trigger.sigma must be finite"),
    "trigger-delta-nan": (_set("trigger.delta", float("nan")), "trigger.delta must be finite"),
    "trigger-chi0-nan": (_set("trigger.chi0", float("nan")), "trigger.chi0 must be finite"),
    "trigger-rate-nan": (_set("trigger.phi_rate", [1.0, float("nan"), 1.0]), "trigger.phi_rate must be finite"),
    # trigger-parameter ranges (TriggerParams), each named by its config field
    "trigger-sigma-range": (_set("trigger.sigma", 1.5), "trigger.sigma must lie in [0, 1)"),
    "trigger-delta-range": (_set("trigger.delta", 1.5), "trigger.delta must lie in [0, 1]"),
    "trigger-rate-range": (_set("trigger.phi_rate", [1.0, -1.0, 1.0]), "trigger.phi_rate, the chi decay rate, must"),
    "trigger-kappa-range": (_set("trigger.kappa", 0.1), "trigger.kappa must exceed (1-delta)/phi_rate"),
    "trigger-chi0-range": (_set("trigger.chi0", 0), "trigger.chi0, chi(0), must be positive"),
    "trigger-sigma-short": (_set("trigger.sigma", [0.1, 0.2]), "trigger.sigma must be a number or a list of 3"),
    "trigger-sigma-string": (_set("trigger.sigma", "a"), "trigger.sigma must be a number or a list of 3"),
    "edges-number": (_set("graph.edges", 5), "graph.edges must be a list"),
    "edges-no-weight": (_set("graph.edges", [[1, 2], [2, 3]]), "graph.edges must be a list of [i, j, weight]"),
    "edges-fraction": (_set("graph.edges", [[1, 2, 1.0], [2.5, 3, 1.0]]), "graph.edges must have integer"),
    "edges-weight-nan": (_set("graph.edges", [[1, 2, 1.0], [2, 3, float("nan")]]), "graph.edges must be finite"),
    "seed-fraction": (_set("initial.seed", 1.5), "initial.seed must be a non-negative integer"),
    "seed-negative": (_set("initial.seed", -1), "initial.seed must be a non-negative integer"),
    "lyapunov-string": (_set("diagnostics.lyapunov", "no"), "diagnostics.lyapunov must be true or false"),
    "rate-fit-number": (_set("diagnostics.rate_fit", 1), "diagnostics.rate_fit must be true or false"),
    "box-reversed": (_set("initial.box", [5.0, -5.0]), "initial.box [lo, hi] needs lo <= hi"),
    "literal-initial-shape": (_literal_initial_short, "initial.x must be an array of shape (3, 3)"),
    # numbers must be JSON numbers: no numeric strings, no booleans
    "eps0-numeric-string": (_set("eps0", "0.9"), "eps0 must be a number"),
    "gain-numeric-string": (_set("gains.alpha", "2"), "gains.alpha must be a number"),
    "gain-bool": (_set("gains.alpha", True), "gains.alpha must be a number"),
    "trigger-sigma-numeric-string": (_set("trigger.sigma", "0.3"), "trigger.sigma must be a number or a list of 3"),
    "trigger-sigma-bool": (_set("trigger.sigma", False), "trigger.sigma must be a number or a list of 3"),
    # a boolean nested in an array field, where np.asarray would read it as 1 or 0
    "trigger-delta-bool-entry": (
        _set("trigger.delta", [0.5, True, 0.5]),
        "trigger.delta must be a number or a list of 3",
    ),
    "linear-terms-bool": (
        _set_entry("costs.linear_terms", (0, 0), True),
        "costs.linear_terms must be an array of shape (3, p)",
    ),
    "edges-weight-bool": (_set("graph.edges", [[1, 2, 1.0], [2, 3, True]]), "graph.edges must be a list of"),
    "edges-end-bool": (_set("graph.edges", [[True, 2, 1.0], [2, 3, 1.0]]), "graph.edges must be a list of"),
    "literal-initial-bool": (_literal_initial_bool, "initial.x must be an array of shape (3, 3)"),
    "step-numeric-string": (_set("integration.step", "0.01"), "integration.step must be a number"),
    "edges-weight-string": (_set("graph.edges", [[1, 2, 1.0], [2, 3, "1.0"]]), "graph.edges must be a list of"),
    "box-strings": (_set("initial.box", ["-5", "5"]), "initial.box must be a number"),
    "lipschitz-string": (_set("costs.lipschitz_override", "3"), "costs.lipschitz_override must be a number"),
    "schema-version-bool": (_set("schema_version", True), "schema_version True does not match"),
    "eps-huge-int": (_set("eps", 10**400), "eps must be finite"),  # float() overflows
    # unknown keys in a section with a fixed key set
    "config-unknown-key": (_set("eps_0", 0.9), "config: unknown field(s) ['eps_0']"),
    "graph-unknown-key": (_set("graph.nodes", 3), "graph: unknown field(s) ['nodes']"),
    "costs-unknown-key": (_set("costs.shifts", SCENARIO1_SHIFTS), "unknown field(s) ['shifts']"),
    "integration-unknown-key": (_set("integration.setp", 0.001), "integration: unknown field(s) ['setp']"),
    "initial-unknown-key": (_set("initial.sed", 7), "initial: unknown field(s) ['sed']"),
    # cost data: finite JSON numbers, one vector (n, p) and one matrix (n, p, p) per agent
    "linear-terms-numeric-string": (
        _set_entry("costs.linear_terms", (0, 0), "0.6132"),
        "costs.linear_terms must be an array of shape (3, p)",
    ),
    "linear-terms-nan": (_set_entry("costs.linear_terms", (0, 0), float("nan")), "costs.linear_terms must be finite"),
    "matrices-number": (_set("costs.matrices", 5), "costs.matrices must be an array of shape (3, 3, 3)"),
    "matrices-ragged": (
        _set_entry("costs.matrices", (0,), [[1.0, 0.0, 0.0], [0.0, 1.0]]),
        "costs.matrices must be an array of shape (3, 3, 3)",
    ),
    "matrices-nan": (_set_entry("costs.matrices", (0, 0, 0), float("nan")), "costs.matrices must be finite"),
    "centers-3d": (_quartic_costs([[[0.0, 0.0, 0.0]]] * 3), "costs.centers must be an array of shape (3, p)"),
    "centers-numeric-string": (
        _quartic_costs([["1", 0.0, 0.0], [2.5, 2.0, 3.0], [-3.5, -2.7, -1.0]]),
        "costs.centers must be an array of shape (3, p)",
    ),
    "centers-number": (_quartic_costs(3), "costs.centers must be an array of shape (3, p)"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_rejected_at_load(case, tmp_path, capsys):
    mutate, named = BAD_CONFIGS[case]
    cfg = preset_config("cdc18-scenario3-event")
    cfg["integration"]["horizon"] = 0.05
    mutate(cfg)
    with pytest.raises(ConfigError, match=re.escape(named)):
        scenario_from_dict(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity as JSON literals
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, integration, entries",
    [
        ("cdc18-scenario1", {"horizon": 1e8}, "2.7e+11 entries"),  # numpy raised MemoryError in run
        ("cdc18-scenario1", {"horizon": 1e300}, "2.7e+303 entries"),  # numpy's "maximum dimension" ValueError
        ("cdc18-scenario1", {"horizon": 1e300, "step": 1e-300}, "inf entries"),  # round(inf) overflowed at load
        ("cdc18-scenario1", {"horizon": 1e5}, "2.7e+08 entries"),  # just over the bound
        ("cdc18-scenario3-event", {"horizon": 9e4}, "2.7e+08 entries"),  # over it only with chi counted
    ],
)
def test_horizon_beyond_buffer_bound_rejected_at_load(preset, integration, entries):
    # the config is only loaded, never run: nothing near the bound is allocated
    cfg = preset_config(preset)
    cfg["integration"].update(integration)
    with pytest.raises(ConfigError, match=r"integration\.horizon .* " + re.escape(entries)):
        scenario_from_dict(cfg)


def test_horizon_within_buffer_bound_loads():
    # (9.9e6 + 1) samples of 27 entries, just under 2**28; loaded, never run
    cfg = preset_config("cdc18-scenario1")
    cfg["integration"]["horizon"] = 9.9e4
    assert scenario_from_dict(cfg).horizon == 9.9e4
    assert 27 * (9.9e6 + 1) <= harness.MAX_TRAJECTORY_ENTRIES < 27 * (1e7 + 1)


def _indefinite_matrix_2(cfg):
    cfg["costs"]["matrices"][1] = np.diag([-1.0, 1.0, 1.0]).tolist()


def _asymmetric_matrix_3(cfg):
    cfg["costs"]["matrices"][2][0][1] += 0.5


@pytest.mark.parametrize(
    "mutate,named",
    [
        (_indefinite_matrix_2, "costs.matrices: quadratic matrix of agent 2 is indefinite; eigenvalues [-1.  1.  1.]"),
        (_asymmetric_matrix_3, "costs.matrices: quadratic matrix of agent 3 is asymmetric (max |A - A^T| = 5.000e-01)"),
    ],
)
def test_cost_matrix_rejection_names_field_and_agent(mutate, named, tmp_path, capsys):
    cfg = preset_config("cdc18-scenario3")
    mutate(cfg)
    with pytest.raises(ConfigError, match=re.escape(named)):
        scenario_from_dict(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert f"error: {named}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset,key,value",
    [
        ("heavy-ball", "eps0", 2.0),
        ("cdc18-scenario3", "eps0", 2.0),
        ("cdc18-scenario3", "eps0", 0.1),  # below theta/(alpha*gamma) = 0.2917
        ("cdc18-scenario3", "eps", -1.0),
    ],
)
def test_design_parameters_rejected_at_load(preset, key, value, tmp_path, capsys):
    cfg = preset_config(preset)
    cfg[key] = value
    with pytest.raises(ConfigError, match=f"design-parameter hypothesis violated: {key} must"):
        scenario_from_dict(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert f"{key} must" in capsys.readouterr().err


@pytest.mark.parametrize("name", preset_names())
def test_eps0_resolved_at_load(name):
    sc = load_preset(name)
    assert type(sc.eps0) is float and type(sc.eps) is float
    assert sc.eps0 == events.default_eps0(sc.gains)


def test_config_accepts_top_level_eps_and_unknown_diagnostics():
    cfg = preset_config("cdc18-scenario3-event")
    cfg.update(eps0=0.9, eps=0.2)
    cfg["diagnostics"]["constants"] = False
    cfg["costs"]["lipschitz_override"] = 40.0  # any cost kind takes it
    sc = scenario_from_dict(cfg)
    assert (sc.eps0, sc.eps) == (0.9, 0.2)
    assert certificate_constants(sc).Mbar == 40.0


def test_load_scenario_roundtrip(tmp_path):
    cfg = preset_config("cdc18-scenario3")
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(cfg))
    sc = load_scenario(path)
    assert sc.name == "cdc18-scenario3"
    with pytest.raises(ConfigError, match="JSON"):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        load_scenario(bad)


def test_run_emits_files(tmp_path, run3_event):
    sc, _ = run3_event
    rep = run(sc, out_dir=tmp_path)
    for key in ("trajectory", "constants", "events", "summary"):
        assert key in rep.files and os.path.exists(rep.files[key])
    summary = json.loads((tmp_path / "cdc18-scenario3-event_summary.json").read_text())
    assert summary["checks"]["trigger_discipline"]
    assert summary["trigger_summary"]["total_samples"] == 15000
    assert summary["seed"] == 12345
    with np.load(tmp_path / "cdc18-scenario3-event_trajectory.npz", allow_pickle=False) as npz:
        assert {"t", "x", "v", "chi", "V3"} <= set(npz.files)
        assert npz["x"].shape == npz["v"].shape == (5001, 3, 3) and npz["chi"].shape == (5001, 3)
    ev_cols = (tmp_path / "cdc18-scenario3-event_events.csv").read_text().splitlines()[0]
    assert ev_cols == "agent,k,t,chi_at_trigger,error_norm_sq,qhat"


@pytest.mark.parametrize("name", preset_names())
def test_trajectory_npz_holds_the_run_bit_for_bit(name, tmp_path):
    cfg = preset_config(name)
    integ = cfg.setdefault("integration", {})
    integ["horizon"] = 20 * integ.get("step", 0.01)
    sc = scenario_from_dict(cfg)
    rep = run(sc, out_dir=tmp_path)
    traj, n, p = rep.trajectory, sc.graph.n, sc.obj.p
    expected = {"t": traj.t, "x": traj.x, "y": traj.y, "v": traj.v, **traj.extras}
    if sc.algorithm == "event":
        expected["chi"] = traj.chi
    path = tmp_path / f"{sc.name}_trajectory.npz"
    assert rep.files["trajectory"] == str(path)
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == sorted(expected)
        assert npz["t"].shape == (traj.samples,) and npz["x"].shape == (traj.samples, n, p)
        for key, arr in expected.items():
            assert npz[key].dtype == arr.dtype and npz[key].shape == arr.shape, key
            assert npz[key].tobytes() == arr.tobytes(), key
    assert not list(tmp_path.glob("*_trajectory.csv"))


def test_events_csv_matches_per_value_writer(tmp_path, run3_event):
    sc, rep = run3_event
    _emit(sc, dataclasses.replace(rep, files={}), tmp_path)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["agent", "k", "t", "chi_at_trigger", "error_norm_sq", "qhat"])
        for ev in rep.event_run.trigger_state.events:
            w.writerow([ev.agent + 1, ev.index] + [repr(float(v)) for v in (ev.t, ev.chi, ev.error_sq, ev.qhat)])
    assert len(rep.event_run.trigger_state.events) > 1000
    assert (tmp_path / "cdc18-scenario3-event_events.csv").read_bytes() == ref.read_bytes()


def _error_curve_reference(rep):
    """max_i distance to the minimizer set per sample, projected with einsum."""
    mini = rep.minimizer
    d = rep.trajectory.x - mini.x[None, None, :]
    if not mini.unique:
        B = mini.null_basis
        d = d - np.einsum("mnk,kj->mnj", d @ B, B.T)
    return np.linalg.norm(d, axis=2).max(axis=1)


@pytest.mark.parametrize(
    "preset,algorithms",
    [("cdc18-scenario1", ("continuous", "alternative")), ("cdc18-scenario3", ("continuous", "event"))],
)
def test_compare_csv_matches_per_value_writer(preset, algorithms, tmp_path):
    scenarios = []
    for algorithm in algorithms:
        cfg = preset_config(preset)
        cfg["integration"]["horizon"] = 3.0
        cfg["name"] = f"{preset}-{algorithm}"
        cfg["algorithm"] = algorithm
        scenarios.append(scenario_from_dict(cfg))
    out = compare(scenarios, tmp_path / "cmp.csv")
    reports = [run(sc) for sc in scenarios]
    curves = [_error_curve_reference(rep) for rep in reports]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t"] + [f"error_{sc.name}" for sc in scenarios])
        t = reports[0].trajectory.t
        for k in range(t.shape[0]):
            w.writerow([repr(float(t[k]))] + [repr(float(c[k])) for c in curves])
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("fixture", ["run1", "run2", "run3"])
def test_solution_distance_one_function(fixture, request):
    # the (m, n, p) curve equals the einsum curve and the per-sample values bit for bit
    _, rep = request.getfixturevalue(fixture)
    x, mini = rep.trajectory.x, rep.minimizer
    curve = _solution_distance(x, mini)
    assert curve.shape == (rep.trajectory.samples,)
    assert np.array_equal(curve, _error_curve_reference(rep))
    assert np.array_equal(curve, [_solution_distance(x[k], mini) for k in range(x.shape[0])])
    assert curve[-1] == rep.terminal_error_to_solution_set
    to_point = np.linalg.norm(x[-1] - mini.x, axis=1).max()
    assert _solution_distance(x[-1], mini, to_set=False) == to_point == rep.terminal_error
    assert mini.unique or curve[-1] < to_point


def test_event_run_computes_varphi_once(monkeypatch):
    # make_trigger_law, at load, is the one caller; V3 reads law.varphi
    calls = []
    varphi_all = events.varphi_all

    def counted(*args):
        calls.append(args)
        return varphi_all(*args)

    monkeypatch.setattr(events, "varphi_all", counted)
    cfg = preset_config("cdc18-scenario3-event")
    cfg["integration"]["horizon"] = 0.5
    rep = run(scenario_from_dict(cfg))
    assert len(calls) == 1
    assert "V3" in rep.trajectory.extras and rep.event_run.law.varphi is not None


def test_run_deterministic_bytes(tmp_path):
    cfg = preset_config("cdc18-scenario3")
    cfg["integration"]["horizon"] = 2.0
    sc = scenario_from_dict(cfg)
    rep_a = run(sc, out_dir=tmp_path / "a")
    rep_b = run(sc, out_dir=tmp_path / "b")
    bytes_a = (tmp_path / "a" / "cdc18-scenario3_trajectory.npz").read_bytes()
    bytes_b = (tmp_path / "b" / "cdc18-scenario3_trajectory.npz").read_bytes()
    assert bytes_a == bytes_b


def test_run_seed_changes_initial_state(tmp_path):
    cfg = preset_config("cdc18-scenario3")
    cfg["integration"]["horizon"] = 1.0
    sc = scenario_from_dict(cfg)
    rep_a = run(sc, seed=1)
    rep_b = run(sc, seed=2)
    assert not np.array_equal(rep_a.trajectory.x[0], rep_b.trajectory.x[0])
    assert rep_a.seed == 1 and rep_b.seed == 2


def test_compare_merges_and_validates(tmp_path):
    cfg_c = preset_config("cdc18-scenario3")
    cfg_c["integration"]["horizon"] = 5.0
    cfg_e = preset_config("cdc18-scenario3-event")
    cfg_e["integration"]["horizon"] = 5.0
    out = compare([scenario_from_dict(cfg_c), scenario_from_dict(cfg_e)], tmp_path / "cmp.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "t,error_cdc18-scenario3,error_cdc18-scenario3-event"
    assert len(lines) == 502

    # at the shared horizon the two variants land within a decade of each other
    last = lines[-1].split(",")
    ratio = float(last[2]) / float(last[1])
    assert 0.1 <= ratio <= 10.0

    cfg_bad = preset_config("cdc18-scenario3")
    cfg_bad["integration"]["horizon"] = 7.0
    with pytest.raises(ConfigError, match="shared step and horizon"):
        compare([scenario_from_dict(cfg_c), scenario_from_dict(cfg_bad)], tmp_path / "x.csv")


def test_compare_single_scenario_two_columns(tmp_path):
    cfg = preset_config("cdc18-scenario3")
    cfg["integration"]["horizon"] = 2.0
    out = compare([scenario_from_dict(cfg)], tmp_path / "single.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "t,error_cdc18-scenario3"
    assert all(line.count(",") == 1 for line in lines)


def test_compare_both_algorithms_error_to_solution_set_decays(tmp_path):
    # merely convex costs: both variants approach the minimizer set
    cfg_c = preset_config("cdc18-scenario1")
    cfg_c["integration"]["horizon"] = 60.0
    cfg_a = preset_config("cdc18-scenario1")
    cfg_a["integration"]["horizon"] = 60.0
    cfg_a["name"] = "cdc18-scenario1-alt"
    cfg_a["algorithm"] = "alternative"
    out = compare([scenario_from_dict(cfg_c), scenario_from_dict(cfg_a)], tmp_path / "cmp1.csv")
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    first = [float(rows[0][1]), float(rows[0][2])]
    last = [float(rows[-1][1]), float(rows[-1][2])]
    assert last[0] <= 1e-4 and last[1] <= 1e-4
    assert last[0] < first[0] and last[1] < first[1]


def test_certificate_constants_helper():
    sc = load_preset("cdc18-scenario3")
    consts = certificate_constants(sc)
    assert consts is not None and consts.eps3 > 0
    hb = load_preset("heavy-ball")
    assert certificate_constants(hb) is None


def test_cli_run_preset(tmp_path, capsys):
    rc = cli_main(["run", "--preset", "heavy-ball", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "heavy-ball" in out
    assert (tmp_path / "heavy-ball_trajectory.npz").exists()


def test_cli_constants(tmp_path, capsys):
    rc = cli_main(["constants", "--preset", "cdc18-scenario3", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "cdc18-scenario3_constants.json").read_text())
    assert payload["eps4"]["value"] > 1
    assert "formula" in payload["m1"]


def test_cli_divergence_exits_3(tmp_path, capsys):
    # scenario 1 with the alternative variant diverges (slowest mode +0.17/s)
    cfg = preset_config("cdc18-scenario1")
    cfg["algorithm"] = "alternative"
    cfg["integration"]["horizon"] = 200.0
    cfg["diagnostics"] = {"lyapunov": False, "rate_fit": False}
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "error: a state entry exceeded 1e+12 in magnitude or was not finite at t=161.6200" in err
    assert "last finite state at t=161.6100:" in err


def _write_config(tmp_path, preset: str, section: str, key: str, value, horizon: float = 2.0):
    cfg = preset_config(preset)
    cfg[section][key] = value
    cfg["integration"]["horizon"] = horizon
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@pytest.mark.parametrize(
    "preset, section, key, value",
    [
        ("cdc18-scenario3", "gains", "gamma", 1e300),  # gamma**2 overflows in V1(0)
        ("cdc18-scenario3", "gains", "alpha", 1e300),  # alpha**2 overflows in eps2
        ("cdc18-scenario2", "initial", "box", [-5.0, 1e150]),  # eps1 underflows to 0
        ("cdc18-scenario3", "initial", "box", [-5.0, 1e200]),  # V1(0) and the ball D are infinite
    ],
)
def test_certificate_out_of_float_range_is_unavailable(preset, section, key, value, tmp_path, capsys):
    # a certificate is a report, not a precondition: where its arithmetic
    # leaves the float range it is unavailable, and the run finishes or diverges
    path, cfg = _write_config(tmp_path, preset, section, key, value)
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err
    assert certificate_constants(scenario_from_dict(cfg)) is None


@pytest.mark.parametrize("key", ["gamma", "alpha"])
def test_event_run_without_its_eps8_exits_2_naming_it(key, tmp_path, capsys):
    # the threshold constants varphi_i need the event certificate's eps8, and
    # the certificate depends on the config alone: it is checked at load
    path, cfg = _write_config(tmp_path, "cdc18-scenario3-event", "gains", key, 1e300)
    with pytest.raises(ConfigError, match="leaves the float range.*eps8.*trigger.sigma: 0.*c_i\\*qhat_i"):
        scenario_from_dict(cfg)
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "eps8" in err and "Traceback" not in err


def _quartic_event(cfg):
    cfg["algorithm"] = "event"
    cfg["costs"]["centers"] = [SCENARIO2_CENTERS[1]] * 3  # a flat sum: the quartic descent stalls
    cfg["costs"]["lipschitz_override"] = 400.0


@pytest.mark.parametrize(
    "preset, mutate, named",
    [
        # the quartic descent's absolute tolerance stalls at a centre of 1e8
        ("cdc18-scenario2", _set_entry("costs.centers", (0, 0), 1e8), "costs: the minimizer"),
        # weights 20 orders apart leave two Laplacian eigenvalues at round-off
        ("cdc18-scenario3", _set_entry("graph.edges", (0, 2), 1e20), "graph: expected one zero eigenvalue, found 2"),
        ("cdc18-scenario2", _quartic_event, "costs: the minimizer"),
    ],
)
def test_spectrum_and_minimizer_are_resolved_at_load(preset, mutate, named, tmp_path, capsys):
    # each of these configs loaded and then failed inside run; the event
    # certificate's case is test_event_run_without_its_eps8_exits_2_naming_it
    cfg = preset_config(preset)
    cfg["integration"]["horizon"] = 0.05
    mutate(cfg)
    with pytest.raises(ConfigError, match=re.escape(named)):
        scenario_from_dict(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


def test_event_certificate_does_not_depend_on_the_initial_state(tmp_path, capsys):
    # a linear term of 1e300 puts V1(0), and so the continuous certificate,
    # out of the float range, but eps8 reads the config alone: the run loads
    # and diverges
    cfg = preset_config("cdc18-scenario3-event")
    cfg["costs"]["linear_terms"][0][0] = 1e300
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    sc = scenario_from_dict(cfg)
    assert sc.law.varphi is not None
    with pytest.raises(DivergenceError):
        run(sc)
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("case", ["cdc18-scenario3-event", "ring30-event"])
def test_load_time_trigger_law_matches_the_report_certificate(case, monkeypatch):
    # the law's threshold constants come from the event certificate built at
    # load; the report's certificate, built in run, gives the same eps8
    if case == "ring30-event":
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        cfg = workloads.ring_config(workloads.DEFAULT_SEED, 30, "event", 0.2)
    else:
        cfg = preset_config(case)
    sc = scenario_from_dict(cfg)
    expected = events.varphi_all(sc.graph, sc.gains, sc.eps0, certificate_constants(sc).eps8)
    assert sc.law.varphi.tobytes() == expected.tobytes()
    assert sc.trigger is sc.law.params


def test_event_run_with_sigma_zero_keeps_its_v3_column():
    # sigma = 0 needs no threshold constants, but the V3 column still reads them
    cfg = preset_config("cdc18-scenario3-event")
    cfg["integration"]["horizon"] = 0.5
    cfg["trigger"] = {"sigma": 0}
    rep = run(scenario_from_dict(cfg))
    assert sorted(rep.trajectory.extras) == ["V1", "V2", "V3", "W1", "W2", "W3", "W4"]
    assert rep.event_run.law.varphi is not None and not rep.event_run.law.c.any()


@pytest.mark.parametrize(
    "name, stepper", [("cdc18-scenario1", "affine"), ("cdc18-scenario2", "stages"), ("ring300", "rk4")]
)
def test_summary_names_the_stepper(name, stepper, tmp_path):
    # the form that stepped a run sets its rounding, so the summary says which
    if name == "ring300":
        shifts = np.random.default_rng(300).uniform(-2.0, 2.0, (300, 3)).tolist()
        costs = {"kind": "quadratic_shift", "matrices": [np.eye(3).tolist()] * 300, "shifts": shifts}
        sc = unit_ring_scenario("cdc18-scenario3", 300, costs, 0.02)
    else:
        sc = dataclasses.replace(load_preset(name), horizon=0.1)
    rep = run(sc, out_dir=tmp_path)
    assert rep.stepper == stepper
    assert json.loads(Path(rep.files["summary"]).read_text())["stepper"] == stepper


@pytest.mark.parametrize(
    "preset, gamma, reason",
    [
        ("cdc18-scenario3", 1e300, "the certificate's arithmetic leaves the float range"),
        ("cdc18-scenario1", None, "no positive restricted strong convexity modulus m_f"),
        ("heavy-ball", None, "a single agent: the certificate needs n > 1"),
    ],
)
def test_constants_command_states_why_a_certificate_is_unavailable(preset, gamma, reason, tmp_path, capsys):
    cfg = preset_config(preset)
    if gamma is not None:  # scenario3 has n = 3 and m_f > 0; gamma**2 overflows in V1(0)
        cfg["gains"]["gamma"] = gamma
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["constants", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{cfg['name']}: certificate constants unavailable ({reason})\n"


@pytest.mark.parametrize("case", ["cdc18-scenario3", "ring300"])
def test_alternative_variant_has_no_certificate(case, tmp_path, capsys, monkeypatch):
    # the theorem covers the continuous and event laws only: scenario3 run
    # as alternative, and the benchmark's 300-agent ring with theta = 3.5
    # (two steps of it), admit no constants and no rate bound, and say
    # why; the Lyapunov columns that need no constants are still reported
    if case == "ring300":
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        cfg = workloads.ring_config(workloads.DEFAULT_SEED, 300, "alternative", 0.02)
        cfg["gains"]["theta"] = 3.5
    else:
        cfg = preset_config(case)
        cfg["algorithm"] = "alternative"
        cfg["integration"]["horizon"] = 2.0
    sc = scenario_from_dict(cfg)
    assert harness.certificate_outcome(sc) == (None, harness.ALTERNATIVE)
    rep = run(sc, out_dir=tmp_path)
    assert rep.constants is None and rep.rate_bound is None and "constants" not in rep.files
    assert json.loads(Path(rep.files["summary"]).read_text())["rate_bound"] is None
    assert sorted(rep.trajectory.extras) == ([] if case == "ring300" else ["V1", "W1", "W2", "W3"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli_main(["constants", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{cfg['name']}: certificate constants unavailable ({harness.ALTERNATIVE})\n"
    # the same scenario run as continuous has its certificate
    cfg["algorithm"] = "continuous"
    consts, reason = harness.certificate_outcome(scenario_from_dict(cfg))
    assert consts is not None and consts.rate_bound_continuous > 0.0 and reason is None


@pytest.mark.parametrize("out", [True, False])
def test_report_times_the_run_by_phase(out, tmp_path):
    sc = dataclasses.replace(load_preset("cdc18-scenario3-event"), horizon=0.5)
    rep = run(sc, out_dir=tmp_path if out else None)
    t = rep.timings
    assert set(t) == {"certificates", "integrate", "diagnostics", "emit"}
    assert all(v >= 0.0 for v in t.values())
    # the three phases of runtime_s share their timestamps
    assert abs(t["certificates"] + t["integrate"] + t["diagnostics"] - rep.runtime_s) <= 1e-12 * rep.runtime_s
    assert (t["emit"] > 0.0) == out
    if out:
        assert json.loads(Path(rep.files["summary"]).read_text())["timings"] == t


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = preset_config("cdc18-scenario1")
    cfg["gains"]["theta"] = 13.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = cli_main(["run", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "theta < alpha*gamma" in err


@pytest.mark.parametrize("case", ["missing", "directory"])
def test_cli_rejects_unreadable_config_path(case, tmp_path, capsys):
    path = tmp_path / "missing.json" if case == "missing" else tmp_path
    with pytest.raises(ConfigError, match=f"cannot read config {re.escape(str(path))}"):
        load_scenario(path)
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert f"cannot read config {path}" in capsys.readouterr().err


def test_cli_compare(tmp_path):
    cfg = preset_config("cdc18-scenario3")
    cfg["integration"]["horizon"] = 1.0
    path = tmp_path / "s.json"
    path.write_text(json.dumps(cfg))
    rc = cli_main(["compare", str(path), "--out-file", str(tmp_path / "m.csv")])
    assert rc == 0
    assert (tmp_path / "m.csv").exists()


def test_cli_entrypoint_subprocess(tmp_path):
    # the child imports socopt from the package directory this test imported
    src = os.path.dirname(os.path.dirname(harness.__file__))
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, SOCOPT_OUT_DIR=str(tmp_path), PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-m", "socopt.cli", "run", "--preset", "heavy-ball"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "heavy-ball_trajectory.npz").exists()


def test_out_dir_env_override(tmp_path, monkeypatch):
    from socopt.harness import default_out_dir

    monkeypatch.setenv("SOCOPT_OUT_DIR", str(tmp_path / "envout"))
    assert str(default_out_dir()) == str(tmp_path / "envout")
