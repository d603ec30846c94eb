import numpy as np
import pytest

from socopt.costs import GlobalObjective, custom_cost, quadratic_family
from socopt.dynamics import (
    AgentDerivatives,
    DivergenceError,
    GainParams,
    HypothesisError,
    SwarmState,
    equilibrium_residual,
    integrate,
    rhs_alternative,
    rhs_continuous,
    v_balance_violation,
)
from socopt.graph import build_graph

from conftest import heavy_ball_closed_form


def _state(rng, n, p, zero_v_sum=True):
    v = rng.uniform(-2, 2, (n, p))
    if zero_v_sum:
        v -= v.mean(axis=0, keepdims=True)
    return SwarmState(0.0, rng.uniform(-5, 5, (n, p)), rng.uniform(-5, 5, (n, p)), v)


def test_gain_gate():
    with pytest.raises(HypothesisError, match="theta < alpha\\*gamma"):
        GainParams(alpha=2.0, beta=2.0, gamma=6.0, theta=12.0)
    with pytest.raises(HypothesisError, match="positive"):
        GainParams(alpha=-1.0, beta=2.0, gamma=6.0, theta=1.0)


def test_single_agent_reduces_to_heavy_ball():
    g = build_graph([], n=1)
    obj = GlobalObjective(quadratic_family([np.eye(2)], shifts=[np.zeros(2)]))
    gains = GainParams(alpha=2.0, beta=2.0, gamma=6.0, theta=5.0)
    state = SwarmState(0.0, [[1.0, -2.0]], [[0.5, 0.0]], [[0.0, 0.0]])
    d = rhs_continuous(state, g, obj, gains)
    expected = -gains.gamma * state.y - gains.alpha * obj.grad_stack(state.x)
    np.testing.assert_allclose(d.dy, expected)
    np.testing.assert_allclose(d.dv, 0.0)


def test_consensus_state_rhs(path3, obj3, gains_theta35):
    c = np.array([0.3, -1.0, 2.0])
    state = SwarmState(0.0, np.tile(c, (3, 1)), np.zeros((3, 3)), np.zeros((3, 3)))
    d = rhs_continuous(state, path3, obj3, gains_theta35)
    np.testing.assert_allclose(d.dv, 0.0, atol=1e-14)
    np.testing.assert_allclose(d.dy, -gains_theta35.alpha * obj3.grad_stack(state.x), atol=1e-14)


def test_dv_hand_product(path3, gains_theta35):
    obj = GlobalObjective(quadratic_family([np.eye(1)] * 3, shifts=[[0.0]] * 3))
    state = SwarmState(0.0, [[0.0], [1.0], [2.0]], np.zeros((3, 1)), np.zeros((3, 1)))
    d = rhs_continuous(state, path3, obj, gains_theta35)
    np.testing.assert_allclose(d.dv, [[-2.0], [0.0], [2.0]])


def test_alternative_consensus_v_coupling_vanishes(path3, obj3, gains_theta35):
    rng = np.random.default_rng(0)
    state = _state(rng, 3, 3, zero_v_sum=False)
    state.v = np.tile(np.array([1.0, -2.0, 0.5]), (3, 1))  # v in the consensus direction
    d_alt = rhs_alternative(state, path3, obj3, gains_theta35)
    state0 = SwarmState(state.t, state.x, state.y, np.zeros((3, 3)))
    d_ref = rhs_alternative(state0, path3, obj3, gains_theta35)
    np.testing.assert_allclose(d_alt.dy, d_ref.dy, atol=1e-12)


def test_alternative_differs_from_continuous(path3, obj3, gains_theta35):
    rng = np.random.default_rng(1)
    state = _state(rng, 3, 3)
    d_c = rhs_continuous(state, path3, obj3, gains_theta35)
    d_a = rhs_alternative(state, path3, obj3, gains_theta35)
    assert not np.allclose(d_c.dy, d_a.dy)


def test_both_algorithms_reach_unique_minimizer(path3, obj3, gains_theta35, run3):
    _, rep3 = run3
    xstar = rep3.minimizer.x
    rng = np.random.default_rng(2)
    s0 = _state(rng, 3, 3)
    s0.v[:] = 0.0
    for rhs_fn in (rhs_continuous, rhs_alternative):
        traj = integrate(lambda s: rhs_fn(s, path3, obj3, gains_theta35), s0, 0.01, 50.0)
        final = traj.final_state()
        assert np.linalg.norm(final.x - xstar[None, :], axis=1).max() <= 1e-3


def test_heavy_ball_matches_closed_form(run_heavy_ball):
    _, rep = run_heavy_ball
    traj = rep.trajectory
    exact = heavy_ball_closed_form(traj.t)
    assert np.abs(traj.x[:, 0, 0] - exact).max() <= 1e-8


def test_equilibrium_stays_constant(path3, gains_theta35):
    # zero-gradient costs at a consensus state: nothing moves
    zero = custom_cost(lambda x: 0.0, lambda x: np.zeros_like(x), dimension=2)
    obj = GlobalObjective([zero, zero, zero])
    c = np.array([1.0, -1.0])
    s0 = SwarmState(0.0, np.tile(c, (3, 1)), np.zeros((3, 2)), np.zeros((3, 2)))
    traj = integrate(lambda s: rhs_continuous(s, path3, obj, gains_theta35), s0, 0.01, 1.0)
    np.testing.assert_allclose(traj.x, np.tile(c, (traj.samples, 3, 1)), atol=1e-14)
    np.testing.assert_allclose(traj.y, 0.0, atol=1e-14)


def test_equilibrium_residual_values(path3, obj3, gains_theta35, run3):
    _, rep3 = run3
    xstar = rep3.minimizer.x
    xbar = np.tile(xstar, (3, 1))
    vbar = np.stack([-(gains_theta35.alpha / gains_theta35.theta) * c.grad(xstar) for c in obj3.costs])
    at_eq = SwarmState(0.0, xbar, np.zeros((3, 3)), vbar)
    res = equilibrium_residual(at_eq, path3, obj3, gains_theta35)
    assert max(res) <= 1e-12

    rng = np.random.default_rng(3)
    res_rand = equilibrium_residual(_state(rng, 3, 3), path3, obj3, gains_theta35)
    assert min(res_rand) > 0.0


def test_terminal_residuals_scenario3(run3):
    sc, rep = run3
    final = rep.trajectory.final_state()
    res = equilibrium_residual(final, sc.graph, sc.obj, sc.gains)
    assert max(res) <= 1e-3


def test_v_sum_conserved(path3, obj3, gains_theta35):
    rng = np.random.default_rng(4)
    s0 = _state(rng, 3, 3)
    s0.v[:] = 0.0
    traj = integrate(lambda s: rhs_continuous(s, path3, obj3, gains_theta35), s0, 0.01, 20.0)
    assert v_balance_violation(traj) <= 1e-10


def test_divergence_reports_last_state(path3, gains_theta35):
    # a concave pseudo-cost makes the flow unstable
    bad = custom_cost(lambda x: -5e3 * float(x @ x), lambda x: -1e4 * x, dimension=1)
    obj = GlobalObjective([bad, bad, bad])
    s0 = SwarmState(0.0, [[1.0], [1.1], [0.9]], [[0.0]] * 3, [[0.0]] * 3)
    with pytest.raises(DivergenceError) as exc:
        integrate(lambda s: rhs_continuous(s, path3, obj, gains_theta35), s0, 0.01, 10.0)
    assert np.all(np.isfinite(exc.value.last_state.x))


@pytest.mark.parametrize("field", ["dy", "dv", "dchi"])
def test_divergence_caught_on_nan_step(field):
    # a NaN confined to y, v or chi must stop the run on the step that made it
    s0 = SwarmState(0.0, [[1.0], [2.0]], [[0.0]] * 2, [[0.0]] * 2, chi=[1.0, 1.0])

    def rhs(s):
        d = {name: np.zeros((2, 1)) for name in ("dx", "dy", "dv")}
        d["dchi"] = np.zeros(2)
        d[field] = np.full_like(d[field], np.nan)
        return AgentDerivatives(**d)

    with pytest.raises(DivergenceError) as exc:
        integrate(rhs, s0, 0.01, 1.0)
    assert exc.value.t == 0.01
    assert exc.value.last_state.t == 0.0


def test_nonfinite_gradient_raises_divergence(path3, gains_theta35):
    # agent 2's gradient turns NaN once its position passes 1; the run stops
    # on that step in every loop, keeping the last finite state
    from socopt.events import TriggerParams, make_trigger_law, simulate_event

    turns_nan = custom_cost(lambda x: 0.0, lambda x: np.where(x < 1.0, x, np.nan), dimension=1)
    ok = custom_cost(lambda x: 0.0, lambda x: np.zeros_like(x), dimension=1)
    obj = GlobalObjective([ok, turns_nan, ok])
    s0 = SwarmState(0.0, [[0.0], [0.5], [0.0]], [[0.0], [10.0], [0.0]], [[0.0]] * 3)
    law = make_trigger_law(path3, gains_theta35, TriggerParams.local_only(3))
    runs = {
        "continuous": lambda: integrate(lambda s: rhs_continuous(s, path3, obj, gains_theta35), s0, 0.01, 2.0),
        "event": lambda: simulate_event(s0, path3, obj, gains_theta35, law, 0.01, 2.0),
    }
    for name, go in runs.items():
        with pytest.raises(DivergenceError) as exc:
            go()
        last = exc.value.last_state
        assert 0.0 < exc.value.t < 2.0, name
        assert np.all(np.isfinite(last.x)) and last.x[1, 0] < 1.0, name


def test_integrate_validates_step(path3, obj3, gains_theta35):
    s0 = SwarmState(0.0, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
    rhs = lambda s: rhs_continuous(s, path3, obj3, gains_theta35)
    with pytest.raises(ValueError):
        integrate(rhs, s0, -0.01, 1.0)
    with pytest.raises(ValueError):
        integrate(rhs, s0, 0.01, 0.001)
