import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socopt import dynamics, events
from socopt.costs import quadratic_family
from socopt.dynamics import (
    AFFINE_MAX_SIZE,
    STAGES_MAX_SIZE,
    DivergenceError,
    GainParams,
    HypothesisError,
    Route,
    SwarmState,
    equilibrium_residual,
    integrate,
    probe_law,
    probed_stepper,
    rk4_step,
    rhs_alternative,
    rhs_continuous,
    route_for,
    v_balance_violation,
)
from socopt.events import (
    TriggerParams,
    TriggerState,
    chi_rhs,
    held_law,
    make_trigger_law,
    rhs_event,
    simulate_event,
)
from socopt.graph import build_graph
from socopt.harness import load_preset, make_initial, run, scenario_from_dict
from socopt.presets import preset_config

from conftest import heavy_ball_closed_form, random_connected_graph, unit_ring_scenario
from oracle import per_agent_costs
from test_golden import ring30_event_scenario


def _zero_objective(n, p):
    """n zero quadratics in dimension p: every gradient is exactly 0."""
    return quadratic_family(np.zeros((n, p, p)), shifts=np.zeros((n, p)))


def _state(rng, n, p, zero_v_sum=True):
    v = rng.uniform(-2, 2, (n, p))
    if zero_v_sum:
        v -= v.mean(axis=0, keepdims=True)
    return SwarmState(rng.uniform(-5, 5, (n, p)), rng.uniform(-5, 5, (n, p)), v)


def test_gain_gate():
    with pytest.raises(HypothesisError, match="theta < alpha\\*gamma"):
        GainParams(alpha=2.0, beta=2.0, gamma=6.0, theta=12.0)
    with pytest.raises(HypothesisError, match="positive"):
        GainParams(alpha=-1.0, beta=2.0, gamma=6.0, theta=1.0)


def test_single_agent_reduces_to_heavy_ball():
    g = build_graph([], n=1)
    obj = quadratic_family([np.eye(2)], shifts=[np.zeros(2)])
    gains = GainParams(alpha=2.0, beta=2.0, gamma=6.0, theta=5.0)
    state = SwarmState([[1.0, -2.0]], [[0.5, 0.0]], [[0.0, 0.0]])
    _, dy, dv = rhs_continuous(state, g, obj, gains).reshape(3, 1, 2)
    expected = -gains.gamma * state.y - gains.alpha * obj.grad_stack(state.x)
    np.testing.assert_allclose(dy, expected)
    np.testing.assert_allclose(dv, 0.0)


def test_consensus_state_rhs(path3, obj3, gains_theta35):
    c = np.array([0.3, -1.0, 2.0])
    state = SwarmState(np.tile(c, (3, 1)), np.zeros((3, 3)), np.zeros((3, 3)))
    _, dy, dv = rhs_continuous(state, path3, obj3, gains_theta35).reshape(3, 3, 3)
    np.testing.assert_allclose(dv, 0.0, atol=1e-14)
    np.testing.assert_allclose(dy, -gains_theta35.alpha * obj3.grad_stack(state.x), atol=1e-14)


def test_dv_hand_product(path3, gains_theta35):
    obj = quadratic_family([np.eye(1)] * 3, shifts=[[0.0]] * 3)
    state = SwarmState([[0.0], [1.0], [2.0]], np.zeros((3, 1)), np.zeros((3, 1)))
    dv = rhs_continuous(state, path3, obj, gains_theta35).reshape(3, 3, 1)[2]
    np.testing.assert_allclose(dv, [[-2.0], [0.0], [2.0]])


def test_alternative_consensus_v_coupling_vanishes(path3, obj3, gains_theta35):
    rng = np.random.default_rng(0)
    state = _state(rng, 3, 3, zero_v_sum=False)
    state.v[...] = np.tile(np.array([1.0, -2.0, 0.5]), (3, 1))  # v in the consensus direction
    d_alt = rhs_alternative(state, path3, obj3, gains_theta35).reshape(3, 3, 3)
    state0 = SwarmState(state.x, state.y, np.zeros((3, 3)))
    d_ref = rhs_alternative(state0, path3, obj3, gains_theta35).reshape(3, 3, 3)
    np.testing.assert_allclose(d_alt[1], d_ref[1], atol=1e-12)


def test_alternative_differs_from_continuous(path3, obj3, gains_theta35):
    rng = np.random.default_rng(1)
    state = _state(rng, 3, 3)
    d_c = rhs_continuous(state, path3, obj3, gains_theta35).reshape(3, 3, 3)
    d_a = rhs_alternative(state, path3, obj3, gains_theta35).reshape(3, 3, 3)
    assert not np.allclose(d_c[1], d_a[1])


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
    obj = _zero_objective(3, 2)
    c = np.array([1.0, -1.0])
    s0 = SwarmState(np.tile(c, (3, 1)), np.zeros((3, 2)), np.zeros((3, 2)))
    traj = integrate(lambda s: rhs_continuous(s, path3, obj, gains_theta35), s0, 0.01, 1.0)
    np.testing.assert_allclose(traj.x, np.tile(c, (traj.samples, 3, 1)), atol=1e-14)
    np.testing.assert_allclose(traj.y, 0.0, atol=1e-14)


def test_equilibrium_residual_values(path3, obj3, gains_theta35, run3):
    _, rep3 = run3
    xstar = rep3.minimizer.x
    xbar = np.tile(xstar, (3, 1))
    vbar = np.stack([-(gains_theta35.alpha / gains_theta35.theta) * c.grad(xstar) for c in per_agent_costs(obj3)])
    at_eq = SwarmState(xbar, np.zeros((3, 3)), vbar)
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
    # the alternative variant from an unbalanced v(0): only the drift counts
    s0 = _state(rng, 3, 3, zero_v_sum=False)
    assert np.abs(s0.v.sum(axis=0)).max() > 0.1
    traj = integrate(lambda s: rhs_alternative(s, path3, obj3, gains_theta35), s0, 0.01, 20.0)
    assert v_balance_violation(traj) <= 1e-10


def test_divergence_reports_last_state(path3, gains_theta35, monkeypatch):
    # the gradient of a concave pseudo-cost -5e3 ||x||^2 makes the flow unstable
    obj = _zero_objective(3, 1)
    monkeypatch.setattr(obj, "grad_stack", lambda x: -1e4 * x)
    s0 = SwarmState([[1.0], [1.1], [0.9]], [[0.0]] * 3, [[0.0]] * 3)
    with pytest.raises(DivergenceError) as exc:
        integrate(lambda s: rhs_continuous(s, path3, obj, gains_theta35), s0, 0.01, 10.0)
    last = exc.value.last_state
    assert np.all(np.isfinite(last.x))
    # a copy of the last committed row, not a view that pins the run's buffer
    assert last.u.flags.owndata


@pytest.mark.parametrize("field", ["dy", "dv", "dchi"])
def test_divergence_caught_on_nan_step(field):
    # a NaN confined to y, v or chi must stop the run on the step that made it
    s0 = SwarmState([[1.0], [2.0]], [[0.0]] * 2, [[0.0]] * 2, chi=[1.0, 1.0])
    block = {"dy": 1, "dv": 2, "dchi": 3}[field]

    def rhs(s):
        d = np.zeros(8)  # packed [dx, dy, dv, dchi], two agents in one dimension
        d[2 * block : 2 * block + 2] = np.nan
        return d

    with pytest.raises(DivergenceError) as exc:
        integrate(rhs, s0, 0.01, 1.0)
    assert exc.value.t == 0.01
    assert exc.value.last_t == 0.0


def test_nonfinite_gradient_raises_divergence(path3, gains_theta35, monkeypatch):
    # agent 2's gradient turns NaN once its position passes 1; the run stops
    # on that step in every loop, keeping the last finite state.  The patched
    # gradient is not affine, so the runs must not take the affine route.
    monkeypatch.setattr(dynamics, "AFFINE_MAX_SIZE", 0)
    def grad_stack(x):
        g = np.zeros_like(x)
        g[1] = np.where(x[1] < 1.0, x[1], np.nan)
        return g

    obj = _zero_objective(3, 1)
    monkeypatch.setattr(obj, "grad_stack", grad_stack)
    s0 = SwarmState([[0.0], [0.5], [0.0]], [[0.0], [10.0], [0.0]], [[0.0]] * 3)
    law = make_trigger_law(path3, gains_theta35, TriggerParams.local_only(3))
    # the event run's hook is checked per row before it is called: record every state it receives
    seen = []

    def recording(rhs, initial, step, horizon, on_sample, *args):
        def hook(t, s):
            seen.append(s.u.copy())
            on_sample(t, s)

        return integrate(rhs, initial, step, horizon, hook, *args)

    monkeypatch.setattr(events, "integrate", recording)
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
    # the hook saw every row before the offending one, and each within the limit
    assert len(seen) == round(exc.value.t / 0.01)
    assert all(np.abs(u).max() <= dynamics.DIVERGENCE_LIMIT for u in seen)
    assert np.array_equal(seen[-1], exc.value.last_state.u)


def test_integrate_validates_step(path3, obj3, gains_theta35):
    s0 = SwarmState(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
    rhs = lambda s: rhs_continuous(s, path3, obj3, gains_theta35)
    with pytest.raises(ValueError):
        integrate(rhs, s0, -0.01, 1.0)
    with pytest.raises(ValueError):
        integrate(rhs, s0, 0.01, 0.001)


@pytest.mark.parametrize("step, horizon", [(0.01, 0.015), (0.03, 0.1)])
def test_integrate_rejects_a_horizon_of_part_steps(step, horizon, path3, obj3, gains_theta35):
    # 1.5 and 3.33 steps: no grid of whole steps ends at the horizon
    s0 = SwarmState(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
    rhs = lambda s: rhs_continuous(s, path3, obj3, gains_theta35)
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate(rhs, s0, step, horizon)
    cfg = preset_config("cdc18-scenario3")
    cfg["integration"] = {"step": step, "horizon": horizon}
    with pytest.raises(ValueError, match="whole number of steps"):  # the loader applies the same test
        scenario_from_dict(cfg)


@pytest.mark.parametrize("step, horizon", [(1e-300, 1e300), (0.01, float("nan"))])
def test_integrate_rejects_a_step_count_that_is_not_finite(step, horizon):
    # horizon / step overflows to inf, or is NaN: integrate's own error, not
    # the OverflowError or ValueError of rounding a non-finite float
    s0 = SwarmState(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate(lambda s: np.zeros(3), s0, step, horizon)


@pytest.mark.parametrize("event", [False, True])
def test_trajectory_rows_are_packed_states(event, path3, obj3, gains_theta35, monkeypatch):
    s0 = _state(np.random.default_rng(7), 3, 3)
    seen = []  # (t, u) as each committed sample reaches the hook

    def recording_integrate(rhs, initial, step, horizon, on_sample=None, route=None, held=None):
        def hook(t, s):
            seen.append((t, s.u.copy()))
            if on_sample is not None:
                on_sample(t, s)

        return integrate(rhs, initial, step, horizon, hook, route, held)

    if event:
        monkeypatch.setattr(events, "integrate", recording_integrate)
        law = make_trigger_law(path3, gains_theta35, TriggerParams.local_only(3))
        traj = simulate_event(s0, path3, obj3, gains_theta35, law, 0.01, 1.0).trajectory
    else:
        traj = recording_integrate(lambda s: rhs_continuous(s, path3, obj3, gains_theta35), s0, 0.01, 1.0)
    m, w = traj.samples, 3 * 3
    assert traj.u.shape == (m, 3 * w + (3 if event else 0))
    assert np.array_equal(traj.t, 0.01 * np.arange(m))  # the grid bit for bit, no accumulated roundoff
    assert [t for t, _ in seen] == traj.t.tolist()  # the hook's t is the grid's, bit for bit
    for k in range(m):
        assert np.all(traj.u[k] == traj.state_at(k).u) and np.all(seen[k][1] == traj.u[k])
    for i, name in enumerate("xyv"):
        view = getattr(traj, name)
        assert view.shape == (m, 3, 3) and np.shares_memory(view, traj.u)
        assert np.all(view.reshape(m, w) == traj.u[:, i * w : (i + 1) * w])
    if event:
        assert traj.chi.shape == (m, 3) and np.shares_memory(traj.chi, traj.u)
        assert np.all(traj.chi == traj.u[:, 3 * w :])
    else:
        assert traj.chi is None


def test_state_constructor_validates():
    z = np.zeros((2, 3))
    with pytest.raises(ValueError):
        SwarmState(z, z, z[:, :1])
    with pytest.raises(ValueError):
        SwarmState(z[0], z[0], z[0])
    with pytest.raises(ValueError, match="chi must have shape"):
        SwarmState(z, z, z, chi=np.zeros(3))
    s = SwarmState(z, z + 1.0, [[2.0] * 3] * 2, chi=[3.0, 4.0])
    np.testing.assert_array_equal(s.u, [0.0] * 6 + [1.0] * 6 + [2.0] * 6 + [3.0, 4.0])
    for name in ("x", "y", "v", "chi"):
        assert np.shares_memory(getattr(s, name), s.u)
    assert SwarmState(z, z, z).chi is None
    with pytest.raises(AttributeError):  # a state is a point of phase space: it has no clock
        s.t = 0.0


# -- the packed stepper against a per-block reference -------------------------


def _block_rhs(g, obj, gains, coupling, xhat=None, bracket=None, params=None):
    """Reference right-hand side on separate x, y, v (and chi) arrays."""

    def rhs(x, y, v, chi):
        grads = obj.grad_stack(x)
        lx = g.laplacian @ (x if xhat is None else xhat)
        cv = g.laplacian @ v if coupling == "laplacian" else v
        dy = -gains.gamma * y - gains.alpha * gains.beta * lx - gains.theta * cv - gains.alpha * grads
        return y, dy, gains.beta * lx, None if chi is None else chi_rhs(chi, bracket, params)

    return rhs


def _block_rk4(rhs, x, y, v, chi, h):
    """Reference RK4 that combines x, y, v and chi block by block, stage by
    stage; returns the blocks packed like ``SwarmState.u``."""
    blocks = (x, y, v, chi)

    def shifted(c, d):
        return [None if a is None else a + c * h * da for a, da in zip(blocks, d)]

    k1 = rhs(*blocks)
    k2 = rhs(*shifted(0.5, k1))
    k3 = rhs(*shifted(0.5, k2))
    k4 = rhs(*shifted(1.0, k3))
    w = h / 6.0
    out = [a + w * (d1 + 2 * d2 + 2 * d3 + d4) for a, d1, d2, d3, d4 in zip(blocks, k1, k2, k3, k4) if a is not None]
    return np.concatenate([a.ravel() for a in out])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12), p=st.integers(1, 5))
def test_rk4_step_matches_block_reference(seed, n, p, gains_theta35):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    mats = [q @ q.T / p + 0.5 * np.eye(p) for q in rng.standard_normal((n, p, p))]
    obj = quadratic_family(mats, linear_terms=rng.uniform(-2.0, 2.0, (n, p)))
    gains = gains_theta35
    x, y, v, xhat = rng.uniform(-5.0, 5.0, (4, n, p))
    chi, bracket = rng.uniform(0.1, 2.0, n), rng.uniform(-1.0, 1.0, n)
    params = TriggerParams.defaults(n)
    ts = TriggerState(xhat=xhat, chi=chi, last_event=np.zeros(n), counts=np.ones(n, dtype=int))
    h = 0.01
    cases = {
        "continuous": (lambda s: rhs_continuous(s, g, obj, gains), _block_rhs(g, obj, gains, "v"), None),
        "alternative": (lambda s: rhs_alternative(s, g, obj, gains), _block_rhs(g, obj, gains, "laplacian"), None),
        "event": (
            lambda s: rhs_event(s, ts, g, obj, gains, chi_rhs(s.chi, bracket, params)),
            _block_rhs(g, obj, gains, "v", xhat, bracket, params),
            chi,
        ),
    }
    for name, (rhs, ref, c) in cases.items():
        state = SwarmState(x, y, v, c)
        new = rk4_step(rhs, state, h)
        assert isinstance(new, np.ndarray) and np.all(new == _block_rk4(ref, x, y, v, c, h)), name
        # the probed affine form takes the same step up to rounding
        step = probed_stepper(lambda s, eta, *o: rhs(s), state, h, np.empty(0), False, Route("affine", obj, gains), 1)
        assert np.abs(_advance(step, state.u, 1)[0] - new).max() <= 1e-12 * np.abs(new).max(), name


# -- the probed RK4 stepper of small runs -------------------------------------

# every case a probed route steps: the quadratic presets on the affine route
# (scenario3-event with its held inputs), scenario2 and a quartic event run
# on the stage route
PROBED_CASES = (
    "cdc18-scenario1",
    "cdc18-scenario2",
    "cdc18-scenario3",
    "cdc18-scenario3-event",
    "event-quartic",
)


def _advance(stepper, u, rows):
    """The ``rows`` samples a stepper takes after the packed state u."""
    out = np.empty((rows, u.size))
    stepper.advance(u, out)
    return out


def _random_held(rng, g, p, held):
    """Draw event mode's held inputs [L xhat; bracket] into ``held``, in
    place: random caches xhat and a random frozen bracket."""
    w = g.n * p
    held[:w] = (g.laplacian @ rng.uniform(-5.0, 5.0, (g.n, p))).ravel()
    held[w:] = rng.uniform(-1.0, 1.0, g.n)


def _case_law(name, rng):
    """A probed case's scenario, its law ``rhs(state, eta[, objective])``,
    its held inputs eta (in event mode [L xhat; bracket] from random caches
    and a random frozen bracket, writable; empty otherwise), its route, and
    a maker of random states in its layout."""
    sc = scenario_from_dict(preset_config(name) if name != "event-quartic" else _event_quartic_config())
    g, obj, gains, n, p = sc.graph, sc.obj, sc.gains, sc.graph.n, sc.obj.p
    event = sc.algorithm == "event"

    def random_state():
        x, y, v = rng.uniform(-5.0, 5.0, (3, n, p))
        return SwarmState(x, y, v, rng.uniform(0.1, 2.0, n) if event else None)

    if event:
        rhs, held = held_law(obj, gains, sc.trigger), np.empty(n * p + n)
        _random_held(rng, g, p, held)
    else:
        rhs_fn = rhs_continuous if sc.algorithm == "continuous" else rhs_alternative
        rhs, held = (lambda s, eta, o=obj: rhs_fn(s, g, o, gains)), np.empty(0)
    route = route_for(obj, gains, random_state().u.size)
    assert route.form in ("affine", "stages")
    return sc, rhs, held, route, random_state


@pytest.mark.parametrize("name", PROBED_CASES)
def test_joint_probe_reproduces_law(name):
    # one probe over [u; eta] gives M, G and c0: the law is M u + c0 + G eta,
    # under the run's own objective on the affine route and under the flat
    # one on the stage route
    rng = np.random.default_rng(5)
    sc, rhs, held, route, random_state = _case_law(name, rng)
    like = random_state()
    N, k = like.u.size, held.size
    obj = () if route.form == "affine" else (dynamics._flat(like),)
    J, c0 = probe_law(rhs, like, k, *obj)
    assert J.shape == (N, N + k) and c0.shape == (N,)
    M, G = J[:, :N], J[:, N:]
    for _ in range(20):
        s = random_state()
        if k:
            _random_held(rng, sc.graph, sc.obj.p, held)
        law = rhs(s, held, *obj)
        assert np.abs(M @ s.u + c0 + G @ held - law).max() <= 1e-14 * np.abs(law).max()
    if k and obj:
        # under the flat objective each column over eta holds one gain as the
        # law writes it: -alpha*beta on dy, beta on dv, -delta_i on chi
        n, p, gains = sc.graph.n, sc.obj.p, sc.gains
        w = n * p
        expected = np.zeros((N, k))
        expected[w + np.arange(w), np.arange(w)] = -gains.alpha * gains.beta
        expected[2 * w + np.arange(w), np.arange(w)] = gains.beta
        expected[3 * w + np.arange(n), w + np.arange(n)] = -sc.trigger.delta
        assert np.array_equal(G, expected)


@pytest.mark.parametrize("name", PROBED_CASES)
def test_probed_step_matches_rk4_step(name):
    # from random states, and in event mode with the held inputs (caches
    # and frozen bracket) redrawn between steps, as the run's hook moves them
    rng = np.random.default_rng(6)
    sc, rhs, held, route, random_state = _case_law(name, rng)
    h = 0.01
    step = probed_stepper(rhs, random_state(), h, held, True, route, 1)
    assert step.block is None  # one-row steps, as many as asked
    for _ in range(5):
        if held.size:
            _random_held(rng, sc.graph, sc.obj.p, held)
        s = random_state()
        new, ref = _advance(step, s.u, 1)[0], rk4_step(lambda s: rhs(s, held), s, h)
        assert new.shape == ref.shape == s.u.shape
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name", ["cdc18-scenario1", "cdc18-scenario3"])
def test_probed_blocks_match_one_row_steps(name):
    # a hook-free affine run takes B samples per product, A^1 ... A^B
    # applied to [u; 1]; they equal B one-row steps u + F z up to rounding
    _, rhs, held, route, random_state = _case_law(name, np.random.default_rng(10))
    like = random_state()
    blocks = probed_stepper(rhs, like, 0.01, held, False, route, 10_000)
    single = probed_stepper(rhs, like, 0.01, held, True, route, 10_000)
    assert 1 < blocks.block <= 10_000 and single.block is None
    rows = _advance(blocks, like.u, blocks.block)
    u = like.u
    for k in range(blocks.block):
        u = _advance(single, u, 1)[0]
        assert np.abs(rows[k] - u).max() <= 1e-12 * np.abs(u).max(), k


@pytest.mark.parametrize("name", ["cdc18-scenario3-event", "event-quartic"])
def test_probed_event_route_evaluates_the_law_only_in_its_probe(name, monkeypatch):
    # one probe over [u; eta] makes N + k + 1 calls, however many steps the run takes
    sc = scenario_from_dict(preset_config(name) if name != "event-quartic" else _event_quartic_config())
    n, p = sc.graph.n, sc.obj.p
    N, k = 3 * n * p + n, n * p + n
    calls = []
    monkeypatch.setattr(events, "_law", lambda *args: calls.append(1) or dynamics._law(*args))
    for horizon in (0.1, 1.0):
        calls.clear()
        assert run(replace(sc, horizon=horizon)).stepper == route_for(sc.obj, sc.gains, N).form
        assert len(calls) == N + k + 1


@pytest.mark.parametrize("name", ["cdc18-scenario2", "event-quartic"])
def test_stage_step_takes_two_batched_gradient_calls(name):
    # the gradients at stages 1 and 2, then at stages 3 and 4, each pair as
    # one call on a (2, n, p) stack of positions
    sc, rhs, held, route, random_state = _case_law(name, np.random.default_rng(9))
    stacks = []

    def grad(x):
        stacks.append(x.shape)
        return sc.obj.family.grad(x)

    counting = route._replace(obj=SimpleNamespace(family=SimpleNamespace(grad=grad)))
    step = probed_stepper(rhs, random_state(), 0.01, held, held.size > 0, counting, 3)
    assert stacks == []
    u = random_state().u
    for _ in range(3):
        u = _advance(step, u, 1)[0]
    assert stacks == [(2, sc.graph.n, sc.obj.p)] * 6


def test_routing_rule(obj2, obj3, gains_theta35):
    form = lambda obj, size: route_for(obj, gains_theta35, size).form
    # quadratic: the probed affine form up to its bound, rk4_step above
    assert form(obj3, AFFINE_MAX_SIZE) == "affine"
    assert form(obj3, AFFINE_MAX_SIZE + 1) == "rk4"
    # quartic: the stage form up to its own bound, rk4_step above
    assert form(obj2, STAGES_MAX_SIZE) == "stages"
    assert form(obj2, STAGES_MAX_SIZE + 1) == "rk4"
    # each bound applies to its own objectives only
    assert STAGES_MAX_SIZE < AFFINE_MAX_SIZE
    assert form(obj3, STAGES_MAX_SIZE + 1) == "affine"
    assert form(obj2, AFFINE_MAX_SIZE) == "rk4"


def _rk4_reference(sc, s0):
    return integrate(lambda s: rhs_continuous(s, sc.graph, sc.obj, sc.gains), s0, sc.step, sc.horizon)


@pytest.mark.parametrize("case", ["above-size", "quartic-above-size"])
def test_runs_off_the_rule_step_with_rk4_bit_for_bit(case):
    # a quadratic 30-agent ring (packed size 270) and a quartic 23-agent ring
    # (packed size 207) integrate exactly as rk4_step does
    if case == "above-size":
        sc = replace(ring30_event_scenario(), algorithm="continuous", horizon=0.5)
    else:
        centers = np.random.default_rng(23).uniform(-2.0, 2.0, (23, 3)).tolist()
        sc = unit_ring_scenario("cdc18-scenario2", 23, {"kind": "quartic", "centers": centers}, 0.5)
    s0, _ = make_initial(sc)
    assert route_for(sc.obj, sc.gains, s0.u.size).form == "rk4"
    rep = run(sc)
    assert rep.stepper == "rk4" and np.array_equal(rep.trajectory.u, _rk4_reference(sc, s0).u)


@pytest.mark.parametrize("seed", [12345, 7, 1])
def test_stage_form_steps_scenario2_as_rk4_step_does_up_to_rounding(seed):
    # scenario2 (quartic, packed size 27) takes the stage form.  Its stages
    # sum the law's terms in another order, so each differs from the law's
    # value by a few roundings of entries no larger than about ||M|| max|u|;
    # a step then moves u by a few eps max|u| (h ||M|| < 1 here), and over a
    # stable flow these differences add up without growth.  Allow 8 eps
    # max|u| per step.
    sc = replace(load_preset("cdc18-scenario2"), horizon=0.5)
    s0, _ = make_initial(sc, seed)
    rep, ref = run(sc, seed=seed), _rk4_reference(sc, s0)
    assert rep.stepper == "stages"
    steps = ref.samples - 1
    tol = 8 * np.finfo(float).eps * np.abs(ref.u).max() * steps
    gap = np.abs(rep.trajectory.u - ref.u).max()
    assert 0.0 < gap <= tol, f"{gap:.3e} > {tol:.3e}"


def _event_quartic_config():
    """Scenario2's graph, costs and gains with a Lipschitz override of 50,
    the algorithm and trigger fields of the event preset, horizon 5."""
    cfg, ev = preset_config("cdc18-scenario2"), preset_config("cdc18-scenario3-event")
    cfg["costs"]["lipschitz_override"] = 50.0
    cfg.update({key: ev[key] for key in ("algorithm", "trigger") if key in ev})  # no trigger section: defaults
    cfg["integration"]["horizon"] = 5.0
    return cfg


def test_event_quartic_stage_form_triggers_as_rk4_step_does(monkeypatch):
    sc = scenario_from_dict(_event_quartic_config())
    reps = {}
    for path in ("stages", "rk4"):
        with monkeypatch.context() as m:
            if path == "rk4":
                m.setattr(dynamics, "STAGES_MAX_SIZE", 0)
            reps[path] = run(sc)
        assert reps[path].stepper == path and reps[path].passed
    stages, rk4 = (reps[k].event_run.trigger_state for k in ("stages", "rk4"))
    assert stages.counts.sum() == 73
    assert stages.counts.tolist() == rk4.counts.tolist()
    assert [(e.agent, e.index, e.t) for e in stages.events] == [(e.agent, e.index, e.t) for e in rk4.events]


def test_diverging_quadratic_run_stops_where_rk4_does(monkeypatch):
    # scenario1 with the alternative variant diverges (slowest mode +0.17/s)
    cfg = preset_config("cdc18-scenario1")
    cfg["algorithm"] = "alternative"
    cfg["integration"]["horizon"] = 200.0
    cfg["diagnostics"] = {"lyapunov": False, "rate_fit": False}
    sc = scenario_from_dict(cfg)
    stops, buffers = {}, []

    class Recorded(dynamics.Trajectory):
        def __init__(self, *args):
            super().__init__(*args)
            buffers.append(self.u)

    for path in ("affine", "rk4"):
        with monkeypatch.context() as m:
            m.setattr(dynamics, "Trajectory", Recorded)
            if path == "affine":  # the affine route never calls rk4_step
                m.setattr(dynamics, "rk4_step", None)
            else:
                m.setattr(dynamics, "AFFINE_MAX_SIZE", 0)
            with pytest.raises(DivergenceError) as exc:
                run(sc)
        stops[path] = exc.value
    assert stops["affine"].t == stops["rk4"].t < 200.0
    # the affine run takes B = 142 samples per product, so the limit is
    # crossed at t = 161.62, row 16162, the 116th row of the block that
    # starts at row 16047: mid-block.  The error still names that row's t,
    # the t of the row before it, and a copy of that earlier row
    err, us = stops["affine"], buffers[0]
    k = int(round(err.t / sc.step))
    B = dynamics._powers_block(us.shape[1], us.shape[0] - 1)
    assert (k - 1) % B != 0, "the offending row opens a block"
    assert err.last_t == err.t - sc.step == sc.step * (k - 1)
    assert not np.abs(us[k]).max() <= dynamics.DIVERGENCE_LIMIT
    assert np.abs(us[:k]).max() <= dynamics.DIVERGENCE_LIMIT
    assert np.all(np.isfinite(err.last_state.u)) and np.array_equal(err.last_state.u, us[k - 1])


def test_diverging_quartic_run_stops_where_rk4_does(monkeypatch):
    # scenario2 with its quartic gradients negated and scaled by 1e-2: each
    # agent is pushed away from its centre, faster the farther it is, and
    # the run blows up.  A hook-free stage-form run fills sqrt(steps) rows
    # between two divergence checks, and stops at the row rk4_step does
    sc = load_preset("cdc18-scenario2")
    g, obj, gains = sc.graph, sc.obj, sc.gains
    s0, _ = make_initial(sc, None)
    grad = type(obj.family).grad
    monkeypatch.setattr(type(obj.family), "grad", lambda family, x: -1e-2 * grad(family, x))
    stops, buffers = {}, []

    class Recorded(dynamics.Trajectory):
        def __init__(self, *args):
            super().__init__(*args)
            buffers.append(self.u)

    for path in ("stages", "rk4"):
        with monkeypatch.context() as m:
            m.setattr(dynamics, "Trajectory", Recorded)
            if path == "stages":  # the stage form never calls rk4_step
                m.setattr(dynamics, "rk4_step", None)
            else:
                m.setattr(dynamics, "STAGES_MAX_SIZE", 0)
            route = route_for(obj, gains, s0.u.size)
            assert route.form == path
            # the rows stepped past the offending one overflow, silently
            with pytest.raises(DivergenceError) as exc, warnings.catch_warnings():
                warnings.simplefilter("error")
                integrate(lambda s, o=obj: rhs_continuous(s, g, o, gains), s0, sc.step, sc.horizon, route=route)
        stops[path] = exc.value
    assert stops["stages"].t == stops["rk4"].t < sc.horizon
    # 10,000 steps make blocks of B = 100 rows; the limit is crossed at
    # t = 3.85, row 385, the 85th row of the block that starts at row 301
    err, us = stops["stages"], buffers[0]
    k = int(round(err.t / sc.step))
    B = dynamics._sqrt_block(us.shape[0] - 1)
    assert B == 100 and (k - 1) % B != 0, "the offending row opens a block"
    # last_t is t - h, both on the sample grid (3.85 - 0.01 rounds off it)
    assert err.t == sc.step * k and err.last_t == sc.step * (k - 1)
    assert not np.abs(us[k]).max() <= dynamics.DIVERGENCE_LIMIT
    assert np.abs(us[:k]).max() <= dynamics.DIVERGENCE_LIMIT
    assert np.all(np.isfinite(err.last_state.u)) and np.array_equal(err.last_state.u, us[k - 1])


# -- relabelling agents -------------------------------------------------------


def _relabelled(cfg, x0, y0, perm):
    """``cfg`` with its agents relabelled, agent k of the new run being
    agent perm[k] of the old: the edges, the per-agent cost data and the
    literal initial state (x0, y0, v = 0) follow the agents; diagnostics off."""
    inv = np.argsort(perm)
    edges = cfg["graph"]["edges"]
    off = 0 if any(i == 0 or j == 0 for i, j, _ in edges) else 1
    costs = {key: [data[k] for k in perm] if isinstance(data, list) else data for key, data in cfg["costs"].items()}
    return {
        **cfg,
        "graph": {"n": len(perm), "edges": [[int(inv[i - off]), int(inv[j - off]), w] for i, j, w in edges]},
        "costs": costs,
        "initial": {"x": x0[perm].tolist(), "y": y0[perm].tolist()},
        "diagnostics": {"lyapunov": False, "rate_fit": False},
    }


# the presets and variants each equivariance test covers (event mode is left
# out: relabelled event runs are known to move trigger counts by one and x by
# up to 2e-7)
EQUIVARIANCE_CASES = [
    ("cdc18-scenario1", "continuous"),
    ("cdc18-scenario2", "continuous"),
    ("cdc18-scenario3", "continuous"),
    ("cdc18-scenario3", "alternative"),
]


def _literal_reference(name, algorithm):
    """The preset's config run as ``algorithm``, its drawn initial state
    (x0, y0) and the trajectory from that state as a literal."""
    cfg = {**preset_config(name), "algorithm": algorithm}
    s0, _ = make_initial(scenario_from_dict(cfg))
    return cfg, s0.x, s0.y, run(scenario_from_dict(_relabelled(cfg, s0.x, s0.y, np.arange(3)))).trajectory


def _rounding_tol(*trajs):
    """4 eps max|u| per step: a transformed run rounds each step's sums
    differently by a few eps max|u|, and over a stable flow these
    differences add up without growth, whatever the BLAS kernel."""
    return 4 * np.finfo(float).eps * max(np.abs(t.u).max() for t in trajs) * (trajs[0].samples - 1)


@pytest.mark.parametrize("name, algorithm", EQUIVARIANCE_CASES)
def test_relabelled_agents_follow_their_trajectories(name, algorithm):
    # under each of the five non-identity permutations of the three agents,
    # agent k of the relabelled run follows agent perm[k] of the original,
    # up to the rounding of a reordered sum at each step
    cfg, x0, y0, ref = _literal_reference(name, algorithm)
    tol = _rounding_tol(ref)
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        traj = run(scenario_from_dict(_relabelled(cfg, x0, y0, np.array(perm)))).trajectory
        gap = max(np.abs(getattr(traj, b) - getattr(ref, b)[:, perm]).max() for b in ("x", "y", "v"))
        assert gap <= tol, f"{perm}: {gap:.3e} > {tol:.3e}"


SHIFT = np.array([1.5, -2.0, 0.75])


def _translated(cfg, s):
    """``cfg`` with every cost moved by the vector s, so that each gradient
    at x + s equals the original at x: shifts and centres + s, and linear
    terms - C_i s for 0.5 x^T C_i x + a_i^T x."""
    costs = dict(cfg["costs"])
    if costs["kind"] == "quadratic_linear":
        shifted = np.array(costs["linear_terms"]) - np.array(costs["matrices"]) @ s
        costs["linear_terms"] = shifted.tolist()
    else:
        key = "shifts" if costs["kind"] == "quadratic_shift" else "centers"
        costs[key] = (np.array(costs[key]) + s).tolist()
    return {**cfg, "costs": costs}


@pytest.mark.parametrize("name, algorithm", EQUIVARIANCE_CASES)
def test_translated_costs_and_start_move_x_by_the_shift(name, algorithm):
    # moving the costs and x(0) by one vector s moves x by s and leaves y
    # and v as they were: L x and L v do not see a common shift, and each
    # gradient at x + s is the original gradient at x
    cfg, x0, y0, ref = _literal_reference(name, algorithm)
    moved = run(scenario_from_dict(_relabelled(_translated(cfg, SHIFT), x0 + SHIFT, y0, np.arange(3)))).trajectory
    tol = _rounding_tol(ref, moved)
    gap = max(np.abs(moved.x - SHIFT - ref.x).max(), np.abs(moved.y - ref.y).max(), np.abs(moved.v - ref.v).max())
    assert gap <= tol, f"{gap:.3e} > {tol:.3e}"


def _rescaled(cfg, c):
    """``cfg`` with every edge weight times c and beta over c, and theta
    over c in the alternative variant, which couples v through L: every
    product of the law that reads L (beta*L, and theta*L for the
    alternative) is unchanged."""
    gains = {**cfg["gains"], "beta": cfg["gains"]["beta"] / c}
    if cfg["algorithm"] == "alternative":
        gains["theta"] = cfg["gains"]["theta"] / c
    edges = [[i, j, w * c] for i, j, w in cfg["graph"]["edges"]]
    return {**cfg, "gains": gains, "graph": {**cfg["graph"], "edges": edges}}


@pytest.mark.parametrize("name, algorithm", EQUIVARIANCE_CASES)
def test_rescaled_weights_and_gains_keep_the_trajectory(name, algorithm):
    # weights times c with beta (and the alternative's theta) over c leave
    # the law unchanged, so the run follows the original up to rounding
    cfg, x0, y0, ref = _literal_reference(name, algorithm)
    tol = _rounding_tol(ref)
    for c in (3.0, 0.3):
        traj = run(scenario_from_dict(_relabelled(_rescaled(cfg, c), x0, y0, np.arange(3)))).trajectory
        gap = max(np.abs(getattr(traj, b) - getattr(ref, b)).max() for b in ("x", "y", "v"))
        assert gap <= tol, f"c = {c}: {gap:.3e} > {tol:.3e}"
