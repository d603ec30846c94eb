from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socopt import dynamics, events
from socopt.costs import quadratic_family
from socopt.dynamics import SwarmState
from socopt.events import (
    EVENT_DTYPE,
    TriggerConfigError,
    TriggerLaw,
    TriggerParams,
    TriggerState,
    _bracket_and_margin,
    _process_triggers,
    chi_rhs,
    default_eps0,
    event_log,
    make_trigger_law,
    qhat,
    rhs_event,
    rule_terms,
    simulate_event,
    trigger_margin,
    varphi_all,
    zeno_report,
)
from socopt.dynamics import rhs_continuous
from socopt.graph import build_graph
from socopt.harness import load_preset, run

from conftest import random_connected_graph
from test_golden import ring30_event_scenario


@pytest.fixture(scope="module")
def ring30_event():
    sc = ring30_event_scenario()
    return sc, run(sc)


def _trigger_state(xhat, chi=None):
    xhat = np.asarray(xhat, dtype=float)
    n = xhat.shape[0]
    chi = np.ones(n) if chi is None else np.asarray(chi, dtype=float)
    return TriggerState(xhat=xhat.copy(), chi=chi.copy(), last_event=np.zeros(n), counts=np.ones(n, int))


def _fire(ts, g, law, x, t=1.0):
    """One sample of ``_process_triggers`` from a full ``rule_terms`` pass:
    the terms it returns (||e||^2, qhat, bracket, margin) and its
    broadcasts as an event log."""
    log = []
    out = _process_triggers(ts, g, law, x, t, rule_terms(ts, g, x)[1], log)
    assert len(out) == 4
    return out, event_log(log)


def _explicit_law(gains, params):
    """A law with c_i = lead*sigma_i/(4*phi_rate_i) set here, lead =
    (alpha*gamma*eps0 - theta)*beta, rather than derived from the event
    certificate's varphi_i: large enough for neighbours to veto one another,
    and free of eps8."""
    eps0 = default_eps0(gains)
    lead = (gains.alpha * gains.gamma * eps0 - gains.theta) * gains.beta
    return TriggerLaw(params, eps0, lead * params.sigma / (4.0 * params.phi_rate))


def _fresh_terms(ts, g, law, x):
    """(||e||^2, qhat, bracket, margin) from a full ``rule_terms`` pass
    against the caches as they stand."""
    err_sq, qh = rule_terms(ts, g, x)
    return (err_sq, qh, *_bracket_and_margin(law, ts.chi, err_sq, qh))


def test_qhat_zero_at_agreement(path3):
    ts = _trigger_state(np.tile([1.0, 2.0], (3, 1)))
    assert all(qhat(i, ts, path3) == 0.0 for i in range(3))


def test_qhat_path3_hand_values(path3):
    ts = _trigger_state([[0.0], [1.0], [2.0]])
    assert qhat(0, ts, path3) == pytest.approx(0.5)
    assert qhat(1, ts, path3) == pytest.approx(1.0)
    assert qhat(2, ts, path3) == pytest.approx(0.5)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_qhat_sum_is_laplacian_quadratic_form(seed, path3):
    rng = np.random.default_rng(seed)
    xhat = rng.uniform(-5, 5, (3, 3))
    ts = _trigger_state(xhat)
    total = sum(qhat(i, ts, path3) for i in range(3))
    form = float(np.sum(xhat * (path3.laplacian @ xhat)))
    assert total == pytest.approx(form, abs=1e-12)


def test_trigger_params_ranges():
    with pytest.raises(TriggerConfigError, match="sigma"):
        TriggerParams(sigma=[1.0], delta=[0.5], phi_rate=[1.0], kappa=[2.0], chi0=[1.0])
    with pytest.raises(TriggerConfigError, match="kappa"):
        TriggerParams(sigma=[0.0], delta=[0.0], phi_rate=[1.0], kappa=[1.0], chi0=[1.0])
    with pytest.raises(TriggerConfigError, match="chi"):
        TriggerParams(sigma=[0.0], delta=[0.5], phi_rate=[1.0], kappa=[2.0], chi0=[0.0])


def test_defaults_admissible_and_kd_positive():
    p = TriggerParams.defaults(3)
    assert p.k_d == pytest.approx(1.0 - 0.5 / 2.0)
    assert p.k_d > 0
    lo = TriggerParams.local_only(3)
    assert lo.k_d > 0
    assert np.all(lo.sigma == 0.0) and np.all(lo.delta == 0.0)


def test_fresh_broadcast_never_fires(path3, gains_theta35):
    params = TriggerParams.defaults(3)
    law = make_trigger_law(path3, gains_theta35, params, eps8=1e-3)
    x = np.random.default_rng(0).uniform(-5, 5, (3, 3))
    ts = _trigger_state(x)  # caches equal the state: zero error
    _, fired = _fire(ts, path3, law, x)
    assert ts.counts.tolist() == [1, 1, 1]
    assert fired.shape == (0,) and ts.events.shape == (0,)


def test_static_error_specialization(path3, gains_theta35):
    # sigma=0, kappa=1 via delta=1: fires exactly when ||e||^2 >= chi
    params = TriggerParams(sigma=[0.0] * 3, delta=[1.0] * 3, phi_rate=[1.0] * 3, kappa=[1.0] * 3, chi0=[0.04] * 3)
    law = make_trigger_law(path3, gains_theta35, params)
    x = np.zeros((3, 1))
    ts = _trigger_state(np.array([[0.1], [0.2], [0.21]]), chi=[0.04, 0.04, 0.04])
    _, fired = _fire(ts, path3, law, x)
    assert fired.agent.tolist() == [1, 2]
    np.testing.assert_array_equal(ts.xhat[1:], x[1:])
    np.testing.assert_array_equal(ts.xhat[0], [0.1])
    assert ts.counts.tolist() == [1, 2, 2]
    assert fired.index.tolist() == [2, 2]
    assert fired.t.tolist() == [1.0, 1.0]
    assert fired.error_sq.tolist() == pytest.approx([0.04, 0.0441], rel=1e-12)


def test_chi_pure_decay(path3, obj3, gains_theta35):
    # delta = 0: chi(t) = chi(0) * exp(-rate * t) along any run
    params = TriggerParams.local_only(3, phi_rate=1.0, chi0=1.0)
    law = make_trigger_law(path3, gains_theta35, params)
    rng = np.random.default_rng(1)
    s0 = SwarmState(rng.uniform(-5, 5, (3, 3)), rng.uniform(-5, 5, (3, 3)), np.zeros((3, 3)))
    er = simulate_event(s0, path3, obj3, gains_theta35, law, 0.01, 1.0)
    np.testing.assert_allclose(er.chi[-1], np.exp(-1.0), atol=1e-8)


def test_chi_rhs_zero_bracket():
    params = TriggerParams.defaults(3)
    chi = np.full(3, 0.7)
    np.testing.assert_allclose(chi_rhs(chi, np.zeros(3), params), -params.phi_rate * 0.7)
    bracket = np.array([0.2, -0.1, 0.0])
    np.testing.assert_allclose(chi_rhs(chi, bracket, params), -params.delta * bracket - params.phi_rate * 0.7)


def test_rhs_event_fresh_cache_equals_continuous(path3, obj3, gains_theta35):
    rng = np.random.default_rng(2)
    state = SwarmState(rng.uniform(-5, 5, (3, 3)), rng.uniform(-5, 5, (3, 3)), rng.uniform(-1, 1, (3, 3)))
    ts = _trigger_state(state.x)
    d_ev = rhs_event(state, ts, path3, obj3, gains_theta35)
    d_ct = rhs_continuous(state, path3, obj3, gains_theta35)
    np.testing.assert_array_equal(d_ev, d_ct)


def test_rhs_event_dv_sums_to_zero_any_cache(path3, obj3, gains_theta35):
    rng = np.random.default_rng(3)
    state = SwarmState(rng.uniform(-5, 5, (3, 3)), rng.uniform(-5, 5, (3, 3)), np.zeros((3, 3)))
    ts = _trigger_state(rng.uniform(-5, 5, (3, 3)))  # stale caches
    dv = rhs_event(state, ts, path3, obj3, gains_theta35).reshape(3, 3, 3)[2]
    np.testing.assert_allclose(dv.sum(axis=0), 0.0, atol=1e-12)


def test_varphi_path3_hand_value(path3, gains_theta35):
    # agent 2 of the path graph: L_ii = 2 and the cross sum is -2
    a, b, gm, th = 2.0, 2.0, 6.0, 3.5
    eps0, eps8 = default_eps0(gains_theta35), 2e-4
    lead = (a * gm * eps0 - th) * b
    expected = lead / 4.0 * 2.0 + lead * 2.0 + gm**2 * th * eps0**2 / (4 * eps8) + a**2 * b**2 / (gm * (1 - eps0)) * 4.0
    assert varphi_all(path3, gains_theta35, eps0, eps8)[1] == pytest.approx(expected, rel=1e-12)


def test_varphi_isolated_agent(gains_theta35):
    g = build_graph([(1, 2, 1.0)], n=3)  # vertex 3 isolated
    eps0, eps8 = default_eps0(gains_theta35), 1e-3
    only_term = gains_theta35.gamma**2 * gains_theta35.theta * eps0**2 / (4 * eps8)
    assert varphi_all(g, gains_theta35, eps0, eps8)[2] == pytest.approx(only_term, rel=1e-12)


def test_varphi_increases_with_beta(path3):
    from socopt.dynamics import GainParams

    eps8 = 1e-3
    lo = GainParams(alpha=2.0, beta=2.0, gamma=6.0, theta=3.5)
    hi = GainParams(alpha=2.0, beta=3.0, gamma=6.0, theta=3.5)
    v_lo = varphi_all(path3, lo, default_eps0(lo), eps8)
    v_hi = varphi_all(path3, hi, default_eps0(hi), eps8)
    assert np.all(v_hi > v_lo)


def test_varphi_rejects_bad_eps0(path3, gains_theta35):
    with pytest.raises(TriggerConfigError, match="eps0"):
        varphi_all(path3, gains_theta35, 0.1, 1e-3)  # below theta/(alpha*gamma)
    with pytest.raises(TriggerConfigError, match="eps8"):
        varphi_all(path3, gains_theta35, default_eps0(gains_theta35), 0.0)


def test_trigger_law_requires_eps8_for_varphi(path3, gains_theta35):
    # the one way out names what it gives up; no other denominator remains
    params = TriggerParams.defaults(3)
    with pytest.raises(TriggerConfigError, match="eps8.*trigger.sigma: 0.*c_i\\*qhat_i"):
        make_trigger_law(path3, gains_theta35, params)
    law = make_trigger_law(path3, gains_theta35, TriggerParams.local_only(3))
    np.testing.assert_array_equal(law.c, 0.0)
    with pytest.raises(TriggerConfigError, match="denominator 'rate'"):
        make_trigger_law(path3, gains_theta35, params, eps8=1e-3, denominator="rate")


def _qhat_reference(i, xhat, g):
    """qhat_i by a loop over agent i's neighbors, in ascending order (the
    edges leaving i, sorted by ``dst``)."""
    q = 0.0
    for j in g.dst[g.src == i].tolist():
        d = xhat[j] - xhat[i]
        q += -0.5 * float(g.laplacian[i, j]) * float(d @ d)
    return q


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12), p=st.integers(1, 4))
@example(seed=1221, n=10, p=3)  # an einsum ||e||^2 put agent 2's margin 3.4e-12 relative off here
def test_rule_terms_match_neighbor_loop_reference(seed, n, p, gains_theta35):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    params = TriggerParams(
        sigma=rng.uniform(0.0, 0.99, n),
        delta=rng.uniform(0.0, 1.0, n),
        phi_rate=rng.uniform(0.5, 2.0, n),
        kappa=rng.uniform(2.5, 5.0, n),
        chi0=rng.uniform(0.1, 2.0, n),
    )
    law = _explicit_law(gains_theta35, params)
    x = rng.uniform(-5, 5, (n, p))
    ts = _trigger_state(rng.uniform(-5, 5, (n, p)), chi=rng.uniform(1e-3, 10.0, n))
    err_sq, qh = rule_terms(ts, g, x)
    for i in range(n):
        q_ref = _qhat_reference(i, ts.xhat, g)
        assert qh[i] == q_ref
        assert qhat(i, ts, g) == q_ref
        e = ts.xhat[i] - x[i]
        assert err_sq[i] == float(e @ e)
        m_ref = params.kappa[i] * (float(e @ e) - law.c[i] * q_ref) - ts.chi[i]
        assert trigger_margin(i, ts, g, law, x) == m_ref


def test_trigger_decision_reads_only_neighbors(gains_theta35):
    # perturbing the cache of every agent outside N_i and i itself leaves
    # agent i's rule terms bit for bit unchanged
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 12)
    x = rng.uniform(-5, 5, (12, 3))
    ts = _trigger_state(rng.uniform(-5, 5, (12, 3)))
    err_sq, qh = rule_terms(ts, g, x)
    for i in range(12):
        far = [j for j in range(12) if j != i and j not in g.dst[g.src == i]]
        moved = _trigger_state(ts.xhat)
        moved.xhat[far] += rng.uniform(-5, 5, (len(far), 3))
        err_i, qh_i = rule_terms(moved, g, x)
        assert err_i[i] == err_sq[i]
        assert qh_i[i] == qh[i]


def test_zeno_report_single_event():
    ts = _trigger_state(np.zeros((2, 1)))
    ts.events = event_log([(i, 1, 0.0, 1.0, 0.0, 0.0) for i in range(2)])
    rep = zeno_report(ts, horizon=10.0, step=0.01)
    assert rep["per_agent"][0]["count"] == 1
    assert rep["per_agent"][0]["min_gap"] == 10.0
    assert not rep["per_agent"][0]["saturated"]


def test_event_run_invariants(run3_event):
    sc, rep = run3_event
    er = rep.event_run
    # gaps are multiples of the sampling step by construction
    assert rep.trigger_summary["per_agent"][0]["min_gap"] >= sc.step - 1e-12
    assert er.discipline_margin <= 1e-9
    assert er.chi.min() > 0.0
    assert er.chi_floor_margin >= -1e-9
    counts = [a["count"] for a in rep.trigger_summary["per_agent"]]
    assert all(c < 5001 for c in counts)
    assert rep.terminal_error <= 1e-2


@pytest.mark.parametrize("fixture", ["run3_event", "ring30_event"])
def test_event_log_invariants(fixture, request):
    sc, rep = request.getfixturevalue(fixture)
    ts, traj = rep.event_run.trigger_state, rep.trajectory
    ev, n = ts.events, ts.counts.shape[0]
    assert isinstance(ev, np.recarray) and ev.dtype == EVENT_DTYPE
    np.testing.assert_array_equal(ts.counts, np.bincount(ev.agent))
    for i in range(n):
        assert ev.index[ev.agent == i].tolist() == list(range(1, ts.counts[i] + 1))
    # every t is a sample time, bit for bit, and the log runs in sample order
    k = np.rint(ev.t / sc.step).astype(int)
    assert ev.t.tobytes() == traj.t[k].tobytes()
    assert np.all(np.diff(ev.t) >= 0.0)
    # the first n rows, and only they, are the t = 0 broadcasts
    assert ev.agent[:n].tolist() == list(range(n))
    assert np.all(ev.t[:n] == 0.0) and np.all(ev.t[n:] > 0.0)
    assert ev.chi.tobytes() == traj.chi[k, ev.agent].tobytes()
    # the gap report against a per-agent loop over the log
    times = [[] for _ in range(n)]
    for row in ev:
        times[row.agent].append(row.t)
    for entry, t_i in zip(rep.trigger_summary["per_agent"], times):
        gaps = np.diff(t_i)
        assert entry["count"] == len(t_i)
        assert entry["min_gap"] == (gaps.min() if gaps.size else sc.horizon)
        assert entry["mean_gap"] == (gaps.mean() if gaps.size else sc.horizon)


def test_trigger_counts_monotone_in_chi0(path3, obj3, gains_theta35):
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-5, 5, (3, 3))
    y0 = rng.uniform(-5, 5, (3, 3))
    counts = []
    for chi0 in (1.0, 1e-3, 1e-6):
        params = TriggerParams.local_only(3, chi0=chi0)
        law = make_trigger_law(path3, gains_theta35, params)
        s0 = SwarmState(x0.copy(), y0.copy(), np.zeros((3, 3)))
        er = simulate_event(s0, path3, obj3, gains_theta35, law, 0.01, 10.0)
        counts.append(int(er.trigger_state.counts.sum()))
    assert counts[0] <= counts[1] <= counts[2]


def test_sweep_veto_is_not_reconsidered(path3, gains_theta35):
    # c = 1.0625 and kappa = 2 with the explicit law.  All three rules
    # hold as the sweep starts.  Agent 0 broadcasts first and raises
    # agent 1's qhat, so agent 1 is vetoed; agent 2's broadcast then lowers
    # that qhat again, but agent 1 is not reconsidered at this sample.
    law = _explicit_law(gains_theta35, TriggerParams.defaults(3))
    x = np.array([[1.0], [1.5], [0.0]])
    ts = _trigger_state([[0.0], [0.0], [2.0]], chi=[0.1, 0.1, 0.1])
    assert all(trigger_margin(i, ts, path3, law, x) >= 0.0 for i in range(3))
    _, fired = _fire(ts, path3, law, x)
    assert ts.counts.tolist() == [2, 1, 2]
    assert fired.agent.tolist() == [0, 2]
    assert trigger_margin(1, ts, path3, law, x) >= 0.0


def _one_at_a_time(ts, g, law, x, t):
    """Reference oracle: the sweep as it ran before batching.  Every
    selected agent is re-checked in index order against the caches as they
    stand, with the terms recomputed after each broadcast by a full
    ``rule_terms`` pass.  Returns the terms it leaves (||e||^2, qhat,
    bracket, margin) and its broadcasts as an event log."""
    undecided = np.ones(g.n, dtype=bool)
    terms = _fresh_terms(ts, g, law, x)
    log = []
    while (selected := np.flatnonzero(undecided & (terms[3] >= 0.0))).size:
        undecided[selected] = False
        for i in selected.tolist():
            if terms[3][i] >= 0.0:
                ts.xhat[i], ts.last_event[i] = x[i], t
                ts.counts[i] += 1
                log.append((i, int(ts.counts[i]), t, float(ts.chi[i]), float(terms[0][i]), float(terms[1][i])))
                terms = _fresh_terms(ts, g, law, x)
    return terms, event_log(log)


def _copy(ts):
    return TriggerState(ts.xhat.copy(), ts.chi.copy(), ts.last_event.copy(), ts.counts.copy(), ts.events.copy())


def _assert_same_sample(ts, ref, sample, ref_sample):
    """The caches, the returned terms and the logged broadcasts, each byte for byte."""
    (out, fired), (ref_out, ref_fired) = sample, ref_sample
    assert len(out) == len(ref_out) == 4
    pairs = [(fired, ref_fired), (ts.xhat, ref.xhat), (ts.counts, ref.counts), (ts.last_event, ref.last_event)]
    for a, b in [*pairs, *zip(out, ref_out)]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12), p=st.integers(1, 3))
def test_batched_sweep_matches_one_at_a_time_oracle(seed, n, p, gains_theta35):
    # small chi makes most rules hold; sigma up to 0.99 with the explicit
    # law makes c*qhat large enough for neighbours to veto
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    params = TriggerParams(
        sigma=rng.uniform(0.0, 0.99, n),
        delta=rng.uniform(0.0, 1.0, n),
        phi_rate=rng.uniform(0.5, 2.0, n),
        kappa=rng.uniform(2.5, 5.0, n),
        chi0=np.ones(n),
    )
    law = _explicit_law(gains_theta35, params)
    x = rng.uniform(-5, 5, (n, p))
    xhat = np.where(rng.random((n, 1)) < 0.2, x, rng.uniform(-5, 5, (n, p)))
    ts = _trigger_state(xhat, chi=10.0 ** rng.uniform(-4, 1, n))
    ref = _copy(ts)
    _assert_same_sample(ts, ref, _fire(ts, g, law, x), _one_at_a_time(ref, g, law, x, 1.0))


def test_batched_sweep_matches_oracle_on_path3_veto(path3, gains_theta35):
    law = _explicit_law(gains_theta35, TriggerParams.defaults(3))
    x = np.array([[1.0], [1.5], [0.0]])
    ts = _trigger_state([[0.0], [0.0], [2.0]], chi=[0.1, 0.1, 0.1])
    ref = _copy(ts)
    _assert_same_sample(ts, ref, _fire(ts, path3, law, x), _one_at_a_time(ref, path3, law, x, 1.0))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 12), p=st.integers(1, 3))
def test_carried_terms_match_full_pass(seed, n, p, gains_theta35):
    # a run makes one full rule_terms pass, at t = 0, and carries qhat from
    # there; at every sample the terms the sweep returns (||e||^2, qhat,
    # bracket, margin) equal a fresh full pass against the caches it
    # leaves, byte for byte, and the sample equals the one-at-a-time oracle
    # run on a copy; a sample where nobody fires hands back the qhat it was
    # given, and one where somebody does a new array.  A small chi0 makes
    # most rules hold at once, so batches and held agents occur; sigma up
    # to 0.3 leaves c*qhat large enough for some vetoes but small enough
    # that neighbours often fire at the same sample
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    obj = quadratic_family([np.eye(p)] * n, shifts=rng.uniform(-5, 5, (n, p)))
    params = TriggerParams(
        sigma=rng.uniform(0.0, 0.3, n),
        delta=rng.uniform(0.0, 1.0, n),
        phi_rate=rng.uniform(0.5, 2.0, n),
        kappa=rng.uniform(2.5, 5.0, n),
        chi0=10.0 ** rng.uniform(-6, -3, n),
    )
    law = _explicit_law(gains_theta35, params)
    s0 = SwarmState(rng.uniform(-5, 5, (n, p)), rng.uniform(-5, 5, (n, p)), np.zeros((n, p)))
    full_passes, samples, quiet = 0, 0, 0

    def counted(*args):
        nonlocal full_passes
        full_passes += 1
        return rule_terms(*args)

    def checked(ts, g, law, x, t, qh, log):
        nonlocal samples, quiet
        samples += 1
        ref = _copy(ts)
        ref_sample = _one_at_a_time(ref, g, law, x, t)
        logged, given = len(log), qh.copy()
        out = _process_triggers(ts, g, law, x, t, qh, log)
        _assert_same_sample(ts, ref, (out, event_log(log[logged:])), ref_sample)
        fresh = _fresh_terms(ts, g, law, x)
        assert len(out) == len(fresh) == 4
        for a, b in zip(out, fresh):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert qh.tobytes() == given.tobytes()  # the qhat it was given is not modified
        quiet += len(log) == logged
        assert (out[1] is qh) == (len(log) == logged)
        return out

    with patch.object(events, "rule_terms", counted), patch.object(events, "_process_triggers", checked):
        er = simulate_event(s0, g, obj, gains_theta35, law, 0.01, 0.5)
    assert full_passes == 1
    assert samples == er.trajectory.samples
    assert quiet >= 1  # t = 0, where every cache is fresh, fires nobody


def test_trigger_margin_nonpositive_after_broadcast(path3, gains_theta35):
    params = TriggerParams.defaults(3)
    law = make_trigger_law(path3, gains_theta35, params, eps8=1e-3)
    rng = np.random.default_rng(6)
    x = rng.uniform(-5, 5, (3, 3))
    ts = _trigger_state(rng.uniform(-5, 5, (3, 3)), chi=[0.01, 0.01, 0.01])
    fired = _fire(ts, path3, law, x)[1].agent.tolist()
    assert fired
    for i in fired:
        assert trigger_margin(i, ts, path3, law, x) < 0


@pytest.mark.parametrize("name", ["run3_event", "ring30_event"])
def test_held_laplacian_term_matches_caches_at_every_sample(name, monkeypatch):
    # the hook re-forms L xhat only after a sample that broadcast; at every
    # sample, those where nobody broadcast included, the L xhat block of
    # the held inputs eta is L @ xhat against the caches, byte for byte
    sc = load_preset("cdc18-scenario3-event") if name == "run3_event" else ring30_event_scenario()
    L, w = sc.graph.laplacian, sc.graph.n * sc.obj.p
    states, checked = [], []
    initialize = TriggerState.initialize.__func__

    def recorded(cls, *args):
        states.append(initialize(cls, *args))
        return states[-1]

    def watched(rhs, initial, step, horizon, on_sample, route, held):
        def hook(t, s):
            on_sample(t, s)
            checked.append(held[:w].tobytes() == (L @ states[0].xhat).tobytes())

        return dynamics.integrate(rhs, initial, step, horizon, hook, route, held)

    monkeypatch.setattr(TriggerState, "initialize", classmethod(recorded))
    monkeypatch.setattr(events, "integrate", watched)
    rep = run(sc)
    ev = rep.event_run.trigger_state.events
    assert len(states) == 1 and len(checked) == rep.trajectory.samples and all(checked)
    assert len(np.unique(ev.t)) < rep.trajectory.samples  # some samples broadcast nothing
