import numpy as np
import pytest

from socopt.analysis import (
    ConstantsError,
    LyapunovContext,
    certificate_continuous,
    certificate_event,
    envelope_excess,
    equilibrium_point,
    fit_rate,
    monotonicity_excess,
)
from socopt.costs import estimate_mf, minimizer_oracle, quadratic_family
from socopt.dynamics import SwarmState, Trajectory, equilibrium_residual
from socopt.events import TriggerParams, default_eps0
from socopt.graph import build_graph, spectral

from conftest import random_connected_graph
from oracle import check_combined_convexity, per_agent_costs


@pytest.fixture(scope="module")
def setup3(path3, obj3, gains_theta35):
    sd = spectral(path3)
    mini = minimizer_oracle(obj3)
    mf = estimate_mf(obj3, mini.x)
    eq = equilibrium_point(obj3, gains_theta35, mini.x)
    eps0 = default_eps0(gains_theta35)
    return sd, mini, mf, eq, eps0


def _random_state(rng, eq, scale=3.0):
    n, p = eq.xbar.shape
    v = rng.uniform(-scale, scale, (n, p))
    v -= v.mean(axis=0, keepdims=True)  # trajectories keep sum_i v_i = 0
    return SwarmState(rng.uniform(-scale, scale, (n, p)), rng.uniform(-scale, scale, (n, p)), v + eq.vbar)


def test_equilibrium_point_residuals(path3, obj3, gains_theta35, setup3):
    _, _, _, eq, _ = setup3
    state = SwarmState(eq.xbar, np.zeros_like(eq.xbar), eq.vbar)
    res = equilibrium_residual(state, path3, obj3, gains_theta35)
    assert max(res) <= 1e-10
    np.testing.assert_allclose(eq.vbar.sum(axis=0), 0.0, atol=1e-12)


def test_v1_zero_at_equilibrium(path3, obj3, gains_theta35, setup3):
    sd, _, _, eq, eps0 = setup3
    ctx = LyapunovContext(g=path3, sd=sd, obj=obj3, gains=gains_theta35, eps0=eps0, eps=0.1, eq=eq)
    state = SwarmState(eq.xbar, np.zeros_like(eq.xbar), eq.vbar)
    cols = ctx.sample(state)
    assert cols["W1"] == pytest.approx(0.0, abs=1e-12)
    assert cols["W2"] == pytest.approx(0.0, abs=1e-10)
    assert cols["V1"] == pytest.approx(0.0, abs=1e-10)


def test_v1_quadratic_lower_bound(path3, obj3, gains_theta35, setup3):
    sd, _, _, eq, eps0 = setup3
    ctx = LyapunovContext(g=path3, sd=sd, obj=obj3, gains=gains_theta35, eps0=eps0, eps=0.1, eq=eq)
    gm = gains_theta35.gamma
    coeff = gm**2 * eps0 * (1.0 - np.sqrt(eps0)) / 2.0
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = _random_state(rng, eq)
        dx2 = float(np.sum((s.x - eq.xbar) ** 2))
        assert ctx.sample(s)["V1"] >= coeff * dx2 - 1e-9


def test_continuous_certificate_positivity(obj3, gains_theta35, setup3):
    sd, mini, mf, eq, eps0 = setup3
    consts = certificate_continuous(sd, obj3, gains_theta35, eps0, 0.1, 50.0, mini.x, mf)
    assert consts.eps1 > 0 and consts.eps2 > 0 and consts.eps3 > 0
    assert consts.eps4 > 1
    assert consts.m1 <= mf / 2.0
    assert consts.D_radius > 0
    assert consts.rate_bound_continuous == pytest.approx(consts.eps3 / (2 * consts.eps4))
    # quadratics: curvature bound on any ball is the top eigenvalue
    assert consts.M_D == pytest.approx(max(c.global_lipschitz for c in per_agent_costs(obj3)))


def test_certificate_default_design_parameter(path3, obj3, gains_theta5):
    # theta=5 < alpha*gamma=12 admits the midpoint design parameter
    eps0 = default_eps0(gains_theta5)
    assert eps0 == pytest.approx((5.0 / 12.0 + 1.0) / 2.0)
    sd = spectral(path3)
    mini = minimizer_oracle(obj3)
    mf = estimate_mf(obj3, mini.x)
    consts = certificate_continuous(sd, obj3, gains_theta5, eps0, 0.1, 10.0, mini.x, mf)
    for name in ("eps1", "eps2", "eps3", "m1", "M_D", "D_radius"):
        assert getattr(consts, name) > 0
    assert consts.eps4 > 1


def test_continuous_certificate_rejects_bad_inputs(obj3, gains_theta35, setup3):
    sd, mini, mf, _, _ = setup3
    with pytest.raises(ConstantsError, match="eps0"):
        certificate_continuous(sd, obj3, gains_theta35, 0.05, 0.1, 1.0, mini.x, mf)
    with pytest.raises(ConstantsError, match="convexity"):
        certificate_continuous(sd, obj3, gains_theta35, 0.7, 0.1, 1.0, mini.x, 0.0)


def test_event_certificate(obj3, gains_theta35, setup3):
    sd, mini, mf, _, eps0 = setup3
    params = TriggerParams.defaults(3)
    consts = certificate_event(sd, obj3, gains_theta35, eps0, 0.1, params, mf)
    assert consts.eps5 > 0 and consts.eps6 > 0 and consts.eps8 > 0 and consts.eps9 > 0
    assert consts.eps7 > 1 and consts.eps10 > 1
    assert consts.eps7 == pytest.approx(1.0 + 0.1 * consts.eps6 / consts.eps5)
    assert consts.eps8 == pytest.approx(0.1 / (4.0 * consts.eps7))
    assert consts.eps8 < 0.1 / 4.0
    assert consts.k_d == pytest.approx(params.k_d)
    assert consts.rate_bound_event == pytest.approx(consts.eps9 / (2 * consts.eps10))
    assert consts.Mbar == pytest.approx(max(c.global_lipschitz for c in per_agent_costs(obj3)))


def test_event_certificate_rejects_kd_nonpositive(obj3, gains_theta35, setup3):
    sd, mini, mf, _, eps0 = setup3
    params = TriggerParams.defaults(3)
    # sidestep construction-time validation to exercise the certificate gate
    params.kappa = (1.0 - params.delta) / params.phi_rate - 1e-6
    with pytest.raises(ConstantsError, match="k_d"):
        certificate_event(sd, obj3, gains_theta35, eps0, 0.1, params, mf)


def test_constants_report_has_formulas(obj3, gains_theta35, setup3):
    sd, mini, mf, _, eps0 = setup3
    consts = certificate_continuous(sd, obj3, gains_theta35, eps0, 0.1, 25.0, mini.x, mf)
    report = consts.to_report()
    assert report["eps3"]["formula"] == "min(eps1, eps*theta/2)"
    assert report["eps3"]["value"] == pytest.approx(consts.eps3)
    assert "eps9" not in report  # event side not computed here


def test_v3_at_equilibrium_is_chi_term(path3, obj3, gains_theta35, setup3):
    sd, mini, mf, eq, eps0 = setup3
    params = TriggerParams.defaults(3)
    consts = certificate_event(sd, obj3, gains_theta35, eps0, 0.1, params, mf)
    from socopt.events import varphi_all

    phis = varphi_all(path3, gains_theta35, eps0, consts.eps8)
    ctx = LyapunovContext(
        g=path3, sd=sd, obj=obj3, gains=gains_theta35, eps0=eps0, eps=0.1, eq=eq, consts=consts, varphi=phis
    )
    chi = np.array([0.5, 0.25, 1.0])
    state = SwarmState(eq.xbar, np.zeros_like(eq.xbar), eq.vbar, chi)
    expected = consts.eps7 * float(np.sum(phis * chi))
    v3 = ctx.sample(state)["V3"]
    assert v3 == pytest.approx(expected, rel=1e-9)
    assert v3 > 0


def test_w4_lower_bound_random_states(path3, obj3, gains_theta35, setup3):
    sd, mini, mf, eq, eps0 = setup3
    params = TriggerParams.defaults(3)
    consts = certificate_event(sd, obj3, gains_theta35, eps0, 0.1, params, mf)
    ctx = LyapunovContext(
        g=path3, sd=sd, obj=obj3, gains=gains_theta35, eps0=eps0, eps=0.1, eq=eq, consts=consts
    )
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = _random_state(rng, eq)
        dx2 = float(np.sum((s.x - eq.xbar) ** 2))
        assert ctx.sample(s)["W4"] >= consts.eps_tilde2 * dx2 - 1e-9


def test_v2_lower_bound_random_states(path3, obj3, gains_theta35, setup3):
    sd, mini, mf, eq, eps0 = setup3
    consts = certificate_continuous(sd, obj3, gains_theta35, eps0, 0.1, 25.0, mini.x, mf)
    ctx = LyapunovContext(
        g=path3, sd=sd, obj=obj3, gains=gains_theta35, eps0=eps0, eps=0.1, eq=eq, consts=consts
    )
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = _random_state(rng, eq)
        dx2 = float(np.sum((s.x - eq.xbar) ** 2))
        assert ctx.sample(s)["V2"] >= consts.eps_tilde1 * dx2 - 1e-9


def _check_lyapunov_terms_against_pinv(g, rng, gn):
    """W2, W3 and V1 of ``LyapunovContext.values`` against the same terms
    built from numpy's SVD pseudoinverse and an explicit K_n = I - 11^T/n,
    at random states, one state alone and n + 1 at once (a right-hand
    side block narrower and wider than n).  v has a nonzero agent sum (as
    the alternative variant allows), so the centring of dv is tested too."""
    n, p = g.n, int(rng.integers(1, 4))
    roots = rng.uniform(-1.0, 1.0, (n, p, p))
    obj = quadratic_family(roots @ roots.transpose(0, 2, 1) + 0.1 * np.eye(p), shifts=rng.uniform(-2.0, 2.0, (n, p)))
    eps0, eps = default_eps0(gn), 0.1
    eq = equilibrium_point(obj, gn, minimizer_oracle(obj).x)
    sd = spectral(g)
    ctx = LyapunovContext(g=g, sd=sd, obj=obj, gains=gn, eps0=eps0, eps=eps, eq=eq)
    x, y, v = rng.uniform(-3.0, 3.0, (3, n + 1, n, p))
    got = ctx.values(x, y, v)
    one = ctx.values(x[:1], y[:1], v[:1])

    L, kn, pinv = g.laplacian, np.eye(n) - np.ones((n, n)) / n, np.linalg.pinv(g.laplacian)
    dx, dv = x - eq.xbar, v - eq.vbar
    assert np.abs(dv.sum(axis=1)).min() > 1e-3
    gs = obj.grad_stack(eq.xbar)
    w1 = (obj.f_stack(x) - obj.f_stack(eq.xbar)).sum(axis=1) - np.einsum("ip,mip->m", gs, dx)

    def d(a, b):
        return np.einsum("mip,mip->m", a, b)

    c_pinv = gn.theta * gn.gamma * eps0 / (2.0 * gn.beta)
    w2_terms = [
        0.5 * d(y, y),
        0.5 * gn.gamma**2 * eps0 * d(dx, dx),
        gn.gamma * eps0 * d(dx, y),
        c_pinv * d(dv, pinv @ dv),
        gn.theta * d(dv, kn @ x),
        0.5 * gn.alpha * gn.beta * d(x, L @ x),
    ]
    w3_terms = [eps / (2.0 * gn.alpha) * d(y, y), eps * d(dv, kn @ y), 0.5 * eps * gn.alpha * d(dv, kn @ dv), eps * w1]
    want = {"W2": sum(w2_terms), "W3": sum(w3_terms)}
    want["V1"] = gn.alpha * w1 + want["W2"]

    # Tolerance: each form sums n*p products, so it is off by at most
    # n*p*u times its absolute sum (u the unit round-off).  The LU solve (or
    # the inverse it gives) and the SVD pseudoinverse are backward stable,
    # so each applied L^+ is off by about kappa*n*u of its size, with
    # kappa = max(rho, 1)/min(rho2, 1) the condition number of L + 11^T/n
    # (rho/rho2 <= kappa for L^+).  The absolute sum bounds |dv^T L^+ dv|
    # by |dv|^2/rho2, and a factor 4 covers the two evaluations and the
    # coefficient products.  Observed errors sit 10 to 100 times below it.
    kappa = max(sd.rho, 1.0) / min(sd.rho2, 1.0)
    scale = sum(np.abs(t) for t in w2_terms + w3_terms) + c_pinv * d(dv, dv) / sd.rho2 + gn.alpha * np.abs(w1)
    tol = 4.0 * n * p * kappa * np.finfo(float).eps * scale
    for name in ("W2", "W3", "V1"):
        assert np.all(np.abs(got[name] - want[name]) <= tol), name
        assert abs(one[name][0] - want[name][0]) <= tol[0], name


@pytest.mark.parametrize("seed", range(20))
def test_lyapunov_terms_match_pseudoinverse_oracle(seed, gains_theta35):
    rng = np.random.default_rng(seed)
    _check_lyapunov_terms_against_pinv(random_connected_graph(rng, int(rng.integers(2, 13))), rng, gains_theta35)


@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_lyapunov_terms_match_pseudoinverse_oracle_unit_path(n, gains_theta35):
    # the presets' graph family.  Any solution z of L z = cdv gives the same
    # cdv^T z, so a solve without the 11^T/n term differs only at round-off
    # where LU meets a tiny pivot; on a unit-weight path the last pivot is
    # exactly zero, and that singular solve is refused
    g = build_graph([(i, i + 1, 1.0) for i in range(n - 1)], n=n)
    _check_lyapunov_terms_against_pinv(g, np.random.default_rng(n), gains_theta35)


def _scalar_trajectory(t, x):
    """A trajectory of one agent in one dimension: position x(t), y = v = 0."""
    u = np.zeros((t.size, 3))
    u[:, 0] = x
    return Trajectory(t, u, SwarmState([[0.0]], [[0.0]], [[0.0]]))


def test_fit_rate_exact_exponential():
    t = np.linspace(0.0, 10.0, 1001)
    # a trajectory whose stacked norm is 3 exp(-0.7 t)
    fit = fit_rate(_scalar_trajectory(t, 3.0 * np.exp(-0.7 * t)), np.zeros(1))
    assert fit.rate == pytest.approx(0.7, abs=1e-6)
    assert not fit.truncated


def test_fit_rate_constant_error():
    t = np.linspace(0.0, 10.0, 101)
    fit = fit_rate(_scalar_trajectory(t, np.ones(t.size)), np.zeros(1))
    assert fit.rate == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_truncates_noise_floor():
    t = np.linspace(0.0, 10.0, 1001)
    errs = np.exp(-10.0 * t)  # crosses 1e-13 around t = 3
    fit = fit_rate(_scalar_trajectory(t, errs), np.zeros(1))
    assert fit.truncated
    assert fit.t_hi < 8.0
    assert fit.rate == pytest.approx(10.0, rel=1e-3)


def test_combined_convexity_zero_at_consensus_optimum(path3, obj3, gains_theta35, setup3):
    sd, mini, mf, _, eps0 = setup3
    Mbar = obj3.global_lipschitz.max()
    xbar = np.tile(mini.x, (3, 1))
    rep = check_combined_convexity(obj3, mini.x, path3, sd, 1.0, [xbar], mf, Mbar)
    assert rep.margin == pytest.approx(0.0, abs=1e-10)


def test_combined_convexity_sampled_margin(path3, obj3, gains_theta35, setup3):
    sd, mini, mf, _, eps0 = setup3
    Mbar = obj3.global_lipschitz.max()
    gains = gains_theta35
    r = (gains.alpha * gains.gamma * eps0 - gains.theta) * gains.beta / (8.0 * gains.alpha)
    rng = np.random.default_rng(3)
    samples = rng.uniform(-10, 10, (500, 3, 3))
    rep = check_combined_convexity(obj3, mini.x, path3, sd, r, samples, mf, Mbar)
    assert rep.ok
    assert rep.margin >= -1e-9
    doubled = check_combined_convexity(obj3, mini.x, path3, sd, 2 * r, samples, mf, Mbar)
    assert doubled.m <= rep.m


def test_envelope_and_monotonicity_helpers():
    t = np.linspace(0, 5, 50)
    vals = 2.0 * np.exp(-0.5 * t)
    assert envelope_excess(t, vals, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert envelope_excess(t, vals, 0.6) > 0.0
    assert monotonicity_excess(np.array([3.0, 2.0, 2.5])) == pytest.approx(0.5)
    assert monotonicity_excess(np.array([3.0])) == 0.0
