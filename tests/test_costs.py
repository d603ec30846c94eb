import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socopt.analysis import LyapunovContext, equilibrium_point
from socopt.costs import (
    CostError,
    curvature_on_set,
    estimate_mf,
    minimizer_oracle,
    quadratic_family,
    quartic_family,
    rowdot,
)
from socopt.graph import spectral
from socopt.presets import (
    SCENARIO1_A,
    SCENARIO1_SHIFTS,
    SCENARIO2_CENTERS,
    SCENARIO3_C,
    SCENARIO3_LINEAR,
)

from conftest import random_connected_graph
from oracle import central_difference, curvature_bound, gradient_check, per_agent_costs, quadratic_cost, quartic_cost


def test_quadratic_gradient_vanishes_at_shift(obj1):
    grads = obj1.grad_stack(np.asarray(SCENARIO1_SHIFTS, dtype=float))
    np.testing.assert_allclose(grads, 0.0, atol=1e-14)


def test_identity_quadratic():
    obj = quadratic_family([np.eye(3)], shifts=[np.zeros(3)])
    x = np.ones(3)
    assert obj.f_stack(x[None]) == pytest.approx([1.5])
    np.testing.assert_allclose(obj.grad_stack(x[None]), [[1.0, 1.0, 1.0]])


def test_lipschitz_is_top_eigenvalue(obj1):
    a2 = np.asarray(SCENARIO1_A[1])
    assert obj1.global_lipschitz[1] == pytest.approx(np.linalg.eigvalsh(a2)[-1])


def test_asymmetric_matrix_rejected():
    with pytest.raises(CostError, match=r"matrix of agent 2 is asymmetric \(max \|A - A\^T\| = 5.000e-01\)"):
        quadratic_family([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]], shifts=[[0.0, 0.0]] * 2)


def test_indefinite_matrix_rejected_with_eigenvalues():
    with pytest.raises(CostError, match="matrix of agent 1 is indefinite.*-1"):
        quadratic_family([[[1.0, 0.0], [0.0, -1.0]]], shifts=[[0.0, 0.0]])


def test_quartic_gradient_at_center(obj2):
    grads = obj2.grad_stack(np.asarray(SCENARIO2_CENTERS, dtype=float))
    np.testing.assert_allclose(grads, 0.0, atol=1e-14)


def test_quartic_gradient_unit_offset(obj2):
    b = obj2.family.B[0]
    x = b + np.array([1.0, 0.0, 0.0])
    g = obj2.grad_stack(x)[0]
    np.testing.assert_allclose(g, [4.0, 0.0, 0.0], atol=1e-14)
    fd = central_difference(obj2.f_stack, x, 1e-6)[0]
    np.testing.assert_allclose(g, fd, atol=1e-5)


def test_quartic_centers_stored_verbatim(obj2):
    np.testing.assert_array_equal(obj2.family.B[1], [2.5, 2.0, 3.0])


def test_quartic_not_globally_lipschitz(obj2):
    assert obj2.global_lipschitz is None


def test_gradient_check_quadratics(obj1, obj3):
    rng = np.random.default_rng(42)
    samples = rng.uniform(-5.0, 5.0, (100, 3))
    for obj in (obj1, obj3):
        assert gradient_check(obj, samples) <= 1e-6


def test_gradient_check_quartics(obj2):
    rng = np.random.default_rng(43)
    samples = rng.uniform(-5.0, 5.0, (100, 3))
    assert gradient_check(obj2, samples) <= 1e-5


def test_gradient_check_constant_cost():
    # the zero quadratic: f and its gradient are exactly 0 everywhere
    obj = quadratic_family([np.zeros((2, 2))], shifts=[np.zeros(2)])
    rng = np.random.default_rng(44)
    assert gradient_check(obj, rng.uniform(-5, 5, (20, 2))) == 0.0


def test_gradient_check_nonfinite_named():
    # ||x||^4 overflows at 1e100, so the central difference is inf - inf
    obj = quartic_family([[0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CostError, match=r"non-finite evaluation at sample \[1e\+100\]"):
            gradient_check(obj, [np.array([1e100])])


def test_minimizer_linear_solve_matches_dense_oracle(obj3):
    res = minimizer_oracle(obj3)
    S = sum(np.asarray(C) for C in SCENARIO3_C)
    rhs = -sum(np.asarray(a) for a in SCENARIO3_LINEAR)
    np.testing.assert_allclose(res.x, np.linalg.solve(S, rhs), atol=1e-12)
    assert res.unique
    assert res.residual <= 1e-10


def test_minimizer_single_agent_center():
    obj = quadratic_family([np.eye(2)], shifts=[[3.0, -1.0]])
    res = minimizer_oracle(obj)
    np.testing.assert_allclose(res.x, [3.0, -1.0], atol=1e-12)


def test_minimizer_quartic_descent(obj2):
    res = minimizer_oracle(obj2)
    assert res.method == "descent"
    assert np.linalg.norm(obj2.sum_grad(res.x)) <= 1e-8


def test_minimizer_singular_flagged(obj1):
    res = minimizer_oracle(obj1)
    assert not res.unique
    assert res.null_basis is not None
    assert res.residual <= 1e-10
    # the flat direction of these costs is the consensus direction in R^3
    b = res.null_basis[:, 0]
    np.testing.assert_allclose(np.abs(b), np.full(3, 1 / np.sqrt(3)), atol=1e-10)


def test_curvature_quadratic_radius_independent(obj3):
    top = max(np.linalg.eigvalsh(np.asarray(C))[-1] for C in SCENARIO3_C)
    assert curvature_on_set(obj3, 1.0, np.zeros(3)) == pytest.approx(top)
    assert curvature_on_set(obj3, 100.0, np.ones(3)) == pytest.approx(top)


def test_curvature_quadratic_ignores_override(obj3):
    # M(D) is the matrices' curvature; an override replaces only the global moduli
    obj = quadratic_family(SCENARIO3_C, linear_terms=SCENARIO3_LINEAR)
    obj.global_lipschitz = np.full(3, 400.0)
    assert curvature_on_set(obj, 1.0, np.zeros(3)) == curvature_on_set(obj3, 1.0, np.zeros(3))


def test_curvature_quartic_unit_ball():
    c = np.asarray(SCENARIO2_CENTERS[0], dtype=float)
    assert curvature_on_set(quartic_family([c]), 1.0, c) == pytest.approx(12.0)


def test_curvature_quartic_degenerate_ball():
    c = np.asarray(SCENARIO2_CENTERS[1], dtype=float)
    center = c + np.array([2.0, 0.0, 0.0])
    assert curvature_on_set(quartic_family([c]), 0.0, center) == pytest.approx(12.0 * 4.0)


def test_curvature_quartic_is_max_over_agents(obj2):
    center = np.zeros(3)
    far = max(np.linalg.norm(np.asarray(b, dtype=float)) for b in SCENARIO2_CENTERS)
    assert curvature_on_set(obj2, 0.5, center) == pytest.approx(12.0 * (0.5 + far) ** 2)


def test_curvature_negative_radius_rejected(obj2):
    with pytest.raises(CostError, match="radius"):
        curvature_on_set(obj2, -1.0, np.zeros(3))


def test_estimate_mf_exact_singular(obj1):
    mf = estimate_mf(obj1, np.zeros(3))
    S = sum(np.asarray(A) for A in SCENARIO1_A)
    assert mf == pytest.approx(np.linalg.eigvalsh(S)[0], abs=1e-9)
    assert not mf > 0.0  # the summed curvature is singular


def test_estimate_mf_identity():
    obj = quadratic_family([np.eye(3)], shifts=[np.zeros(3)])
    assert estimate_mf(obj, np.zeros(3)) == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_convexity_inequality_sampled(seed, obj1, obj2, obj3):
    rng = np.random.default_rng(seed)
    for obj in (obj1, obj2, obj3):
        x = rng.uniform(-10.0, 10.0, (3, 3))
        z = rng.uniform(-10.0, 10.0, (3, 3))
        assert np.all(rowdot(obj.grad_stack(x) - obj.grad_stack(z), x - z) >= -1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_quadratic_lipschitz_sampled(seed, obj3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10.0, 10.0, (3, 3))
    z = rng.uniform(-10.0, 10.0, (3, 3))
    lhs = np.linalg.norm(obj3.grad_stack(x) - obj3.grad_stack(z), axis=1)
    assert np.all(lhs <= obj3.global_lipschitz * np.linalg.norm(x - z, axis=1) + 1e-10)


# -- batched cost families against the per-agent closures of the oracle -------

FAMILY_KINDS = ("quadratic_shift", "quadratic_linear", "quartic")


def _random_objective(rng, kind, n, p):
    if kind == "quartic":
        return quartic_family(rng.uniform(-3.0, 3.0, (n, p)))
    mats = []
    for _ in range(n):
        q = rng.standard_normal((p, p))
        mats.append(q @ q.T / p + rng.uniform(0.0, 1.0) * np.eye(p))
    vecs = rng.uniform(-3.0, 3.0, (n, p))
    if kind == "quadratic_shift":
        return quadratic_family(mats, shifts=vecs)
    return quadratic_family(mats, linear_terms=vecs)


def _closure_sum_grad(obj, z):
    """Scalar reference: the global gradient summed closure by closure."""
    total = np.zeros(obj.p)
    for c in per_agent_costs(obj):
        total = total + c.grad(z)
    return total


def _closure_w1(obj, xstar, x):
    """Scalar reference for W1 over samples x (m, n, p): one closure call
    per agent and sample."""
    total = np.zeros(x.shape[0])
    for i, c in enumerate(per_agent_costs(obj)):
        gi = c.grad(xstar)
        at_star = c.f(xstar) - float(gi @ xstar)
        f_vals = np.array([c.f(xi) for xi in x[:, i]])
        total += f_vals - x[:, i] @ gi - at_star
    return total


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(FAMILY_KINDS),
    n=st.integers(1, 20),
    p=st.sampled_from([1, 2, 3, 5, 8]),
)
def test_family_matches_closure_loop(seed, kind, n, p, gains_theta35):
    rng = np.random.default_rng(seed)
    obj = _random_objective(rng, kind, n, p)
    assert obj.all_quadratic() == (kind != "quartic")
    scale = 10.0 ** rng.uniform(-3.0, 2.0)
    x = rng.uniform(-1.0, 1.0, (n, p)) * scale
    costs = per_agent_costs(obj)
    grads = obj.grad_stack(x)
    for i, c in enumerate(costs):
        assert np.all(grads[i] == c.grad(x[i]))
    z = rng.uniform(-1.0, 1.0, p) * scale
    assert np.all(obj.sum_grad(z) == _closure_sum_grad(obj, z))
    samples = rng.uniform(-1.0, 1.0, (7, n, p)) * scale
    ref_f = [[c.f(xs[i]) for i, c in enumerate(costs)] for xs in samples]
    assert np.all(obj.f_stack(samples) == np.array(ref_f))

    xstar = rng.uniform(-1.0, 1.0, p)
    eq = equilibrium_point(obj, gains_theta35, xstar)
    gain = -(gains_theta35.alpha / gains_theta35.theta)
    assert all(np.all(eq.vbar[i] == gain * c.grad(xstar)) for i, c in enumerate(costs))
    if n > 1:
        g = random_connected_graph(rng, n)
        ctx = LyapunovContext(g=g, sd=spectral(g), obj=obj, gains=gains_theta35, eps0=0.8, eps=0.1, eq=eq)
        assert ctx._w1(samples) == pytest.approx(_closure_w1(obj, xstar, samples), rel=1e-12, abs=0.0)


# -- the quartic m_f closed form against the definition -----------------------


def _ratios(obj, xstar, z):
    """The restricted-convexity ratios (grad f(z) - grad f(x*)) . (z - x*) /
    ||z - x*||^2 at points z (..., p), by definition, and a bound on their
    rounding: 64 eps times sum_i (||grad f_i(z)|| + ||grad f_i(x*)||) / ||z - x*||,
    the size of the terms the numerator sums before its cancellation."""
    gz, gs = obj.family.grad(z[..., None, :]), obj.family.grad(xstar)
    d = z - xstar
    dn = np.linalg.norm(d, axis=-1)
    ratio = rowdot(gz.sum(axis=-2) - gs.sum(axis=0), d) / dn**2
    terms = np.linalg.norm(gz, axis=-1).sum(axis=-1) + np.linalg.norm(gs, axis=-1).sum()
    return ratio, 64.0 * np.finfo(float).eps * terms / dn


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12), p=st.integers(1, 5))
def test_quartic_mf_at_most_every_sampled_ratio(seed, n, p):
    # any x* (the identity needs no stationarity), points near and far;
    # the closed form's own rounding is eigvalsh's, 64 eps times the
    # matrix's Frobenius norm
    rng = np.random.default_rng(seed)
    obj = _random_objective(rng, "quartic", n, p)
    xstar = rng.uniform(-3.0, 3.0, p)
    mf = estimate_mf(obj, xstar)
    z = xstar + rng.standard_normal((400, p)) * 10.0 ** rng.uniform(-3.0, 1.0, (400, 1))
    ratio, slack = _ratios(obj, xstar, z)
    d = xstar - obj.family.B
    w = d.sum(axis=0)
    scale = 4.0 * (d * d).sum() * np.sqrt(p) + 8.0 * np.linalg.norm(d.T @ d) + 9.0 * (w @ w) / n
    assert np.all(mf <= ratio + slack + 64.0 * np.finfo(float).eps * scale)


def _direction_search(obj, xstar):
    """Smallest ratio found by brute force, p <= 3: over a grid of
    directions u (angles 1 or 3 degrees apart, half the sphere, since u
    and -u span one line), a golden-section search in s along
    z = x* + s u (the ratio is convex in s), then twice the same search
    around the best direction on a grid 10 times finer."""
    p = obj.p
    reach = 2.0 * np.linalg.norm(xstar - obj.family.B, axis=1).max() + 1.0

    def along(u):
        lo, hi = np.full(len(u), -reach), np.full(len(u), reach)
        k = (np.sqrt(5.0) - 1.0) / 2.0
        for _ in range(40):
            a, b = hi - k * (hi - lo), lo + k * (hi - lo)
            ra = _ratios(obj, xstar, xstar + a[:, None] * u)[0]
            rb = _ratios(obj, xstar, xstar + b[:, None] * u)[0]
            lo, hi = np.where(ra < rb, lo, a), np.where(ra < rb, b, hi)
        s = (lo + hi) / 2.0
        s[s == 0.0] = 1e-9
        return _ratios(obj, xstar, xstar + s[:, None] * u)[0]

    def sphere(angles):
        if p == 2:
            return np.stack([np.cos(angles[0]), np.sin(angles[0])], axis=-1)
        th, ph = angles
        return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)

    def grid(center, width, count):
        axes = [c + np.linspace(-width, width, count) for c in center]
        return [a.ravel() for a in np.meshgrid(*axes, indexing="ij")]

    if p == 1:
        return float(along(np.ones((1, 1))).min())
    count = 181 if p == 2 else 61
    angles = grid([np.pi / 2.0] * (p - 1), np.pi / 2.0, count)
    best = along(sphere(angles))
    step = np.pi / (count - 1)
    for _ in range(2):
        center = [a[np.argmin(best)] for a in angles]
        angles = grid(center, 2.0 * step, 41)
        best = along(sphere(angles))
        step /= 10.0
    return float(best.min())


DIRECTION_CASES = {
    "scenario2": SCENARIO2_CENTERS,
    **{
        f"n{n}-p{p}": np.random.default_rng(seed).uniform(-3.0, 3.0, (n, p))
        for seed, (n, p) in enumerate([(2, 1), (5, 1), (3, 2), (7, 2), (3, 3), (6, 3)])
    },
}


@pytest.mark.parametrize("case", sorted(DIRECTION_CASES))
def test_quartic_mf_matches_direction_search(case):
    # at the minimizer, and at a point away from it, where w = sum_i d_i is
    # large and the 9/n w w^T term moves the value most
    obj = quartic_family(DIRECTION_CASES[case])
    away = np.random.default_rng(0).uniform(-3.0, 3.0, obj.p)
    for xstar in (minimizer_oracle(obj).x, away):
        assert estimate_mf(obj, xstar) == pytest.approx(_direction_search(obj, xstar), rel=1e-3)


def test_quartic_mf_is_min_eig_of_h_when_w_vanishes():
    # centres in pairs x* +- e: the offsets sum to zero, so the 9/n w w^T
    # term drops and m_f = lambda_min(H); x* is then also the minimizer
    rng = np.random.default_rng(3)
    xstar = rng.uniform(-2.0, 2.0, 3)
    e = rng.uniform(-2.0, 2.0, (4, 3))
    obj = quartic_family(np.concatenate([xstar + e, xstar - e]))
    d = xstar - obj.family.B
    H = 4.0 * (d * d).sum() * np.eye(3) + 8.0 * d.T @ d
    assert estimate_mf(obj, xstar) == pytest.approx(np.linalg.eigvalsh(H)[0], rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 40), p=st.integers(1, 6))
def test_summed_system_matches_per_cost_sums(seed, n, p):
    # the family's stacked sums equal a Python loop over the costs bit for bit
    rng = np.random.default_rng(seed)
    mats = [q @ q.T / p + 0.5 * np.eye(p) for q in rng.standard_normal((n, p, p))]
    vecs = rng.uniform(-2.0, 2.0, (n, p))
    families = [
        quadratic_family(mats, shifts=vecs),
        quadratic_family(mats, linear_terms=vecs),
        quadratic_family(SCENARIO1_A, shifts=SCENARIO1_SHIFTS),
        quadratic_family(SCENARIO3_C, linear_terms=SCENARIO3_LINEAR),
    ]
    for obj in families:
        costs = per_agent_costs(obj)
        S, r = obj.family.summed_system()
        assert np.array_equal(S, sum(c.quad_matrix for c in costs))
        assert np.array_equal(r, sum(c.quad_matrix @ c.center - c.linear for c in costs))


# -- the batched construction against each agent's own computation ------------


def _psd_stack(rng, n, p):
    """n random PSD matrices, some singular, as separate arrays."""
    mats = []
    for _ in range(n):
        q = rng.standard_normal((p, int(rng.integers(1, p + 1))))
        mats.append(q @ q.T * 10.0 ** rng.uniform(-2.0, 2.0))
    return mats


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 20), p=st.sampled_from([1, 2, 3, 5]))
def test_batched_moduli_and_curvature_match_per_agent(seed, n, p):
    rng = np.random.default_rng(seed)
    mats = _psd_stack(rng, n, p)
    vecs = rng.uniform(-3.0, 3.0, (n, p))
    obj = quadratic_family(mats, linear_terms=vecs)
    refs = [quadratic_cost(np.array(A), np.zeros(p), v) for A, v in zip(mats, vecs)]
    assert obj.global_lipschitz.tolist() == [np.linalg.eigvalsh(A)[-1] for A in mats]
    assert obj.global_lipschitz.tolist() == [c.global_lipschitz for c in refs]
    centers = rng.uniform(-3.0, 3.0, (n, p))
    quart = quartic_family(centers)
    quart_refs = [quartic_cost(b) for b in centers]
    for radius in (0.0, 3.5, 211.0, float(rng.uniform(0.0, 50.0))):
        ball = rng.uniform(-5.0, 5.0, p)
        assert curvature_on_set(obj, radius, ball) == max(curvature_bound(c, radius, ball) for c in refs)
        assert curvature_on_set(quart, radius, ball) == max(curvature_bound(c, radius, ball) for c in quart_refs)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_batched_rejection_names_first_offending_agent(p):
    rng = np.random.default_rng(p)
    mats = _psd_stack(rng, 6, p)
    mats[3] = mats[3] - (np.linalg.eigvalsh(mats[3])[-1] + 1.0) * np.eye(p)
    mats[4] = -np.eye(p)
    with pytest.raises(CostError, match="agent 4 is indefinite"):
        quadratic_family(mats, shifts=np.zeros((6, p)))
    if p > 1:
        mats[2] = mats[2] + np.triu(np.ones((p, p)), 1)
        with pytest.raises(CostError, match="agent 3 is asymmetric"):
            quadratic_family(mats, shifts=np.zeros((6, p)))
