import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socopt.analysis import LyapunovContext, equilibrium_point
from socopt.costs import (
    CostError,
    CostFunction,
    GlobalObjective,
    central_difference,
    curvature_on_set,
    estimate_mf,
    gradient_check,
    minimizer_oracle,
    quadratic_family,
    quartic_family,
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


def test_quadratic_gradient_vanishes_at_shift(obj1):
    for cost, a in zip(obj1.costs, SCENARIO1_SHIFTS):
        np.testing.assert_allclose(cost.grad(np.asarray(a)), 0.0, atol=1e-14)


def test_identity_quadratic():
    (cost,) = quadratic_family([np.eye(3)], shifts=[np.zeros(3)])
    x = np.ones(3)
    assert cost.f(x) == pytest.approx(1.5)
    np.testing.assert_allclose(cost.grad(x), [1.0, 1.0, 1.0])


def test_lipschitz_is_top_eigenvalue(obj1):
    a2 = np.asarray(SCENARIO1_A[1])
    assert obj1.costs[1].global_lipschitz == pytest.approx(np.linalg.eigvalsh(a2)[-1])


def test_asymmetric_matrix_rejected():
    with pytest.raises(CostError, match="asymmetric"):
        quadratic_family([[[1.0, 0.5], [0.0, 1.0]]], shifts=[[0.0, 0.0]])


def test_indefinite_matrix_rejected_with_eigenvalues():
    with pytest.raises(CostError, match="indefinite.*-1"):
        quadratic_family([[[1.0, 0.0], [0.0, -1.0]]], shifts=[[0.0, 0.0]])


def test_quartic_gradient_at_center(obj2):
    for cost, b in zip(obj2.costs, SCENARIO2_CENTERS):
        np.testing.assert_allclose(cost.grad(np.asarray(b)), 0.0, atol=1e-14)


def test_quartic_gradient_unit_offset(obj2):
    cost = obj2.costs[0]
    b = cost.quartic_center
    x = b + np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(cost.grad(x), [4.0, 0.0, 0.0], atol=1e-14)
    fd = central_difference(cost.f, x, 1e-6)
    np.testing.assert_allclose(cost.grad(x), fd, atol=1e-5)


def test_quartic_centers_stored_verbatim(obj2):
    np.testing.assert_array_equal(obj2.costs[1].quartic_center, [2.5, 2.0, 3.0])


def test_quartic_not_globally_lipschitz(obj2):
    assert all(c.global_lipschitz is None for c in obj2.costs)


def test_gradient_check_quadratics(obj1, obj3):
    rng = np.random.default_rng(42)
    samples = rng.uniform(-5.0, 5.0, (100, 3))
    for cost in (*obj1.costs, *obj3.costs):
        assert gradient_check(cost, samples) <= 1e-6


def test_gradient_check_quartics(obj2):
    rng = np.random.default_rng(43)
    samples = rng.uniform(-5.0, 5.0, (100, 3))
    for cost in obj2.costs:
        assert gradient_check(cost, samples) <= 1e-5


def test_gradient_check_constant_cost():
    # the zero quadratic: f and its gradient are exactly 0 everywhere
    (cost,) = quadratic_family([np.zeros((2, 2))], shifts=[np.zeros(2)])
    rng = np.random.default_rng(44)
    assert gradient_check(cost, rng.uniform(-5, 5, (20, 2))) == 0.0


def test_gradient_check_nonfinite_named():
    # ||x||^4 overflows at 1e100, so the central difference is inf - inf
    (cost,) = quartic_family([[0.0]])
    with pytest.raises(CostError, match=r"non-finite evaluation at sample \[1e\+100\]"):
        gradient_check(cost, [np.array([1e100])])


def test_minimizer_linear_solve_matches_dense_oracle(obj3):
    res = minimizer_oracle(obj3)
    S = sum(np.asarray(C) for C in SCENARIO3_C)
    rhs = -sum(np.asarray(a) for a in SCENARIO3_LINEAR)
    np.testing.assert_allclose(res.x, np.linalg.solve(S, rhs), atol=1e-12)
    assert res.unique
    assert res.residual <= 1e-10


def test_minimizer_single_agent_center():
    obj = GlobalObjective(quadratic_family([np.eye(2)], shifts=[[3.0, -1.0]]))
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
    c = obj3.costs[0]
    top = np.linalg.eigvalsh(np.asarray(SCENARIO3_C[0]))[-1]
    assert curvature_on_set(c, 1.0, np.zeros(3)) == pytest.approx(top)
    assert curvature_on_set(c, 100.0, np.ones(3)) == pytest.approx(top)


def test_curvature_quartic_unit_ball(obj2):
    c = obj2.costs[0]
    assert curvature_on_set(c, 1.0, c.quartic_center) == pytest.approx(12.0)


def test_curvature_quartic_degenerate_ball(obj2):
    c = obj2.costs[1]
    center = c.quartic_center + np.array([2.0, 0.0, 0.0])
    assert curvature_on_set(c, 0.0, center) == pytest.approx(12.0 * 4.0)


def test_estimate_mf_exact_singular(obj1):
    est = estimate_mf(obj1, np.zeros(3))
    S = sum(np.asarray(A) for A in SCENARIO1_A)
    assert est.exact
    assert est.value == pytest.approx(np.linalg.eigvalsh(S)[0], abs=1e-9)
    assert not est.satisfied  # the summed curvature is singular


def test_estimate_mf_identity():
    obj = GlobalObjective(quadratic_family([np.eye(3)], shifts=[np.zeros(3)]))
    est = estimate_mf(obj, np.zeros(3))
    assert est.exact and est.satisfied
    assert est.value == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_convexity_inequality_sampled(seed, obj1, obj2, obj3):
    rng = np.random.default_rng(seed)
    for cost in (*obj1.costs, *obj2.costs, *obj3.costs):
        x = rng.uniform(-10.0, 10.0, 3)
        z = rng.uniform(-10.0, 10.0, 3)
        assert float((cost.grad(x) - cost.grad(z)) @ (x - z)) >= -1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_quadratic_lipschitz_sampled(seed, obj3):
    rng = np.random.default_rng(seed)
    for cost in obj3.costs:
        x = rng.uniform(-10.0, 10.0, 3)
        z = rng.uniform(-10.0, 10.0, 3)
        lhs = np.linalg.norm(cost.grad(x) - cost.grad(z))
        assert lhs <= cost.global_lipschitz * np.linalg.norm(x - z) + 1e-10


# -- batched cost families against the per-agent closures ---------------------

FAMILY_KINDS = ("quadratic_shift", "quadratic_linear", "quartic")


def _random_objective(rng, kind, n, p):
    if kind == "quartic":
        return GlobalObjective(quartic_family(rng.uniform(-3.0, 3.0, (n, p))))
    mats = []
    for _ in range(n):
        q = rng.standard_normal((p, p))
        mats.append(q @ q.T / p + rng.uniform(0.0, 1.0) * np.eye(p))
    vecs = rng.uniform(-3.0, 3.0, (n, p))
    if kind == "quadratic_shift":
        return GlobalObjective(quadratic_family(mats, shifts=vecs))
    return GlobalObjective(quadratic_family(mats, linear_terms=vecs))


def _closure_sum_grad(obj, z):
    """Scalar reference: the global gradient summed closure by closure."""
    total = np.zeros(obj.p)
    for c in obj.costs:
        total = total + c.grad(z)
    return total


def _closure_w1(obj, xstar, x):
    """Scalar reference for W1 over samples x (m, n, p): one closure call
    per agent and sample."""
    total = np.zeros(x.shape[0])
    for i, c in enumerate(obj.costs):
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
    grads = obj.grad_stack(x)
    for i, c in enumerate(obj.costs):
        assert np.all(grads[i] == c.grad(x[i]))
    z = rng.uniform(-1.0, 1.0, p) * scale
    assert np.all(obj.sum_grad(z) == _closure_sum_grad(obj, z))
    samples = rng.uniform(-1.0, 1.0, (7, n, p)) * scale
    ref_f = [[c.f(xs[i]) for i, c in enumerate(obj.costs)] for xs in samples]
    assert np.all(obj.f_stack(samples) == np.array(ref_f))

    xstar = rng.uniform(-1.0, 1.0, p)
    eq = equilibrium_point(obj, gains_theta35, xstar)
    gain = -(gains_theta35.alpha / gains_theta35.theta)
    assert all(np.all(eq.vbar[i] == gain * c.grad(xstar)) for i, c in enumerate(obj.costs))
    if n > 1:
        g = random_connected_graph(rng, n)
        ctx = LyapunovContext(g=g, sd=spectral(g), obj=obj, gains=gains_theta35, eps0=0.8, eps=0.1, eq=eq)
        assert ctx._w1(samples) == pytest.approx(_closure_w1(obj, xstar, samples), rel=1e-12, abs=0.0)


def test_mixed_and_custom_objectives_rejected():
    # an objective is one stacked family: mixed or unknown kinds are refused
    quad = quadratic_family([np.eye(2), 2.0 * np.eye(2)], shifts=[[1.0, 2.0], [0.0, -1.0]])
    quart = quartic_family([[0.5, 1.0]])
    with pytest.raises(CostError, match=r"one built-in kind.*\['quadratic', 'quartic'\]"):
        GlobalObjective([*quad, *quart])
    custom = CostFunction(dimension=2, kind="custom", f=lambda x: float(x @ x), grad=lambda x: 2.0 * x)
    with pytest.raises(CostError, match=r"one built-in kind.*\['custom'\]"):
        GlobalObjective([custom, custom])
    with pytest.raises(CostError, match="'custom'"):
        curvature_on_set(custom, 1.0, np.zeros(2))


def _loop_mf(obj, xstar, samples):
    """Scalar reference: the sampled m_f estimate one sample at a time."""
    gstar = obj.sum_grad(xstar)
    best = np.inf
    for x in samples:
        d = x - xstar
        dn2 = float(d @ d)
        if dn2 >= 1e-20:
            best = min(best, float((obj.sum_grad(x) - gstar) @ d) / dn2)
    return best


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12), p=st.sampled_from([1, 2, 3, 5, 8]))
def test_estimate_mf_batch_matches_sample_loop(seed, n, p):
    rng = np.random.default_rng(seed)
    obj = _random_objective(rng, "quartic", n, p)
    xstar = rng.uniform(-3.0, 3.0, p)
    samples = rng.uniform(-10.0, 10.0, (50, p))
    samples[0] = xstar  # a sample at x* itself is skipped
    assert estimate_mf(obj, xstar, samples).value == _loop_mf(obj, xstar, samples)


def test_estimate_mf_batch_matches_sample_loop_fixed(obj2):
    # scenario2 as the harness samples it, and 12 agents in one dimension,
    # where a pairwise sum over agents would round differently
    rng = np.random.default_rng(7)
    line = GlobalObjective(quartic_family(rng.uniform(-3.0, 3.0, (12, 1))))
    for obj, xstar in ((obj2, minimizer_oracle(obj2).x), (line, np.array([0.5]))):
        for seed in range(50):
            samples = np.random.default_rng(seed).uniform(-10.0, 10.0, (200, obj.p))
            assert estimate_mf(obj, xstar, samples).value == _loop_mf(obj, xstar, samples)


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
    for obj in map(GlobalObjective, families):
        S, r = obj.family.summed_system()
        assert np.array_equal(S, sum(c.quad_matrix for c in obj.costs))
        assert np.array_equal(r, sum(c.quad_matrix @ c.center - c.linear for c in obj.costs))
