import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socopt.graph import GraphError, build_graph, connected_components, is_connected, spectral

from conftest import random_connected_graph

PATH3_L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def test_path3_laplacian(path3):
    assert path3.n == 3
    np.testing.assert_array_equal(path3.laplacian, PATH3_L)
    np.testing.assert_array_equal(np.diag(path3.laplacian), [1.0, 2.0, 1.0])


def test_empty_edge_set_zero_laplacian():
    g = build_graph([], n=2)
    np.testing.assert_array_equal(g.laplacian, np.zeros((2, 2)))


def test_complete_graph_laplacian():
    g = build_graph([(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    np.testing.assert_allclose(g.laplacian, 3 * np.eye(3) - np.ones((3, 3)))
    assert np.all(np.diag(g.laplacian) == 2.0)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(1, 2, 1.0), (2, 1, 1.0)], "duplicate"),
        ([(1, 2, -1.0)], "nonpositive"),
        ([(1, 2, 0.0)], "nonpositive"),
        ([(2, 2, 1.0)], "self-loop"),
    ],
)
def test_build_rejections(edges, message):
    with pytest.raises(GraphError, match=message):
        build_graph(edges, n=3)


def test_is_connected(path3):
    assert is_connected(path3)
    assert not is_connected(build_graph([(1, 2, 1.0)], n=3))
    assert is_connected(build_graph([], n=1))


def test_spectral_path3(path3):
    sd = spectral(path3)
    # eigensolver oracle on the dense matrix, plus the known values
    oracle = np.linalg.eigvalsh(PATH3_L)
    np.testing.assert_allclose(sorted([0.0, *sd.lambda1]), oracle, atol=1e-12)
    np.testing.assert_allclose(sd.lambda1, [1.0, 3.0], atol=1e-12)
    assert sd.rho2 == pytest.approx(1.0)
    assert sd.rho == pytest.approx(3.0)


def test_projector_annihilates_ones(path3):
    sd = spectral(path3)
    np.testing.assert_allclose(sd.kn @ np.ones(3), 0.0, atol=1e-12)
    np.testing.assert_allclose(sd.kn @ sd.kn, sd.kn, atol=1e-12)


def test_pseudoinverse_identity_path3(path3):
    sd = spectral(path3)
    lhs = sd.weighted_projector(-1.0) @ path3.laplacian
    np.testing.assert_allclose(lhs, sd.kn, atol=1e-12)


def test_spectral_rejects_disconnected():
    g = build_graph([(1, 2, 1.0)], n=4)
    with pytest.raises(GraphError, match=r"components.*\{0,1\}.*\{2\}.*\{3\}"):
        spectral(g)


def test_single_vertex_spectral():
    sd = spectral(build_graph([], n=1))
    assert sd.rho2 is None
    assert sd.lambda1.size == 0
    np.testing.assert_array_equal(sd.kn, [[0.0]])


def test_indexing_modes():
    # a list naming vertex 0 is 0-based, any other is 1-based
    g0 = build_graph([(0, 1, 2.0)])
    g1 = build_graph([(1, 2, 2.0)])
    np.testing.assert_array_equal(g0.laplacian, g1.laplacian)


def test_components_named():
    g = build_graph([(1, 2, 1.0), (4, 5, 1.0)], n=5)
    assert connected_components(g) == [[0, 1], [2], [3, 4]]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
def test_spectral_identities_random(seed, n):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    L = g.laplacian
    sd = spectral(g)

    # rows sum to zero, symmetric, PSD order against the projector
    np.testing.assert_allclose(L @ np.ones(n), 0.0, atol=1e-12)
    np.testing.assert_allclose(L, L.T, atol=1e-12)
    assert np.linalg.eigvalsh(L - sd.rho2 * sd.kn).min() >= -1e-10

    # eigenbasis reconstruction and the projector identities
    np.testing.assert_allclose(sd.weighted_projector(1.0), L, atol=1e-10)
    half = sd.weighted_projector(0.5)
    np.testing.assert_allclose(half @ half, L, atol=1e-10)
    pinv = sd.weighted_projector(-1.0)
    np.testing.assert_allclose(pinv @ L, sd.kn, atol=1e-10)
    np.testing.assert_allclose(L @ pinv, sd.kn, atol=1e-10)
    np.testing.assert_allclose(sd.weighted_projector(-0.5) @ half, sd.kn, atol=1e-10)

    # pinv sits between Kn/rho and Kn/rho2 in the PSD order
    assert np.linalg.eigvalsh(pinv - sd.kn / sd.rho).min() >= -1e-10
    assert np.linalg.eigvalsh(sd.kn / sd.rho2 - pinv).min() >= -1e-10
