"""Weighted undirected communication graphs and their spectral data.

The agent network is a weighted undirected graph with adjacency matrix A
(symmetric, nonnegative, zero diagonal) and Laplacian L = Deg - A.  Every
convergence certificate downstream needs exact spectral quantities of L:
its spectral radius, its smallest positive eigenvalue, and the orthonormal
eigenbasis split that diagonalizes it away from the all-ones direction.
L is stored dense; A is not, only its edge list ``src``/``dst`` and
weights ``w``, over which the hot-path neighbor sums run.
"""

from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction or a graph that violates a precondition."""


@dataclass(frozen=True)
class NetworkGraph:
    """Immutable weighted undirected graph.

    Attributes
    ----------
    n : int
        Number of agents (vertices).
    laplacian : ndarray, shape (n, n)
        L = Deg - A; rows sum to zero, and L_ii is the weighted degree.
    src, dst : ndarray of int, shape (2|E|,)
        Directed edges src -> dst (both ways), ``np.nonzero(A > 0)``: sorted
        by ``src``, and the edges leaving i list i's neighbours ascending.
    w : ndarray, shape (2|E|,)
        Edge weights A[src, dst] = -L[src, dst].
    """

    n: int
    laplacian: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class SpectralData:
    """Eigenstructure of a connected graph Laplacian.

    ``lambda1`` holds the positive eigenvalues sorted ascending, so
    ``rho2 = lambda1[0]`` and ``rho = lambda1[-1]``.  ``R`` holds the
    corresponding orthonormal eigenvectors (columns).  ``kn`` is the
    disagreement projector I - (1/n) 11^T, which annihilates the
    consensus direction.
    """

    n: int
    rho: float
    rho2: float | None
    kn: np.ndarray
    R: np.ndarray
    lambda1: np.ndarray

    def weighted_projector(self, power: float) -> np.ndarray:
        """Return R diag(lambda1**power) R^T.

        power=1 reconstructs L, power=0.5 its square root, power=-1 the
        pseudoinverse restricted to the disagreement subspace.
        """
        if self.lambda1.size == 0:
            return np.zeros((self.n, self.n))
        return (self.R * self.lambda1**power) @ self.R.T


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_graph(edges, n: int | None = None) -> NetworkGraph:
    """Build a graph from an edge list of (i, j, weight) triples.

    Vertex indices may be 0-based or 1-based: the list is treated as
    0-based if any index is 0, else 1-based.  ``n`` may be given
    explicitly (required for graphs with isolated trailing vertices or an
    empty edge list).

    Raises
    ------
    GraphError
        On self-loops, nonpositive weights, or duplicate edges.
    """
    edges = [(int(i), int(j), float(w)) for i, j, w in edges]
    off = 0 if any(i == 0 or j == 0 for i, j, _ in edges) else 1
    edges = [(i - off, j - off, w) for i, j, w in edges]

    if n is None:
        if not edges:
            raise GraphError("empty edge list requires an explicit vertex count n")
        n = max(max(i, j) for i, j, _ in edges) + 1
    if n < 1:
        raise GraphError("need at least one vertex")

    A = np.zeros((n, n))
    seen: set[tuple[int, int]] = set()
    for i, j, w in edges:
        if i == j:
            raise GraphError(f"self-loop at vertex {i + off}")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge ({i + off}, {j + off}) out of range for n={n}")
        if w <= 0.0:
            raise GraphError(f"nonpositive weight {w} on edge ({i + off}, {j + off})")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphError(f"duplicate edge ({i + off}, {j + off})")
        seen.add(key)
        A[i, j] = A[j, i] = w

    L = np.diag(A.sum(axis=1)) - A
    src, dst = np.nonzero(A > 0.0)
    return NetworkGraph(n=n, laplacian=_freeze(L), src=_freeze(src), dst=_freeze(dst), w=_freeze(A[src, dst]))


def connected_components(g: NetworkGraph) -> list[list[int]]:
    """Connected components over positive-weight edges, each sorted, in
    the order of their smallest vertex."""
    label = np.arange(g.n)
    while True:  # spread the smallest vertex index along the edges
        spread = label.copy()
        np.minimum.at(spread, g.src, label[g.dst])
        if np.array_equal(spread, label):
            return [np.flatnonzero(label == r).tolist() for r in np.flatnonzero(label == np.arange(g.n))]
        label = spread


def is_connected(g: NetworkGraph) -> bool:
    return len(connected_components(g)) == 1


def spectral(g: NetworkGraph) -> SpectralData:
    """Eigendecomposition of the Laplacian of a connected graph.

    Eigenvalues below 1e-9 * max(rho, 1) in magnitude are treated as zero;
    a connected graph must have exactly one.  The scale-relative cutoff
    survives rescaling all edge weights.

    Raises
    ------
    GraphError
        If the graph is disconnected (the message names the components).
    """
    comps = connected_components(g)
    if len(comps) > 1:
        raise GraphError(
            "graph is disconnected; components: "
            + ", ".join("{" + ",".join(map(str, c)) + "}" for c in comps)
        )
    vals, vecs = np.linalg.eigh(g.laplacian)
    rho = float(vals[-1])
    tol = 1e-9 * max(rho, 1.0)
    n_zero = int(np.sum(np.abs(vals) <= tol))
    if g.n > 1 and n_zero != 1:
        raise GraphError(f"expected one zero eigenvalue, found {n_zero}")

    kn = np.eye(g.n) - np.ones((g.n, g.n)) / g.n
    lambda1 = vals[1:].copy()
    R = vecs[:, 1:].copy()
    rho2 = float(lambda1[0]) if lambda1.size else None
    return SpectralData(
        n=g.n,
        rho=rho if g.n > 1 else 0.0,
        rho2=rho2,
        kn=_freeze(kn),
        R=_freeze(R),
        lambda1=_freeze(lambda1),
    )
