"""Per-agent reference oracles for the stacked cost families.

The package evaluates an objective only through its stacked
``QuadraticFamily`` or ``QuarticFamily``.  The tests judge those families
against the scalar closures here, one ``CostFunction`` per agent, built
from the same data, and check gradients against central finite
differences.  The combined convexity inequality of criterion 12 is also
sampled here.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from socopt.analysis import ConstantsError
from socopt.costs import CostError, GlobalObjective
from socopt.graph import NetworkGraph, SpectralData


@dataclass
class CostFunction:
    """One agent's cost as scalar (f, grad) closures and its data.

    For quadratics grad(x) = quad_matrix @ (x - center) + linear and
    ``global_lipschitz`` is the top eigenvalue of ``quad_matrix``, taken
    from this matrix's own ``eigvalsh``; quartics have no global modulus.
    """

    kind: str  # "quadratic" | "quartic"
    f: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    global_lipschitz: float | None = None
    quad_matrix: np.ndarray | None = None
    center: np.ndarray | None = None
    linear: np.ndarray | None = None
    quartic_center: np.ndarray | None = None


def quadratic_cost(A: np.ndarray, center: np.ndarray, linear: np.ndarray) -> CostFunction:
    def f(x):
        d = x - center
        return float(0.5 * d @ A @ d + linear @ x)

    def grad(x):
        return A @ (x - center) + linear

    return CostFunction(
        kind="quadratic",
        f=f,
        grad=grad,
        global_lipschitz=float(np.linalg.eigvalsh(A)[-1]),
        quad_matrix=A,
        center=center,
        linear=linear,
    )


def quartic_cost(b: np.ndarray) -> CostFunction:
    def f(x):
        d = x - b
        sq = float(d @ d)
        return sq * sq

    def grad(x):
        d = x - b
        return 4.0 * float(d @ d) * d

    return CostFunction(kind="quartic", f=f, grad=grad, quartic_center=b)


def per_agent_costs(obj: GlobalObjective) -> list[CostFunction]:
    """One closure pair per agent, from the objective's stacked data."""
    fam = obj.family
    if obj.all_quadratic():
        return [quadratic_cost(fam.A[i], fam.a[i], fam.b[i]) for i in range(obj.n)]
    return [quartic_cost(fam.B[i]) for i in range(obj.n)]


def curvature_bound(cost: CostFunction, radius: float, center: np.ndarray) -> float:
    """Gradient-Lipschitz bound for one cost over the ball B(center, radius):
    the top eigenvalue for a quadratic, 12 (radius + ||center - b||)^2 for
    a quartic."""
    if cost.kind == "quadratic":
        return float(np.linalg.eigvalsh(cost.quad_matrix)[-1])
    reach = radius + float(np.linalg.norm(np.asarray(center, dtype=float) - cost.quartic_center))
    return 12.0 * (reach * reach)  # a float's ** 2 calls libm pow, which can round apart from numpy's square


def central_difference(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of f at x with step h.  For an f
    with values of shape s (one per agent, say) the result has shape
    s + x.shape."""
    cols = []
    for k in range(x.shape[0]):
        e = np.zeros_like(x, dtype=float)
        e[k] = h
        cols.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def gradient_check(obj: GlobalObjective, samples) -> float:
    """Max relative error between the family's gradients and central
    differences of the family's values, over agents and sample points.

    The error of agent i at a sample is
    ||grad f_i(x) - centraldiff(f_i, x, 1e-6)|| divided by
    max(1, ||grad f_i(x)||).
    """
    worst = 0.0
    for x in samples:
        x = np.asarray(x, dtype=float)
        g = obj.grad_stack(x)
        fd = central_difference(obj.f_stack, x, 1e-6)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(fd))):
            raise CostError(f"non-finite evaluation at sample {x.tolist()}")
        err = np.linalg.norm(g - fd, axis=1) / np.maximum(1.0, np.linalg.norm(g, axis=1))
        worst = max(worst, float(err.max()))
    return worst


@dataclass
class CombinedConvexityReport:
    margin: float
    m: float
    iota: float
    ok: bool


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=(-2, -1))


def check_combined_convexity(
    obj: GlobalObjective,
    xstar: np.ndarray,
    g: NetworkGraph,
    sd: SpectralData,
    r_coeff: float,
    samples,
    mf: float,
    Mbar: float,
) -> CombinedConvexityReport:
    """Sample the combined convexity/disagreement inequality.

    For stacked states x, checks
    (grad f(x) - grad f(x*))^T (x - x*) + r * x^T (L kron I) x
    >= m ||x - x*||^2 with m = min(mf - 2*Mbar*iota, rho2/(2r(1+1/iota^2)))
    and iota = mf/(4*Mbar).  A negative margin beyond tolerance flags
    inconsistent curvature data.
    """
    if r_coeff <= 0:
        raise ConstantsError(f"r must be positive, got {r_coeff}")
    iota = mf / (4.0 * Mbar)
    m = min(mf - 2.0 * Mbar * iota, sd.rho2 / (2.0 * r_coeff * (1.0 + 1.0 / iota**2)))
    xbar = np.tile(np.asarray(xstar, dtype=float), (obj.n, 1))
    grad_star = obj.grad_stack(xbar)
    worst = np.inf
    for x in samples:
        x = np.asarray(x, dtype=float).reshape(obj.n, obj.p)
        d = x - xbar
        lhs = _dot(obj.grad_stack(x) - grad_star, d) + r_coeff * _dot(x, g.laplacian @ x)
        worst = min(worst, lhs - m * _dot(d, d))
    return CombinedConvexityReport(margin=float(worst), m=float(m), iota=float(iota), ok=worst >= -1e-9)
