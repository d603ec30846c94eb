"""Private convex costs, their gradients, and curvature oracles.

Two built-in families cover the simulation scenarios: quadratic costs, in
shift form 0.5*(x-a)^T A (x-a) or linear form 0.5*x^T C x + a^T x, and
quartic costs ||x-b||^4.

Each cost is a ``CostFunction`` carrying scalar (f, grad) closures and its
canonical data.  Every cost of a ``GlobalObjective`` has the same built-in
kind (mixed kinds are rejected), and the objective stacks that data once
into a ``QuadraticFamily`` or ``QuarticFamily``, which evaluates all
agents' gradients and values in one array expression.  The batched values
are bit-equal to the closures (every batched row inner product in the
package is a ``rowdot``); the closures serve as the scalar oracles of
finite-difference gradient checking and of the tests of the families.

The module also provides the independent oracles the test and acceptance
suites are built on: finite-difference gradient checking, the
global-minimizer solve, curvature bounds on balls, and a sampled lower
estimate of restricted strong convexity.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class CostError(ValueError):
    """Invalid cost definition or a cost violating a precondition."""


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row inner products a_k . b_k over the last axis, leading axes
    broadcast.  Each is a 1 x p by p x 1 matmul, so it rounds like the
    per-row ``a_k @ b_k`` of a loop; ``(a * b).sum(-1)`` does not."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@dataclass
class CostFunction:
    """A private cost: evaluator, gradient, and curvature metadata.

    ``global_lipschitz`` is the global gradient-Lipschitz modulus when one
    exists (quartics have none and leave it ``None`` unless the caller
    supplies an explicit override).  For quadratics ``quad_matrix``,
    ``center`` and ``linear`` store the canonical data
    grad(x) = quad_matrix @ (x - center) + linear.
    """

    dimension: int
    kind: str  # "quadratic" | "quartic"
    f: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    global_lipschitz: float | None = None
    quad_matrix: np.ndarray | None = None
    center: np.ndarray | None = None
    linear: np.ndarray | None = None
    quartic_center: np.ndarray | None = None


@dataclass(frozen=True)
class QuadraticFamily:
    """Quadratic costs of all agents, stacked: A (n, p, p), centres a and
    linear terms b (n, p), so that grad f_i(x) = A_i (x - a_i) + b_i and
    f_i(x) = 0.5 (x - a_i)^T A_i (x - a_i) + b_i^T x."""

    A: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Per-agent gradients at stacked positions x (n, p), or at one
        point x (p,) shared by all agents.  Here and in ``f`` the batched
        matmuls round like the closures' per-agent products."""
        return np.matmul(self.A, (x - self.a)[:, :, None])[:, :, 0] + self.b

    def f(self, x: np.ndarray) -> np.ndarray:
        """Per-agent values at positions x of shape (..., n, p) or (p,), as
        (..., n), in the closures' evaluation order 0.5*d @ A @ d + b @ x."""
        d = x - self.a
        quad = np.matmul(np.matmul((0.5 * d)[..., None, :], self.A), d[..., :, None])
        return quad[..., 0, 0] + rowdot(x, self.b)

    def summed_system(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, r) with S = sum_i A_i and r = sum_i (A_i a_i - b_i), so that the
        summed gradient is S x - r; summed in agent order like a loop over
        the costs."""
        r = np.matmul(self.A, self.a[:, :, None])[:, :, 0] - self.b
        return np.add.accumulate(self.A, axis=0)[-1], np.add.accumulate(r, axis=0)[-1]


@dataclass(frozen=True)
class QuarticFamily:
    """Quartic costs of all agents, stacked: centres B (n, p), so that
    f_i(x) = ||x - B_i||^4 and grad f_i(x) = 4 ||x - B_i||^2 (x - B_i)."""

    B: np.ndarray

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Per-agent gradients at stacked positions x (n, p), or at one
        point x (p,) shared by all agents."""
        d = x - self.B
        return 4.0 * rowdot(d, d)[..., None] * d

    def f(self, x: np.ndarray) -> np.ndarray:
        """Per-agent values at positions x of shape (..., n, p) or (p,), as (..., n)."""
        d = x - self.B
        sq = rowdot(d, d)
        return sq * sq


def _family(costs: list[CostFunction]) -> QuadraticFamily | QuarticFamily:
    kinds = {c.kind for c in costs}
    if kinds == {"quadratic"}:
        return QuadraticFamily(
            A=np.stack([c.quad_matrix for c in costs]),
            a=np.stack([c.center for c in costs]),
            b=np.stack([c.linear for c in costs]),
        )
    if kinds == {"quartic"}:
        return QuarticFamily(B=np.stack([c.quartic_center for c in costs]))
    raise CostError(f"an objective needs costs of one built-in kind, quadratic or quartic; got kinds {sorted(kinds)}")


@dataclass
class GlobalObjective:
    """Sum of private costs, one per agent.

    ``family`` stacks the costs' data (built once here), and every
    evaluation goes through it; the costs must share one built-in kind.
    """

    costs: list[CostFunction]
    family: QuadraticFamily | QuarticFamily = field(init=False, repr=False)

    def __post_init__(self):
        dims = {c.dimension for c in self.costs}
        if len(dims) != 1:
            raise CostError(f"costs disagree on dimension: {sorted(dims)}")
        self.family = _family(self.costs)

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def p(self) -> int:
        return self.costs[0].dimension

    def all_quadratic(self) -> bool:
        return isinstance(self.family, QuadraticFamily)

    def grad_stack(self, x: np.ndarray) -> np.ndarray:
        """Per-agent gradients for stacked positions x of shape (n, p)."""
        return self.family.grad(x)

    def f_stack(self, x: np.ndarray) -> np.ndarray:
        """Per-agent values f_i(x_i) for positions x of shape (..., n, p), as (..., n)."""
        return self.family.f(x)

    def sum_grad(self, z: np.ndarray) -> np.ndarray:
        """Gradient of the global objective at a single point z, summed in
        agent index order like a loop over the closures (``sum(axis=0)``
        switches to pairwise summation when p = 1)."""
        return np.add.accumulate(self.family.grad(z), axis=0)[-1]

    def sum_f(self, z: np.ndarray) -> float:
        """Value of the global objective at a single point z, summed in
        agent index order like a loop over the closures."""
        return float(sum(self.family.f(z).tolist()))


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise CostError(f"expected a square matrix, got shape {M.shape}")
    return M


def _quadratic(A: np.ndarray, center: np.ndarray, linear: np.ndarray) -> CostFunction:
    evals = np.linalg.eigvalsh(A)
    asym = float(np.abs(A - A.T).max())
    if asym > 1e-12 * max(1.0, float(np.abs(A).max())):
        raise CostError(f"quadratic matrix is asymmetric (max |A - A^T| = {asym:.3e})")
    if evals[0] < -1e-10 * max(1.0, evals[-1]):
        raise CostError(
            f"quadratic matrix is indefinite; eigenvalues {np.array2string(evals, precision=6)}"
        )

    def f(x, A=A, a=center, b=linear):
        d = x - a
        return float(0.5 * d @ A @ d + b @ x)

    def grad(x, A=A, a=center, b=linear):
        return A @ (x - a) + b

    return CostFunction(
        dimension=A.shape[0],
        kind="quadratic",
        f=f,
        grad=grad,
        global_lipschitz=float(evals[-1]),
        quad_matrix=A,
        center=center,
        linear=linear,
    )


def quadratic_family(matrices, shifts=None, linear_terms=None) -> list[CostFunction]:
    """Build quadratic costs, one per matrix.

    With ``shifts``: f_i = 0.5*(x - a_i)^T A_i (x - a_i).
    With ``linear_terms``: f_i = 0.5*x^T C_i x + a_i^T x.
    Matrices must be symmetric positive semi-definite; violations are
    rejected with the offending eigenvalues in the message.
    """
    if (shifts is None) == (linear_terms is None):
        raise CostError("provide exactly one of shifts or linear_terms")
    vecs = shifts if shifts is not None else linear_terms
    if len(vecs) != len(matrices):
        raise CostError(f"{len(matrices)} matrices but {len(vecs)} vectors")
    out = []
    for M, vec in zip(matrices, vecs):
        A = _as_matrix(M)
        v = np.asarray(vec, dtype=float).reshape(-1)
        if v.shape[0] != A.shape[0]:
            raise CostError(f"vector length {v.shape[0]} does not match matrix size {A.shape[0]}")
        if shifts is not None:
            out.append(_quadratic(A, center=v, linear=np.zeros_like(v)))
        else:
            out.append(_quadratic(A, center=np.zeros_like(v), linear=v))
    return out


def quartic_family(centers) -> list[CostFunction]:
    """Build quartic costs f_i = ||x - b_i||^4 with grad = 4||x-b||^2 (x-b).

    Quartics are not globally gradient-Lipschitz, so ``global_lipschitz``
    stays unset; event-triggered runs must supply an explicit override.
    """
    out = []
    for b in centers:
        b = np.asarray(b, dtype=float).reshape(-1)

        def f(x, b=b):
            d = x - b
            sq = float(d @ d)
            return sq * sq

        def grad(x, b=b):
            d = x - b
            return 4.0 * float(d @ d) * d

        out.append(CostFunction(dimension=b.shape[0], kind="quartic", f=f, grad=grad, quartic_center=b))
    return out


def central_difference(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of f at x with step h."""
    g = np.zeros_like(x, dtype=float)
    for k in range(x.shape[0]):
        e = np.zeros_like(g)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def gradient_check(cost: CostFunction, samples) -> float:
    """Max relative error between the analytic gradient and central differences.

    The error at a sample is ||grad(x) - centraldiff(f, x, 1e-6)|| divided
    by max(1, ||grad(x)||).
    """
    worst = 0.0
    for x in samples:
        x = np.asarray(x, dtype=float)
        g = cost.grad(x)
        fd = central_difference(cost.f, x, 1e-6)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(fd))):
            raise CostError(f"non-finite evaluation at sample {x.tolist()}")
        err = float(np.linalg.norm(g - fd)) / max(1.0, float(np.linalg.norm(g)))
        worst = max(worst, err)
    return worst


@dataclass
class MinimizerResult:
    """Global minimizer of the summed objective, with solve metadata.

    ``unique`` is False when the quadratic system is singular; in that
    case ``null_basis`` spans the flat directions and ``x`` is the
    minimum-norm solution.
    """

    x: np.ndarray
    residual: float
    unique: bool
    method: str
    null_basis: np.ndarray | None = None


def minimizer_oracle(obj: GlobalObjective) -> MinimizerResult:
    """Find x* minimizing the sum of the private costs.

    All-quadratic objectives solve the stationarity system directly; a
    singular system returns one (minimum-norm) solution flagged as
    non-unique.  Otherwise a damped gradient descent with backtracking
    runs from the origin until ||sum grad|| <= 1e-8, for at most 10**6
    iterations.  This solver is deliberately independent of the agent
    dynamics it is used to judge.
    """
    tol = 1e-8
    if obj.all_quadratic():
        S, b = obj.family.summed_system()
        evals = np.linalg.eigvalsh(S)
        singular = evals[0] <= 1e-12 * max(1.0, evals[-1])
        if not singular:
            x = np.linalg.solve(S, b)
            unique, basis = True, None
        else:
            x, *_ = np.linalg.lstsq(S, b, rcond=None)
            _, vecs = np.linalg.eigh(S)
            k = int(np.sum(evals <= 1e-12 * max(1.0, evals[-1])))
            unique, basis = False, vecs[:, :k]
        res = float(np.linalg.norm(obj.sum_grad(x)))
        return MinimizerResult(x=x, residual=res, unique=unique, method="linear-solve", null_basis=basis)

    x = np.zeros(obj.p)
    fval = obj.sum_f(x)
    step = 1.0
    for _ in range(10**6):
        g = obj.sum_grad(x)
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            break
        # Backtracking line search on the summed objective.  Near the
        # minimizer the sufficient-decrease amount falls below the float
        # resolution of f, where the Armijo comparison turns into noise;
        # there a step is instead accepted when it leaves f flat at
        # resolution and contracts the gradient norm, which is what the
        # postcondition certifies.
        step = min(step * 2.0, 1.0)
        noise = 32.0 * np.finfo(float).eps * max(1.0, abs(fval))
        accepted = False
        while step > 1e-18:
            x_new = x - step * g
            f_new = obj.sum_f(x_new)
            decrease = 0.5 * step * gn * gn
            if decrease >= noise and f_new <= fval - decrease:
                accepted = True
                break
            if f_new <= fval + noise:
                gn_new = float(np.linalg.norm(obj.sum_grad(x_new)))
                if gn_new <= 0.999 * gn:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
        x, fval = x_new, f_new
    res = float(np.linalg.norm(obj.sum_grad(x)))
    if res > tol:
        raise CostError(f"descent stalled at gradient-sum norm {res:.3e} > {tol:.1e}")
    return MinimizerResult(x=x, residual=res, unique=True, method="descent")


def curvature_on_set(cost: CostFunction, radius: float, center: np.ndarray) -> float:
    """Gradient-Lipschitz bound for one cost over the ball B(center, radius).

    Quadratics are curvature-constant, so the bound is the top eigenvalue
    regardless of the ball.  For quartics the Hessian 4||z||^2 I + 8 z z^T
    has norm 12||z||^2, maximized on the ball boundary.
    """
    if radius < 0:
        raise CostError("radius must be nonnegative")
    center = np.asarray(center, dtype=float)
    if cost.kind == "quadratic":
        return float(np.linalg.eigvalsh(cost.quad_matrix)[-1])
    if cost.kind == "quartic":
        reach = radius + float(np.linalg.norm(center - cost.quartic_center))
        return 12.0 * reach**2
    raise CostError(f"no curvature bound for cost kind {cost.kind!r}")


@dataclass
class MfEstimate:
    """Lower estimate of restricted strong convexity at the minimizer."""

    value: float
    exact: bool
    satisfied: bool


def estimate_mf(obj: GlobalObjective, xstar: np.ndarray, samples=None) -> MfEstimate:
    """Estimate the restricted strong convexity modulus m_f at x*.

    All-quadratic objectives give the exact value min-eig of the summed
    matrices.  For quartics the sampled minimum of
    sum_i (grad f_i(x) - grad f_i(x*))^T (x - x*) / ||x - x*||^2 is a
    lower estimate only, never a certificate.  ``satisfied`` flags
    whether the estimate is strictly positive.
    """
    if obj.all_quadratic():
        evals = np.linalg.eigvalsh(obj.family.summed_system()[0])
        val = float(evals[0]) if abs(evals[0]) > 1e-12 * max(1.0, float(evals[-1])) else 0.0
        return MfEstimate(value=val, exact=True, satisfied=val > 0.0)
    if samples is None:
        raise CostError("a quartic objective needs sample points for the estimate")
    xstar = np.asarray(xstar, dtype=float)
    x = np.asarray(samples, dtype=float).reshape(-1, obj.p)
    # gradients summed in agent order, like sum_grad
    gsum = np.add.accumulate(obj.family.grad(x[:, None, :]), axis=1)[:, -1]
    d = x - xstar
    dn2 = rowdot(d, d)
    num = rowdot(gsum - obj.sum_grad(xstar), d)
    keep = dn2 >= 1e-20
    best = float(np.fmin.reduce(num[keep] / dn2[keep], initial=np.inf))  # NaN ratios skipped
    if not np.isfinite(best):
        raise CostError("no usable samples for the convexity estimate")
    return MfEstimate(value=best, exact=False, satisfied=best > 0.0)
