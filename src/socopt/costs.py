"""Private convex costs, stacked per objective, and curvature oracles.

Two built-in families cover the simulation scenarios: quadratic costs, in
shift form 0.5*(x-a)^T A (x-a) or linear form 0.5*x^T C x + a^T x, and
quartic costs ||x-b||^4.

An objective is one ``GlobalObjective``: the costs of all agents stacked
into a ``QuadraticFamily`` or ``QuarticFamily``, which evaluates every
agent's gradient and value in one array expression, plus each agent's
global gradient-Lipschitz modulus when the costs have one.  Every
batched row inner product in the package is a ``rowdot``, which rounds
like a per-agent loop.

The module also provides the oracles the run and its certificates are
built on: the global-minimizer solve, curvature bounds on balls, and the
exact restricted strong convexity modulus m_f of either family.
"""

from dataclasses import dataclass

import numpy as np


class CostError(ValueError):
    """Invalid cost definition or a cost violating a precondition."""


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row inner products a_k . b_k over the last axis, leading axes
    broadcast.  Each is a 1 x p by p x 1 matmul, so it rounds like the
    per-row ``a_k @ b_k`` of a loop; ``(a * b).sum(-1)`` does not."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


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
        matmuls round like per-agent products."""
        return np.matmul(self.A, (x - self.a)[:, :, None])[:, :, 0] + self.b

    def f(self, x: np.ndarray) -> np.ndarray:
        """Per-agent values at positions x of shape (..., n, p) or (p,), as
        (..., n), in the per-agent evaluation order 0.5*d @ A @ d + b @ x."""
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


@dataclass
class GlobalObjective:
    """Sum of private costs, one per agent, as one stacked family.

    Every evaluation goes through ``family``.  ``global_lipschitz`` holds
    each agent's global gradient-Lipschitz modulus (n,), or is None when
    the costs have none (quartics without an override).
    """

    family: QuadraticFamily | QuarticFamily
    global_lipschitz: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self._centers().shape[0]

    @property
    def p(self) -> int:
        return self._centers().shape[1]

    def _centers(self) -> np.ndarray:
        return self.family.a if self.all_quadratic() else self.family.B

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
        agent index order like a loop over the agents (``sum(axis=0)``
        switches to pairwise summation when p = 1)."""
        return np.add.accumulate(self.family.grad(z), axis=0)[-1]

    def sum_f(self, z: np.ndarray) -> float:
        """Value of the global objective at a single point z, summed in
        agent index order like a loop over the agents."""
        return float(sum(self.family.f(z).tolist()))


def quadratic_family(matrices, shifts=None, linear_terms=None) -> GlobalObjective:
    """The objective of quadratic costs, one per matrix.

    With ``shifts``: f_i = 0.5*(x - a_i)^T A_i (x - a_i).
    With ``linear_terms``: f_i = 0.5*x^T C_i x + a_i^T x.
    Matrices must be symmetric positive semi-definite; a violation is
    rejected naming the first offending agent (1-based), with the
    asymmetry or the eigenvalues in the message.  Each agent's global
    modulus is the top eigenvalue of its matrix.
    """
    if (shifts is None) == (linear_terms is None):
        raise CostError("provide exactly one of shifts or linear_terms")
    A = np.array(matrices, dtype=float, order="C")
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise CostError(f"expected a stack of square matrices, got shape {A.shape}")
    v = np.array(shifts if shifts is not None else linear_terms, dtype=float, order="C")
    if len(v) != len(A):
        raise CostError(f"{len(A)} matrices but {len(v)} vectors")
    v = v.reshape(len(A), -1)
    if v.shape[1] != A.shape[1]:
        raise CostError(f"vector length {v.shape[1]} does not match matrix size {A.shape[1]}")

    evals = np.linalg.eigvalsh(A)  # (n, p), ascending per agent
    asym = np.abs(A - A.transpose(0, 2, 1)).max(axis=(1, 2))
    bad = np.flatnonzero(asym > 1e-12 * np.maximum(1.0, np.abs(A).max(axis=(1, 2))))
    if bad.size:
        i = bad[0]
        raise CostError(f"quadratic matrix of agent {i + 1} is asymmetric (max |A - A^T| = {asym[i]:.3e})")
    bad = np.flatnonzero(evals[:, 0] < -1e-10 * np.maximum(1.0, evals[:, -1]))
    if bad.size:
        i = bad[0]
        raise CostError(
            f"quadratic matrix of agent {i + 1} is indefinite; "
            f"eigenvalues {np.array2string(evals[i], precision=6)}"
        )
    zeros = np.zeros_like(v)
    a, b = (v, zeros) if shifts is not None else (zeros, v)
    return GlobalObjective(QuadraticFamily(A=A, a=a, b=b), global_lipschitz=evals[:, -1])


def quartic_family(centers) -> GlobalObjective:
    """The objective of quartic costs f_i = ||x - b_i||^4, grad = 4||x-b||^2 (x-b).

    Quartics are not globally gradient-Lipschitz, so ``global_lipschitz``
    stays None; event-triggered runs must supply an explicit override.
    """
    B = np.array(centers, dtype=float, order="C")
    return GlobalObjective(QuarticFamily(B=B.reshape(B.shape[0], -1)))


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


def curvature_on_set(obj: GlobalObjective, radius: float, center: np.ndarray) -> float:
    """Gradient-Lipschitz bound over the ball B(center, radius), the
    maximum over the agents' costs.

    Quadratics are curvature-constant, so the bound is the largest top
    eigenvalue of the matrices regardless of the ball (not an override of
    ``global_lipschitz``).  For a quartic the Hessian 4||z||^2 I + 8 z z^T
    has norm 12||z||^2, maximized on the ball boundary.
    """
    if radius < 0:
        raise CostError("radius must be nonnegative")
    if obj.all_quadratic():
        return float(np.linalg.eigvalsh(obj.family.A)[:, -1].max())
    d = np.asarray(center, dtype=float) - obj.family.B
    reach = radius + np.sqrt(rowdot(d, d))
    return float((12.0 * reach**2).max())


def _min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric matrix M, or 0 when it lies
    within 1e-12 * max(1, top eigenvalue) of zero."""
    evals = np.linalg.eigvalsh(M)
    return float(evals[0]) if abs(evals[0]) > 1e-12 * max(1.0, float(evals[-1])) else 0.0


def estimate_mf(obj: GlobalObjective, xstar: np.ndarray) -> float:
    """The restricted strong convexity modulus m_f of the summed objective
    f at x*, exactly: the infimum over z != x* of
    (grad f(z) - grad f(x*)) . (z - x*) / ||z - x*||^2.

    Quadratics: the smallest eigenvalue of sum_i A_i.  Quartics
    f_i = ||x - c_i||^4: with d_i = x* - c_i and z = x* + s u, u a unit
    vector, grad f_i(z) = 4 ||d_i + s u||^2 (d_i + s u), so the ratio along
    the line is exactly u^T H u + 12 s (w . u) + 4n s^2, where
    H = 4 (sum_i ||d_i||^2) I + 8 sum_i d_i d_i^T and w = sum_i d_i.  Its
    minimum over s, at s = -3 (w . u) / (2n), is u^T (H - (9/n) w w^T) u,
    so m_f = lambda_min(H - (9/n) w w^T).  An eigenvalue within
    1e-12 * max(1, lambda_max) of zero reads as 0 for both kinds.

    The ratio subtracts grad f(x*), so the identity holds at any x*, not
    only a stationary one: m_f is exact at the x^ a run uses.  Against the
    true minimizer x^ - delta, every d_i moves by delta and the matrix by
    (8 w . delta + 4n ||delta||^2) I - (w delta^T + delta w^T) - n delta delta^T
    (w at the minimizer), so by Weyl's inequality m_f moves by at most
    10 ||w|| ||delta|| + 5n ||delta||^2; restricted strong convexity bounds
    ||delta|| <= ||sum_i grad f_i(x^)|| / m_f.
    """
    if obj.all_quadratic():
        return _min_eig(obj.family.summed_system()[0])
    d = np.asarray(xstar, dtype=float) - obj.family.B
    w = d.sum(axis=0)
    H = 4.0 * float((d * d).sum()) * np.eye(obj.p) + 8.0 * (d.T @ d)
    return _min_eig(H - (9.0 / obj.n) * np.outer(w, w))
