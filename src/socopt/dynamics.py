"""Continuous-communication agent dynamics and fixed-step integration.

Each agent is a double integrator driven by a damping term, a Laplacian
consensus term, its private cost gradient, and an integral state v that
pins the equilibrium to the global minimizer:

    dx_i = y_i
    dy_i = -gamma*y_i - alpha*beta*sum_j L_ij xhat_j - theta*v_i - alpha*grad f_i(x_i)
    dv_i =  beta*sum_j L_ij xhat_j          (with sum_i v_i(0) = 0)

with xhat = x here.  The alternative variant communicates v as well,
replacing theta*v_i with theta*sum_j L_ij v_j, and tolerates arbitrary
v(0); the event-triggered variant feeds the last broadcasts xhat and adds
the chi ODE.  ``_law`` is the one implementation of this law.

The law is autonomous, so a state is a point of phase space with no
clock: one float64 array u = [x, y, v(, chi)], the layout every
right-hand side returns its derivative in.  A trajectory owns the time
axis and stores sample k as row k of one (m, N) array.  One helper,
``_views``, binds the x, y, v and chi views of both.  All three variants
share one fixed-step loop, ``integrate``, the one writer of a run's
trajectory buffer: it samples at t = 0, h, 2h, ..., writes each step into
the next row, and hands an optional hook (where event mode processes its
triggers) the pair (t, state) over that row.  It checks for divergence
per row, before the hook, in a run with a hook, and once per block of
about sqrt(steps) rows in a run without one.  Between samples the law
reads what the hook holds only through one array, the held inputs eta
(event mode's L xhat and frozen chi bracket), which the hook rewrites in
place.  A stepper writes the rows that follow a packed u by classical
RK4, in one of two ways.  ``rk4_step`` advances u by four evaluations of
the law.  The law is affine in u and eta but for the gradient term,
u' = M u + c0 + G eta - alpha E grad f(x), with E placing the per-agent
gradients in the dy block, and ``probed_stepper`` reads M, G and c0 from
one probe of the law itself (``probe_law``) and evaluates it no more.
Since dx = y, the gradient enters only the dy block, so RK4's stage
positions pair up: stages 1 and 2 read only u, 1 and eta, and stages 3
and 4 also the first two stages' gradients g1, g2.  The step is
therefore linear in z = [u, 1, eta, g1, g2, g3, g4]: it takes the
gradients at stages 1 and 2 in one batched call, then at stages 3 and 4
in another, and returns u + F z, with the increment matrix F and both
pairs' position rows built once by running ``_rk4`` on matrices over z.
With a quadratic objective the whole law is affine, z has no gradient
blocks, and a run with no hook, whose eta never moves, takes blocks of
samples, each one product with the stacked powers of the step's
homogeneous map.  The probed form equals ``rk4_step`` up to rounding.
Its dense N x (N + 1 + k) matrix F (k held inputs, plus 4 n p gradient
columns) costs O(N^2) per product, so the routing rule ``route_for``
takes it for quadratic objectives with a packed state of at most
AFFINE_MAX_SIZE entries ("affine") and for other objectives with at most
STAGES_MAX_SIZE ("stages"), and ``rk4_step`` for larger states.  The fixed
step keeps trigger counts and trajectories exactly reproducible across
runs; the default step 0.01 is the sample length used throughout the
bundled scenarios.
"""

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .costs import GlobalObjective, QuadraticFamily
from .graph import NetworkGraph

DIVERGENCE_LIMIT = 1e12
AFFINE_MAX_SIZE = 256  # largest packed state a quadratic run steps by the probed form (see ``route_for``)
# largest packed state a non-quadratic run steps by the probed form.  On
# quartic unit rings (p = 3; 2-core x86_64, OpenBLAS SkylakeX) a probed
# step costs about as much as rk4_step's four law evaluations near N = 125
# continuous and N = 110 in event mode, and 1.7-2 times as much at N = 200,
# so this bound sits above the break-even
STAGES_MAX_SIZE = 200
# most floats the stacked powers of a hook-free affine run may hold (4 MB; see ``probed_stepper``)
POWERS_MAX_FLOATS = 2**19


class HypothesisError(ValueError):
    """A convergence hypothesis of the algorithm is violated."""


class DivergenceError(RuntimeError):
    """Some entry of the state at sample time ``t`` exceeded the divergence
    cutoff in magnitude or was not finite; ``last_state`` copies the last
    committed sample, taken at ``last_t``."""

    def __init__(self, t: float, last_t: float, last_state: "SwarmState"):
        super().__init__(f"a state entry exceeded {DIVERGENCE_LIMIT:.0e} in magnitude or was not finite at t={t:.4f}")
        self.t, self.last_t, self.last_state = t, last_t, last_state


@dataclass(frozen=True)
class GainParams:
    """Algorithm gains; all positive, with theta < alpha*gamma enforced."""

    alpha: float
    beta: float
    gamma: float
    theta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "theta"):
            if getattr(self, name) <= 0:
                raise HypothesisError(f"gain {name} must be positive, got {getattr(self, name)}")
        if self.theta >= self.alpha * self.gamma:
            raise HypothesisError(
                "gain hypothesis violated: requires theta < alpha*gamma "
                f"(theta={self.theta}, alpha*gamma={self.alpha * self.gamma})"
            )


def _views(u: np.ndarray, n: int, p: int, has_chi: bool):
    """x, y, v (..., n, p) and chi (..., n, or None) views into packed states
    u of shape (..., 3*n*p [+ n]); besides the one concatenation in
    ``SwarmState.__init__``, the only code that knows the layout [x, y, v(, chi)]."""
    blocks = u[..., : 3 * n * p].reshape(u.shape[:-1] + (3, n, p))
    return blocks[..., 0, :, :], blocks[..., 1, :, :], blocks[..., 2, :, :], u[..., 3 * n * p :] if has_chi else None


class SwarmState:
    """A point of phase space: positions x, velocities y, integral states v,
    each (n, p), and in event mode the internal variables chi (n,), bound
    once as views into one packed float64 array u."""

    __slots__ = ("u", "n", "p", "x", "y", "v", "chi")

    def __init__(self, x, y, v, chi=None):
        x, y, v = (np.asarray(a, dtype=float) for a in (x, y, v))
        if not (x.shape == y.shape == v.shape) or x.ndim != 2:
            raise ValueError("x, y, v must share one (n, p) shape")
        parts = [x.ravel(), y.ravel(), v.ravel()]
        if chi is not None:
            chi = np.asarray(chi, dtype=float)
            if chi.shape != x.shape[:1]:
                raise ValueError(f"chi must have shape {x.shape[:1]}")
            parts.append(chi)
        self.u, (self.n, self.p) = np.concatenate(parts), x.shape
        self.x, self.y, self.v, self.chi = _views(self.u, self.n, self.p, chi is not None)

    def _like(self, u: np.ndarray) -> "SwarmState":
        """A state with this one's layout over the packed array u, unchecked."""
        s = object.__new__(SwarmState)
        s.u, s.n, s.p = u, self.n, self.p
        s.x, s.y, s.v, s.chi = _views(u, self.n, self.p, self.chi is not None)
        return s


def _law(
    state: SwarmState, obj: GlobalObjective, gains: GainParams, lx: np.ndarray, coupling: np.ndarray, *extra: np.ndarray
) -> np.ndarray:
    """The packed derivative [dx, dy, dv, *extra] of the second-order law,
    given the communicated Laplacian term lx = L xhat and the v-coupling
    (v, or L v); event mode appends dchi as the extra block."""
    grads = obj.grad_stack(state.x)
    dy = -gains.gamma * state.y - gains.alpha * gains.beta * lx - gains.theta * coupling - gains.alpha * grads
    return np.concatenate((state.y.ravel(), dy.ravel(), (gains.beta * lx).ravel(), *extra))


def rhs_continuous(state: SwarmState, g: NetworkGraph, obj: GlobalObjective, gains: GainParams) -> np.ndarray:
    """Right-hand side of the continuous-communication algorithm.

    Requires sum_i v_i(0) = 0 on the trajectory for the equilibrium to sit
    at the optimum; the row sums of L keep sum_i dv_i identically zero.
    """
    return _law(state, obj, gains, g.laplacian @ state.x, state.v)


def rhs_alternative(state: SwarmState, g: NetworkGraph, obj: GlobalObjective, gains: GainParams) -> np.ndarray:
    """Variant coupling v through the Laplacian; v(0) may be arbitrary."""
    return _law(state, obj, gains, g.laplacian @ state.x, g.laplacian @ state.v)


class Trajectory:
    """Sampled trajectory, built by ``integrate``: row k of the (m, N) array
    u is the packed state at t[k], in the layout of the state ``like``, so
    x, y, v are (m, n, p) and chi (m, n) views into u.  ``stepper`` names
    the form that stepped it ("affine", "stages" or "rk4"; see ``route_for``).
    ``extras`` holds per-sample diagnostic columns by name."""

    def __init__(self, t: np.ndarray, u: np.ndarray, like: SwarmState, stepper: str | None = None):
        self.t, self.u, self.n, self.p, self.stepper = t, u, like.n, like.p, stepper
        self.x, self.y, self.v, self.chi = _views(u, like.n, like.p, like.chi is not None)
        self.extras: dict[str, np.ndarray] = {}
        self._like = like._like

    @property
    def samples(self) -> int:
        return self.t.shape[0]

    def state_at(self, k: int) -> SwarmState:
        return self._like(self.u[k].copy())

    def final_state(self) -> SwarmState:
        return self.state_at(self.samples - 1)


RhsFunc = Callable[[SwarmState], np.ndarray]
# law(state, held[, obj]): a right-hand side that also reads the held inputs eta (see ``integrate``)
Law = Callable[..., np.ndarray]
SampleHook = Callable[[float, SwarmState], None]


class Stepper(NamedTuple):
    """How a route steps: ``advance(u, rows)`` fills ``rows``, a (k, N)
    block of the trajectory buffer with 1 <= k <= ``block`` (any k when
    ``block`` is None), with the k samples that follow the packed state u."""

    advance: Callable[[np.ndarray, np.ndarray], None]
    block: int | None = None


def _row_by_row(step: Callable[[np.ndarray, np.ndarray], None]) -> Stepper:
    """The Stepper of a one-row step ``step(u, row)``, which writes the
    sample after the packed state u into ``row``: it fills any number of
    rows, each from the one before."""

    def advance(u: np.ndarray, rows: np.ndarray) -> None:
        for row in rows:
            step(u, row)
            u = row

    return Stepper(advance)


def _rk4(f: Callable[[np.ndarray], np.ndarray], u: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4's increment (h/6)(k1 + 2 k2 + 2 k3 + k4) for a field f,
    from u; the one place its tableau is written.  f sees the four stage
    points in order; u may be a packed state, or a matrix whose columns
    are packed states, for a field that is linear in them."""
    k1 = f(u)
    k2 = f(u + (0.5 * h) * k1)
    k3 = f(u + (0.5 * h) * k2)
    k4 = f(u + h * k3)
    return (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_step(rhs: RhsFunc, state: SwarmState, h: float) -> np.ndarray:
    """One classical 4th-order step of the packed state, chi included
    when the state carries it; returns the next packed u."""
    return state.u + _rk4(lambda u: rhs(state._like(u)), state.u, h)


class Route(NamedTuple):
    """How ``integrate`` steps a run: ``form`` is "affine" (the probed form
    with no gradient columns), "stages" (the probed form, reading the
    gradient term from ``obj`` and ``gains``) or "rk4"."""

    form: str
    obj: GlobalObjective
    gains: GainParams


def route_for(obj: GlobalObjective, gains: GainParams, size: int) -> Route:
    """The routing rule for a run of packed state size ``size``: the probed
    form with no gradient columns ("affine") when the law is affine in u
    (a quadratic objective) and size <= AFFINE_MAX_SIZE, the probed form
    with them ("stages") for other objectives and size <= STAGES_MAX_SIZE,
    and ``rk4_step`` otherwise."""
    if obj.all_quadratic():
        form = "affine" if size <= AFFINE_MAX_SIZE else "rk4"
    else:
        form = "stages" if size <= STAGES_MAX_SIZE else "rk4"
    return Route(form, obj, gains)


def whole_steps(step: float, horizon: float) -> bool:
    """Whether ``horizon`` is a whole number of steps, to 1e-9 relative
    (the test of both the config loader and ``integrate``); false when the
    number of steps is not finite."""
    steps = horizon / step
    return bool(np.isfinite(steps)) and abs(steps - round(steps)) <= 1e-9 * max(1.0, steps)


def probe_law(law: Law, like: SwarmState, size: int, *obj: GlobalObjective) -> tuple[np.ndarray, np.ndarray]:
    """(J, c0) of a law that is affine in the packed state u and its
    ``size`` held inputs eta, law(u, eta[, obj]) = M u + G eta + c0 with
    J = [M | G], from N + size + 1 evaluations: c0 at (u, eta) = 0 and
    column j as the law at the j-th unit vector of [u; eta], less c0.
    ``like`` gives the layout of the probe states, and ``obj``, if given,
    is passed to the law as its objective."""
    N = like.u.size

    def f(v: np.ndarray) -> np.ndarray:
        return law(like._like(v[:N]), v[N:], *obj)

    c0 = f(np.zeros(N + size))
    J = np.empty((N, N + size))
    for j, e in enumerate(np.eye(N + size)):
        J[:, j] = f(e) - c0
    return J, c0


def _flat(like: SwarmState) -> GlobalObjective:
    """n zero quadratics in dimension p, in the layout of ``like``: with
    it the law has no gradient term."""
    n, p = like.n, like.p
    return GlobalObjective(QuadraticFamily(np.zeros((n, p, p)), np.zeros((n, p)), np.zeros((n, p))))


def _sqrt_block(steps: int) -> int:
    """ceil(sqrt(steps)): the rows a hook-free run of ``steps`` steps
    fills between two divergence checks, at most ``steps`` (see
    ``integrate``)."""
    return math.isqrt(steps - 1) + 1


def _powers_block(size: int, steps: int) -> int:
    """B, the samples a hook-free affine run takes per product: about
    sqrt(steps) (``_sqrt_block``), which balances stacking B powers once
    against one product and one divergence check per block; at most what
    POWERS_MAX_FLOATS allows for B powers of size x (size + 1)."""
    return max(1, min(_sqrt_block(steps), POWERS_MAX_FLOATS // (size * (size + 1))))


def probed_stepper(
    law: Law, like: SwarmState, h: float, held: np.ndarray, varying: bool, route: Route, steps: int
) -> Stepper:
    """Classical RK4 on the law through its probed affine part, as matrix
    products and, for a non-quadratic objective, two batched gradient
    calls per step; the law is evaluated only by the probe.

    The law is affine in u and in the held inputs eta (``held``) but for
    its gradient term: u' = M u + c0 + G eta - alpha E g, with g the
    gradient at x placed in the dy block by E.  One ``probe_law`` gives
    M, G and c0: on the "affine" route (a quadratic objective) with the
    run's own objective, so that the whole law is affine and there is no
    g, and on the "stages" route with ``_flat``, for which
    ``law(state, eta, objective)`` evaluates the law with the objective
    given.  RK4's step is then linear in z = [u, 1, eta, g1, g2, g3, g4],
    g_k the gradient at stage k's x, with no g blocks on the affine route.
    Running ``_rk4`` once on matrices over z gives the increment matrix F
    and each stage's x rows; since dx = y, stages 1 and 2 read only
    [u, 1, eta] (rows A) and stages 3 and 4 only [u, 1, eta, g1, g2]
    (rows B).  A step writes u and eta, as a hook may have rewritten it,
    into z, evaluates (g1, g2) at A z, then (g3, g4) at B z, each as one
    ``family.grad`` call on a (2, n, p) stack, and writes u + F z, which
    is ``rk4_step``'s step up to rounding.  (Returning [I | F] z instead
    lets the gap to ``rk4_step`` grow with the step count.)  Its
    ``Stepper`` fills rows one step at a time.  An affine run that is not
    ``varying`` (no hook, so eta is fixed) steps the homogeneous map
    H = [I + F_u, b; 0, 1] instead, with F_u the u columns of F and
    b = F_{[1; eta]} [1; eta]: sample j after u is H^j [u; 1], the top
    rows of H^1 ... H^B (B = ``_powers_block`` of ``steps``) are stacked
    once, and a block of up to B samples is one product."""
    n, p = like.n, like.p
    w, N = n * p, like.u.size
    gradient = route.form != "affine"
    J, c0 = probe_law(law, like, held.size, *((_flat(like),) if gradient else ()))
    g0 = N + 1 + held.size  # the first g column of z
    # stage k's field over z is M V, plus [c0 | G] on the [1; eta]
    # columns, less alpha times its own g block in the dy rows
    M, C = J[:, :N], np.column_stack((c0, J[:, N:]))
    points = []

    def field(V: np.ndarray) -> np.ndarray:
        k = len(points)
        points.append(V[:w])
        K = M @ V
        K[:, N:g0] += C
        if gradient:
            K[w : 2 * w, g0 + k * w : g0 + (k + 1) * w] -= route.gains.alpha * np.eye(w)
        return K

    F = _rk4(field, np.eye(N, g0 + 4 * w * gradient), h)
    z = np.ones(F.shape[1])
    zu, zeta = z[:N], z[N + 1 : g0]
    zeta[:] = held

    if not (gradient or varying):
        block = _powers_block(N, steps)
        R = np.eye(N) + F[:, :N]
        powers = np.empty((block, N, N + 1))
        powers[0, :, :N], powers[0, :, N] = R, F[:, N:] @ z[N:]
        for j in range(1, block):
            np.matmul(R, powers[j - 1], out=powers[j])
            powers[j, :, N] += powers[0, :, N]
        stacked, zc = powers.reshape(block * N, N + 1), z[: N + 1]  # zc = [u; 1]

        def steps_block(u: np.ndarray, rows: np.ndarray) -> None:
            zu[:] = u
            np.matmul(stacked[: rows.size], zc, out=rows.reshape(-1))

        return Stepper(steps_block, block)

    if gradient:
        A, B = np.vstack(points[:2]), np.vstack(points[2:])
        assert not A[:, g0:].any() and not B[:, g0 + 2 * w :].any(), "a stage's x reads a gradient it precedes"
        A, B = A[:, :g0], B[:, : g0 + 2 * w]
        grad = route.obj.family.grad
        # views of z: the inputs of each pair's positions, and each gradient pair as a (2, n, p) stack
        za, zb = z[:g0], z[: g0 + 2 * w]
        g12, g34 = z[g0 : g0 + 2 * w].reshape(2, n, p), z[g0 + 2 * w :].reshape(2, n, p)

    def step(u: np.ndarray, row: np.ndarray) -> None:
        zu[:] = u
        zeta[:] = held
        if gradient:
            g12[:] = grad((A @ za).reshape(2, n, p))
            g34[:] = grad((B @ zb).reshape(2, n, p))
        np.add(u, F @ z, out=row)

    return _row_by_row(step)


def integrate(
    rhs: Callable[..., np.ndarray],
    initial: SwarmState,
    step: float,
    horizon: float,
    on_sample: SampleHook | None = None,
    route: Route | None = None,
    held: np.ndarray | None = None,
) -> Trajectory:
    """Fixed-step integration sampling at t = 0, h, 2h, ..., horizon, a
    whole number of steps.

    The returned trajectory owns the time axis and is the run's one
    buffer: ``initial`` is copied into row 0 and each step's next packed
    u into the next row.  ``on_sample``, if given, is called as
    ``on_sample(t[k], state)`` with a state over every committed row
    (including t = 0) before the next step starts from it.  ``held``, if
    given, is the array of held inputs eta that the hook rewrites in
    place, and the law is ``rhs(state, held)``; otherwise it is
    ``rhs(state)``.  ``route`` (from ``route_for``) picks the stepper,
    built after the t = 0 hook: the probed form (``probed_stepper``),
    asserting that the law is affine in u and in eta, and on the "stages"
    route that ``rhs(state[, held], obj)`` also evaluates the law with the
    objective ``obj`` in place of the run's; or, on the "rk4" route and
    without a route, ``rk4_step``.  With a hook every step takes one row,
    reading eta as the hook left it, and each row is checked for
    divergence before the hook sees it.  Without one, divergence is
    checked once per block of rows: a hook-free affine run's block of rows
    per product, or ceil(sqrt(steps)) one-row steps otherwise
    (``_sqrt_block``).
    Raises DivergenceError, carrying a copy of the row before it, at the
    first row in which any entry is non-finite or exceeds the divergence
    cutoff in magnitude; a block's later rows are discarded.  numpy's
    floating-point warnings are silenced while a hook-free run steps: an
    overflow or invalid operation leaves a non-finite entry, which the
    check reports.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if horizon < step:
        raise ValueError("horizon must be at least one step")
    if not whole_steps(step, horizon):
        raise ValueError(f"horizon {horizon} is not a whole number of steps of {step}")
    m = int(round(horizon / step)) + 1
    us = np.empty((m, initial.u.size))
    form = "rk4" if route is None else route.form
    traj = Trajectory(step * np.arange(m), us, initial, form)
    us[0] = initial.u
    like = initial._like
    if held is None:
        law, held = (lambda s, _eta, *obj: rhs(s, *obj)), np.empty(0)
    else:
        law = rhs
    if on_sample is not None:
        on_sample(0.0, like(us[0]))
    varying = on_sample is not None
    if form == "rk4":

        def rk4_row(u: np.ndarray, row: np.ndarray) -> None:
            row[:] = rk4_step(lambda s: law(s, held), like(u), step)

        stepper = _row_by_row(rk4_row)
    else:
        stepper = probed_stepper(law, initial, step, held, varying, route, m - 1)
    advance, block = stepper
    span = 1 if varying else block or _sqrt_block(m - 1)  # rows per divergence check
    # a hook-free block may step on past its first offending row, whose
    # overflow warnings would only describe rows the error discards
    with contextlib.nullcontext() if varying else np.errstate(all="ignore"):
        for k in range(1, m, span):
            rows = us[k : k + span]
            advance(us[k - 1], rows)
            if not np.abs(rows).max() <= DIVERGENCE_LIMIT:  # also catches NaN
                k += int(np.argmin(np.abs(rows).max(axis=1) <= DIVERGENCE_LIMIT))  # the first offending row
                raise DivergenceError(float(traj.t[k]), float(traj.t[k - 1]), like(us[k - 1].copy()))
            if varying:
                on_sample(float(traj.t[k]), like(rows[0]))
    return traj


class EquilibriumResidual(NamedTuple):
    r_y: float
    r_grad: float
    r_consensus: float


def equilibrium_residual(
    state: SwarmState, g: NetworkGraph, obj: GlobalObjective, gains: GainParams
) -> EquilibriumResidual:
    """How far a state is from satisfying the stationarity conditions
    y = 0, theta*v + alpha*grad f(x) = 0, and (L kron I) x = 0."""
    grads = obj.grad_stack(state.x)
    return EquilibriumResidual(
        r_y=float(np.linalg.norm(state.y)),
        r_grad=float(np.linalg.norm(gains.theta * state.v + gains.alpha * grads)),
        r_consensus=float(np.linalg.norm(g.laplacian @ state.x)),
    )


def v_balance_violation(traj: Trajectory) -> float:
    """Worst componentwise |sum_i v_i(t) - sum_i v_i(0)| / (1 + t) along a
    trajectory.

    Every variant conserves sum_i v_i exactly in exact arithmetic; this
    measures the floating-point drift relative to the linear-in-time
    allowance used by the checks.
    """
    sums = traj.v.sum(axis=1)  # (m, p)
    return float((np.abs(sums - sums[0]) / (1.0 + traj.t)[:, None]).max())
