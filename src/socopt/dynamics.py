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
triggers) the pair (t, state) over that row.  Between samples the law
reads what the hook holds only through one array, the held inputs eta
(event mode's L xhat and frozen chi bracket), which the hook rewrites in
place.  A stepper writes the rows that follow a packed u by classical
RK4, in one of three forms.  ``rk4_step`` advances u by four evaluations
of the law.  The law is affine in u and eta but for the gradient term,
u' = M u + c0 + G eta - alpha E grad f(x), with E placing the per-agent
gradients in the dy block, and the two other forms probe M, c0 and G
from the law itself (``probe_affine``, ``probe_held``) and evaluate it no
more.  With a quadratic objective the whole law is affine, and RK4 on it
is exactly u <- R(hM) u + S(hM) c for RK4's stability polynomials R and
S: ``affine_stepper`` takes each step as that one matrix step, with
c = c0 + G eta formed from the held inputs as they stand, and a run with
no hook, whose c never moves, as blocks of samples, each one product
with the stacked powers of the step's homogeneous map.  Otherwise
``stage_stepper`` probes the law with a zero-gradient objective.  Since
dx = y, the gradient enters only the dy block, so RK4's stage positions
pair up: stages 1 and 2 read only u and c, and stages 3 and 4 only u, c
and the first two stages' gradients g1, g2.  The step is therefore linear
in z = [u, c, g1, g2, g3, g4]: it takes the gradients at stages 1 and 2
in one batched call, then at stages 3 and 4 in another, and returns
u + F z, with the increment matrix F and both pairs' position rows built
once by running ``_rk4`` on matrices over z.  (Returning [I | F] z instead
lets the gap to ``rk4_step`` grow with the step count.)  Both forms equal
``rk4_step`` up to rounding.  The probe's dense N x N matrix costs O(N^2)
per product and R and S O(N^3) once, so the routing rule ``route_for``
takes the propagator for quadratic objectives with a packed state of at
most AFFINE_MAX_SIZE entries, the stage form for other objectives with
at most STAGES_MAX_SIZE, and ``rk4_step`` for larger states.  The fixed
step keeps trigger counts and trajectories exactly reproducible across
runs; the default step 0.01 is the sample length used throughout the
bundled scenarios.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .costs import GlobalObjective, QuadraticFamily
from .graph import NetworkGraph

DIVERGENCE_LIMIT = 1e12
AFFINE_MAX_SIZE = 256  # largest packed state the affine propagator takes (see ``route_for``)
# largest packed state the stage form takes: past about N = 200 its dense
# products per step cost more than rk4_step's four law evaluations when the
# constant term moves every step (event mode, whose c block then spans N
# columns; measured on quartic rings, p = 3); with a fixed constant term
# the break-even is near 240
STAGES_MAX_SIZE = 200
# most floats the stacked powers of a hook-free affine run may hold (4 MB; see ``affine_stepper``)
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
    block of the trajectory buffer with 1 <= k <= ``block``, with the k
    samples that follow the packed state u."""

    advance: Callable[[np.ndarray, np.ndarray], None]
    block: int = 1


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
    """How ``integrate`` steps a run: ``form`` is "affine", "stages" or
    "rk4"; the stage form reads the gradient term from ``obj`` and
    ``gains``."""

    form: str
    obj: GlobalObjective
    gains: GainParams


def route_for(obj: GlobalObjective, gains: GainParams, size: int) -> Route:
    """The routing rule for a run of packed state size ``size``: the affine
    propagator when the law is affine in u (a quadratic objective) and
    size <= AFFINE_MAX_SIZE, the stage form for other objectives and
    size <= STAGES_MAX_SIZE, and ``rk4_step`` otherwise."""
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


def _columns(f: Callable[[np.ndarray], np.ndarray], size: int) -> tuple[np.ndarray, np.ndarray]:
    """(J, f(0)) of a map f that is affine in a vector of ``size`` entries,
    from size + 1 evaluations: column j of J is f(e_j) - f(0)."""
    base = f(np.zeros(size))
    J = np.empty((base.size, size))
    for j, e in enumerate(np.eye(size)):
        J[:, j] = f(e) - base
    return J, base


def probe_affine(rhs: RhsFunc, like: SwarmState) -> tuple[np.ndarray, np.ndarray]:
    """(M, c) of a right-hand side that is affine in u, rhs(u) = M u + c,
    from N + 1 evaluations: c at u = 0 and column j of M as rhs(e_j) - c.
    ``like`` gives the layout of the probe states."""
    return _columns(lambda u: rhs(like._like(u)), like.u.size)


def _flat(like: SwarmState) -> GlobalObjective:
    """n zero quadratics in dimension p, in the layout of ``like``: with
    it the law has no gradient term."""
    n, p = like.n, like.p
    return GlobalObjective(QuadraticFamily(np.zeros((n, p, p)), np.zeros((n, p)), np.zeros((n, p))))


def probe_held(law: Law, like: SwarmState, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(G, c) of a law at u = 0 as a map of its ``size`` held inputs eta,
    law(0, eta, flat) = c + G eta under the zero-gradient objective.
    There each entry of the law is one gain times one entry of eta, so G
    holds the gains exactly as the law writes them (-alpha*beta in the dy
    rows, beta in the dv rows, -delta_i in the chi rows, 0 elsewhere) and
    c is zero.  G eta therefore rounds like the law's own products, and
    with c0 the law at (u, eta) = 0 under any objective, c0 + G eta is
    the law at u = 0 bit for bit."""
    zero = like._like(np.zeros(like.u.size))
    flat = _flat(like)
    return _columns(lambda eta: law(zero, eta, flat), size)


def _powers_block(size: int, steps: int) -> int:
    """B, the samples a hook-free affine run takes per product: about
    sqrt(steps), which balances stacking B powers once against one
    product and one divergence check per block; at most ``steps``, and at
    most what POWERS_MAX_FLOATS allows for B powers of size x (size + 1)."""
    return max(1, min(math.isqrt(steps - 1) + 1, POWERS_MAX_FLOATS // (size * (size + 1))))


def affine_stepper(law: Law, like: SwarmState, h: float, held: np.ndarray, varying: bool, steps: int) -> Stepper:
    """Classical RK4 on an affine law u' = M u + c, whose constant term
    c = c0 + G eta is affine in the held inputs eta (``held``), as matrix
    products; the law is evaluated only by the probes.

    M is probed once from ``law(state, held)`` (``probe_affine``), c0 is
    the law at (u, eta) = 0 and G its columns over eta (``probe_held``).
    One RK4 step is then exactly u <- R u + S c, with R = I + hM P and
    S = h P, P = I + hM/2 (I + hM/3 (I + hM/4)) by Horner's rule (RK4's
    stability polynomials).  When ``varying``, a hook may rewrite
    ``held`` between steps, so each step forms c = c0 + G eta from the
    array as it stands and returns one row.  Otherwise c is fixed, and
    sample j after u is A^j [u; 1] for the homogeneous map
    A = [R, S c; 0, 1]: the top rows [R^j | sum_{i<j} R^i S c] of
    A^1 ... A^B (B = ``_powers_block`` of ``steps``) are stacked once, and
    a block of up to B samples is one product."""
    N = like.u.size
    M = probe_affine(lambda s: law(s, held), like)[0]
    c0 = law(like._like(np.zeros(N)), np.zeros(held.size))
    G = probe_held(law, like, held.size)[0]
    eye = np.eye(N)
    hM = h * M
    P = eye + (hM / 2.0) @ (eye + (hM / 3.0) @ (eye + hM / 4.0))
    R, S = eye + hM @ P, h * P

    if varying:

        def step(u: np.ndarray, rows: np.ndarray) -> None:
            rows[0] = R @ u + S @ (c0 + G @ held)

        return Stepper(step)

    block = _powers_block(N, steps)
    powers = np.empty((block, N, N + 1))
    powers[0, :, :N], powers[0, :, N] = R, S @ (c0 + G @ held)
    for j in range(1, block):
        np.matmul(R, powers[j - 1], out=powers[j])
        powers[j, :, N] += powers[0, :, N]
    stacked = powers.reshape(block * N, N + 1)
    z = np.ones(N + 1)

    def steps_block(u: np.ndarray, rows: np.ndarray) -> None:
        z[:N] = u
        np.matmul(stacked[: rows.size], z, out=rows.reshape(-1))

    return Stepper(steps_block, block)


def stage_stepper(
    law: Law, like: SwarmState, h: float, held: np.ndarray, varying: bool, obj: GlobalObjective, alpha: float
) -> Stepper:
    """One classical RK4 step of the law through its probed linear part,
    as two batched gradient calls and three matrix products.

    ``law(state, held, objective)`` evaluates the law with the objective
    given; with a zero-gradient one it is affine in u, and
    ``probe_affine`` gives its (M, c) once.  The law is then
    u' = M u + c - alpha E g, with g the gradient at x placed in the dy
    block by E, so RK4's step is linear in z = [u, c, g1, g2, g3, g4],
    g_k the gradient at stage k's x.  Running ``_rk4`` once on matrices
    over z gives the increment matrix F and each stage's x rows; since
    dx = y, stages 1 and 2 read only (u, c) (rows A) and stages 3 and 4
    only (u, c, g1, g2) (rows B).  A step evaluates (g1, g2) at A [u, c],
    then (g3, g4) at B [u, c, g1, g2], each as one ``family.grad`` call
    on a (2, n, p) stack, and returns u + F z, which is ``rk4_step``'s
    step up to rounding.  When ``varying``, a hook may rewrite the held
    inputs eta (``held``) between steps, and each step reads c as
    c0 + G eta from ``probe_held``, the zero-gradient law at u = 0 bit for
    bit, into an N-entry c block of z; otherwise z carries c as the
    single entry 1, with column c, which keeps F narrower.  Returns a
    one-row ``Stepper``."""
    n, p = like.n, like.p
    w, N = n * p, like.u.size
    flat = _flat(like)
    M, c = probe_affine(lambda s: law(s, held, flat), like)
    if varying:
        G, c0 = probe_held(law, like, held.size)
    grad = obj.family.grad
    # stage k's field over z is M V + C on the c block, less alpha times
    # its own g block in the dy rows
    C = np.eye(N) if varying else c[:, None]
    g0 = N + C.shape[1]
    points = []

    def field(V: np.ndarray) -> np.ndarray:
        k = len(points)
        points.append(V[:w])
        K = M @ V
        K[:, N:g0] += C
        K[w : 2 * w, g0 + k * w : g0 + (k + 1) * w] -= alpha * np.eye(w)
        return K

    F = _rk4(field, np.eye(N, g0 + 4 * w), h)
    A, B = np.vstack(points[:2]), np.vstack(points[2:])
    assert not A[:, g0:].any() and not B[:, g0 + 2 * w :].any(), "a stage's x reads a gradient it precedes"
    A, B = A[:, :g0], B[:, : g0 + 2 * w]
    z = np.ones(F.shape[1])

    def step(u: np.ndarray, rows: np.ndarray) -> None:
        z[:N] = u
        if varying:
            np.add(c0, G @ held, out=z[N:g0])
        z[g0 : g0 + 2 * w] = grad((A @ z[:g0]).reshape(2, n, p)).ravel()
        z[g0 + 2 * w :] = grad((B @ z[: g0 + 2 * w]).reshape(2, n, p)).ravel()
        rows[0] = u + F @ z

    return Stepper(step)


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
    built after the t = 0 hook: the affine propagator, asserting that the
    law is affine in u and in eta; the stage form, for which
    ``rhs(state[, held], obj)`` also evaluates the law with the objective
    ``obj`` in place of the run's; or, without a route, ``rk4_step``.
    With a hook every step takes one row and the propagator reads the
    constant term from eta; without one, the propagator takes a block of
    rows per product.  Raises DivergenceError, carrying a copy of the last
    finite sample, at the first row in which any entry is non-finite or
    exceeds the divergence cutoff in magnitude.
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
    if form == "affine":
        stepper = affine_stepper(law, initial, step, held, varying, m - 1)
    elif form == "stages":
        stepper = stage_stepper(law, initial, step, held, varying, route.obj, route.gains.alpha)
    else:

        def rk4_row(u: np.ndarray, rows: np.ndarray) -> None:
            rows[0] = rk4_step(lambda s: law(s, held), like(u), step)

        stepper = Stepper(rk4_row)
    advance, block = stepper
    for k in range(1, m, block):
        rows = us[k : k + block]
        advance(us[k - 1], rows)
        if not np.abs(rows).max() <= DIVERGENCE_LIMIT:  # also catches NaN
            k += int(np.argmin(np.abs(rows).max(axis=1) <= DIVERGENCE_LIMIT))  # the first offending row
            raise DivergenceError(float(traj.t[k]), float(traj.t[k - 1]), like(us[k - 1].copy()))
        if on_sample is not None:
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
