"""Continuous-communication agent dynamics and fixed-step integration.

Each agent is a double integrator driven by a damping term, a Laplacian
consensus term, its private cost gradient, and an integral state v that
pins the equilibrium to the global minimizer:

    dx_i = y_i
    dy_i = -gamma*y_i - alpha*beta*sum_j L_ij x_j - theta*v_i - alpha*grad f_i(x_i)
    dv_i =  beta*sum_j L_ij x_j          (with sum_i v_i(0) = 0)

The alternative variant communicates v as well, replacing theta*v_i with
theta*sum_j L_ij v_j, and tolerates arbitrary v(0).

All three variants share one classical 4th-order stepper, ``rk4_step``,
and one fixed-step loop, ``integrate``.  A state may carry the per-agent
internal variables chi of the event-triggered variant; the stepper then
advances them with the rest.  The loop calls an optional hook at every
committed sample, which is where event mode processes its triggers.  The
fixed step keeps trigger counts and trajectories exactly reproducible
across runs; the default step 0.01 is the sample length used throughout
the bundled scenarios.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .costs import GlobalObjective
from .graph import NetworkGraph

DIVERGENCE_LIMIT = 1e12


class HypothesisError(ValueError):
    """A convergence hypothesis of the algorithm is violated."""


class DivergenceError(RuntimeError):
    """State norm exceeded the divergence cutoff during integration."""

    def __init__(self, t: float, last_state: "SwarmState"):
        super().__init__(f"state norm exceeded {DIVERGENCE_LIMIT:.0e} at t={t:.4f}")
        self.t = t
        self.last_state = last_state


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


@dataclass
class SwarmState:
    """Stacked agent states at one instant: positions x, velocities y,
    integral states v, each of shape (n, p), and in event mode the
    internal variables chi, shape (n,)."""

    t: float
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    chi: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if not (self.x.shape == self.y.shape == self.v.shape) or self.x.ndim != 2:
            raise ValueError("x, y, v must share shape (n, p)")
        if self.chi is not None:
            self.chi = np.asarray(self.chi, dtype=float)
            if self.chi.shape != (self.x.shape[0],):
                raise ValueError("chi must have shape (n,)")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def copy(self) -> "SwarmState":
        chi = None if self.chi is None else self.chi.copy()
        return SwarmState(self.t, self.x.copy(), self.y.copy(), self.v.copy(), chi)

    def norm(self) -> float:
        """Largest |entry| over every state array; NaN if any entry is NaN."""
        arrays = (self.x, self.y, self.v) if self.chi is None else (self.x, self.y, self.v, self.chi)
        return float(np.max([np.abs(a).max() for a in arrays]))


@dataclass(frozen=True)
class AgentDerivatives:
    """Time derivatives of the stacked states; dchi is set exactly when
    the state carries chi."""

    dx: np.ndarray
    dy: np.ndarray
    dv: np.ndarray
    dchi: np.ndarray | None = None


def rhs_continuous(
    state: SwarmState, g: NetworkGraph, obj: GlobalObjective, gains: GainParams
) -> AgentDerivatives:
    """Right-hand side of the continuous-communication algorithm.

    Requires sum_i v_i(0) = 0 on the trajectory for the equilibrium to sit
    at the optimum; the row sums of L keep sum_i dv_i identically zero.
    """
    grads = obj.grad_stack(state.x)
    Lx = g.laplacian @ state.x
    dy = -gains.gamma * state.y - gains.alpha * gains.beta * Lx - gains.theta * state.v - gains.alpha * grads
    return AgentDerivatives(dx=state.y, dy=dy, dv=gains.beta * Lx)


def rhs_alternative(
    state: SwarmState, g: NetworkGraph, obj: GlobalObjective, gains: GainParams
) -> AgentDerivatives:
    """Variant coupling v through the Laplacian; v(0) may be arbitrary."""
    grads = obj.grad_stack(state.x)
    Lx = g.laplacian @ state.x
    Lv = g.laplacian @ state.v
    dy = -gains.gamma * state.y - gains.alpha * gains.beta * Lx - gains.theta * Lv - gains.alpha * grads
    return AgentDerivatives(dx=state.y, dy=dy, dv=gains.beta * Lx)


@dataclass
class Trajectory:
    """Sampled trajectory: arrays indexed sample-first."""

    t: np.ndarray  # (m,)
    x: np.ndarray  # (m, n, p)
    y: np.ndarray
    v: np.ndarray
    chi: np.ndarray | None = None  # (m, n), event mode only
    extras: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def samples(self) -> int:
        return self.t.shape[0]

    def state_at(self, k: int) -> SwarmState:
        chi = None if self.chi is None else self.chi[k].copy()
        return SwarmState(float(self.t[k]), self.x[k].copy(), self.y[k].copy(), self.v[k].copy(), chi)

    def final_state(self) -> SwarmState:
        return self.state_at(self.samples - 1)


RhsFunc = Callable[[SwarmState], AgentDerivatives]
SampleHook = Callable[[SwarmState], None]


def rk4_step(rhs: RhsFunc, state: SwarmState, h: float) -> SwarmState:
    """One classical 4th-order step of the coupled system, chi included
    when the state carries it."""

    def shifted(c: float, d: AgentDerivatives) -> SwarmState:
        chi = None if state.chi is None else state.chi + c * h * d.dchi
        return SwarmState(state.t + c * h, state.x + c * h * d.dx, state.y + c * h * d.dy, state.v + c * h * d.dv, chi)

    k1 = rhs(state)
    k2 = rhs(shifted(0.5, k1))
    k3 = rhs(shifted(0.5, k2))
    k4 = rhs(shifted(1.0, k3))
    w = h / 6.0
    chi = None if state.chi is None else state.chi + w * (k1.dchi + 2 * k2.dchi + 2 * k3.dchi + k4.dchi)
    return SwarmState(
        state.t + h,
        state.x + w * (k1.dx + 2 * k2.dx + 2 * k3.dx + k4.dx),
        state.y + w * (k1.dy + 2 * k2.dy + 2 * k3.dy + k4.dy),
        state.v + w * (k1.dv + 2 * k2.dv + 2 * k3.dv + k4.dv),
        chi,
    )


def integrate(
    rhs: RhsFunc,
    initial: SwarmState,
    step: float,
    horizon: float,
    on_sample: SampleHook | None = None,
) -> Trajectory:
    """Fixed-step integration, sampling at t = 0, h, 2h, ..., horizon.

    ``on_sample``, if given, is called with every committed sample
    (including t = 0) before the next step starts from it.  Raises
    DivergenceError, carrying the last finite state, as soon as any
    state entry is non-finite or the state norm exceeds the divergence
    cutoff.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if horizon < step:
        raise ValueError("horizon must be at least one step")
    n_steps = int(round(horizon / step))
    state = initial.copy()

    ts = np.empty(n_steps + 1)
    xs = np.empty((n_steps + 1, state.n, state.p))
    ys = np.empty_like(xs)
    vs = np.empty_like(xs)
    chis = None if state.chi is None else np.empty((n_steps + 1, state.n))

    def commit(k: int, s: SwarmState):
        ts[k] = s.t
        xs[k], ys[k], vs[k] = s.x, s.y, s.v
        if chis is not None:
            chis[k] = s.chi
        if on_sample is not None:
            on_sample(s)

    commit(0, state)
    for k in range(n_steps):
        new = rk4_step(rhs, state, step)
        new.t = (k + 1) * step  # avoid accumulated time roundoff
        if not new.norm() <= DIVERGENCE_LIMIT:  # also catches NaN
            raise DivergenceError(new.t, state)
        state = new
        commit(k + 1, state)

    return Trajectory(t=ts, x=xs, y=ys, v=vs, chi=chis)


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
    """Worst componentwise |sum_i v_i(t)| / (1 + t) along a trajectory.

    The continuous and event-triggered algorithms conserve sum_i v_i
    exactly in exact arithmetic; this measures the floating-point drift
    relative to the linear-in-time allowance used by the checks.
    """
    sums = np.abs(traj.v.sum(axis=1))  # (m, p)
    return float((sums / (1.0 + traj.t)[:, None]).max())
