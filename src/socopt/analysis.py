"""Convergence-rate certificates and Lyapunov diagnostics.

Every derived constant guaranteeing exponential convergence is computed
here, for the continuous-communication algorithm (eps1..eps4, m1, the
invariant ball D and its curvature bound M(D)) and for the
event-triggered one (m2, eps5..eps10, k_d).  The constants feed three
families of diagnostics, all computed from the stored trajectory after
integration: the Lyapunov values W1..W4 / V1..V3, evaluated for every
sample at once by ``LyapunovContext.values``; exponential decay
envelopes; and an empirical rate fit compared against the certified
bound eps3/(2*eps4) or eps9/(2*eps10).  Where the certificate arithmetic
leaves the float range (a power that overflows, a constant that
underflows to 0 and then divides), the certificates and the Lyapunov
context raise ``FloatRangeError``: the run then reports the certificate
as unavailable.
"""

import functools
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .costs import GlobalObjective, curvature_on_set, rowdot
from .dynamics import GainParams, SwarmState, Trajectory
from .events import TriggerParams, validate_eps0
from .graph import NetworkGraph, SpectralData


class ConstantsError(ValueError):
    """Inputs outside the admissible ranges of the certificate formulas."""


class FloatRangeError(ConstantsError):
    """Certificate arithmetic that leaves the float range: the certificate
    is unavailable for these inputs, which the run itself does not need."""


def _in_float_range(fn):
    """``fn`` raising FloatRangeError, named, where its arithmetic leaves
    the float range: a power that overflows, a quotient by a value that
    underflowed to 0, or a certificate constant that is not finite."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise FloatRangeError(f"{fn.__qualname__} leaves the float range: {exc}") from None
        if isinstance(out, CertificateConstants):
            bad = [f.name for f in fields(out) if not math.isfinite(getattr(out, f.name) or 0.0)]
            if bad:
                raise FloatRangeError(f"{fn.__qualname__} leaves the float range: {', '.join(bad)} not finite")
        return out

    return guarded


def _validate_design(gains: GainParams, eps0: float, eps: float):
    validate_eps0(gains, eps0, ConstantsError)
    if eps <= 0:
        raise ConstantsError(f"eps must be positive, got {eps}")


def _validate_certificate(sd: SpectralData, gains: GainParams, eps0: float, eps: float, mf: float):
    """The design range, a positive Laplacian eigenvalue and a positive m_f."""
    _validate_design(gains, eps0, eps)
    if sd.rho2 is None:
        raise ConstantsError("certificate needs at least two agents (no positive Laplacian eigenvalue)")
    if mf <= 0:
        raise ConstantsError(f"restricted strong convexity modulus must be positive, got {mf}")


def _symbol(formula: str, default=None):
    """A certificate field carrying the formula ``to_report`` writes beside
    it; ``default=MISSING`` makes the field required."""
    return field(default=default, metadata={"formula": formula})


@dataclass
class CertificateConstants:
    """Derived certificate constants, with the free design parameters that
    produced them.  Fields are None until the corresponding computation
    has run (the event-side constants need global curvature data)."""

    eps0: float = _symbol("free design parameter in (theta/(alpha*gamma), 1)", MISSING)
    eps: float = _symbol("free design parameter > 0", MISSING)
    mf: float = _symbol("restricted strong convexity modulus of the summed objective", MISSING)

    # continuous-communication certificate
    m1: float | None = _symbol(
        "min(mf/2, rho2*mf^2*alpha*gamma*eps0 / (2*(alpha*gamma*eps0-theta)*(mf^2+16*M_D^2)))"
    )
    M_D: float | None = _symbol("max over agents of the gradient-Lipschitz bound on the ball D")
    D_radius: float | None = _symbol(
        "sqrt(2*V1(0) / (gamma^2*eps0*(1-sqrt(eps0)))); radius of the invariant ball D around x*"
    )
    V1_at_0: float | None = _symbol("V1 evaluated at the initial state")
    eps1: float | None = _symbol("min(gamma*(1-eps0), alpha*gamma*eps0*m1)")
    eps2: float | None = _symbol("max(gamma/alpha + gamma^2/theta + theta/alpha^2, alpha^2*M_D^2/theta)")
    eps3: float | None = _symbol("min(eps1, eps*theta/2)")
    eps4: float | None = _symbol(
        "max(1 + eps*eps2/eps1 + eps/alpha, "
        "(1+eps*eps2/eps1)*(gamma^2*eps0 + alpha*beta*rho + alpha*M_D/2) + eps*M_D/2, "
        "(1+eps*eps2/eps1)*theta*gamma*eps0/(beta*rho2) + eps*alpha)"
    )
    eps_tilde1: float | None = _symbol("(1+eps*eps2/eps1)*gamma^2*eps0*(1-eps0)/2")
    iota1: float | None = _symbol("mf/(4*M_D)")
    rate_bound_continuous: float | None = _symbol("eps3/(2*eps4)")

    # event-triggered certificate
    Mbar: float | None = _symbol("max over agents of the global gradient-Lipschitz modulus")
    m2: float | None = _symbol(
        "min(mf/2, 4*rho2*mf^2*alpha / ((alpha*gamma*eps0-theta)*beta*(mf^2+16*Mbar^2)))"
    )
    eps5: float | None = _symbol("min(gamma*(1-eps0)/2, m2*alpha)")
    eps6: float | None = _symbol("max(gamma/alpha + gamma^2/theta + theta/alpha^2, alpha^2*Mbar^2/theta)")
    eps7: float | None = _symbol("1 + eps*eps6/eps5")
    eps8: float | None = _symbol("eps/(4*eps7)")
    eps9: float | None = _symbol("min(eps5, eps*theta/4, k_d)")
    eps10: float | None = _symbol(
        "max(eps7 + eps/alpha, "
        "eps7*(gamma^2*eps0 + alpha*beta*rho + alpha*Mbar/2) + eps*Mbar/2, "
        "eps7*theta*gamma*eps0/(beta*rho2) + eps*alpha/rho2)"
    )
    eps_tilde2: float | None = _symbol("eps7*gamma^2*eps0*(1-eps0)/2")
    iota2: float | None = _symbol("mf/(4*Mbar)")
    k_d: float | None = _symbol("min over agents of (rate - (1-delta)/kappa)")
    rate_bound_event: float | None = _symbol("eps9/(2*eps10)")

    def to_report(self) -> dict:
        """One entry per computed symbol: value plus the formula it came from."""
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if "formula" in f.metadata and val is not None:
                out[f.name] = {"value": float(val), "formula": f.metadata["formula"]}
        return out


@dataclass(frozen=True)
class EquilibriumPoint:
    """The optimal consensus equilibrium: xbar = 1 kron x*, and the
    integral states vbar_i = -(alpha/theta) grad f_i(x*) that balance the
    per-agent gradients (they sum to zero because x* is optimal)."""

    xstar: np.ndarray  # (p,)
    xbar: np.ndarray  # (n, p)
    vbar: np.ndarray  # (n, p)


def equilibrium_point(obj: GlobalObjective, gains: GainParams, xstar: np.ndarray) -> EquilibriumPoint:
    xstar = np.asarray(xstar, dtype=float)
    xbar = np.tile(xstar, (obj.n, 1))
    vbar = -(gains.alpha / gains.theta) * obj.grad_stack(xbar)
    return EquilibriumPoint(xstar=xstar, xbar=xbar, vbar=vbar)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the trailing (n, p) axes, one per sample."""
    return np.sum(a * b, axis=(-2, -1))


@dataclass
class LyapunovContext:
    """Everything needed to evaluate the Lyapunov family along a run."""

    g: NetworkGraph
    sd: SpectralData  # not read here since L^+ is a solve; perfbench/kernels.py still passes it
    obj: GlobalObjective
    gains: GainParams
    eps0: float
    eps: float
    eq: EquilibriumPoint
    consts: CertificateConstants | None = None
    varphi: np.ndarray | None = None
    _gamma_sq: float = field(init=False)

    @_in_float_range
    def __post_init__(self):
        _validate_design(self.gains, self.eps0, self.eps)
        self._gamma_sq = self.gains.gamma**2

    def _w1(self, x: np.ndarray) -> np.ndarray:
        """W1 = sum_i f_i(x_i) - g_i.x_i - (f_i(x*) - g_i.x*), g_i = grad f_i(x*);
        convex with minimum value 0 at consensus on x*."""
        obj, xbar = self.obj, self.eq.xbar
        gs = obj.grad_stack(xbar)
        at_star = obj.f_stack(xbar) - rowdot(xbar, gs)
        # g_i . x_i for every sample as one (m, p) @ (p,) product per agent,
        # and the agents summed in index order, which keeps W1's rounding
        gx = np.matmul(np.swapaxes(x, -3, -2), gs[:, :, None])[..., 0]
        terms = obj.f_stack(x) - np.swapaxes(gx, -2, -1) - at_star
        return np.add.accumulate(terms, axis=-1)[..., -1]

    def values(
        self, x: np.ndarray, y: np.ndarray, v: np.ndarray, chi: np.ndarray | None = None
    ) -> dict[str, np.ndarray]:
        """W1..W3 and V1 for states stacked along a leading sample axis
        (x, y, v of shape (m, n, p), chi of shape (m, n)), plus V2, W4 and
        V3 as far as the certificate constants and chi allow.

        The disagreement projector K_n = I - 11^T/n enters only through
        dv, centred once: cdv = dv - mean_i dv_i = K_n dv, so that
        dv^T K_n z = cdv^T z and dv^T K_n dv = cdv^T cdv (K_n is a
        symmetric idempotent).  The pseudoinverse term dv^T L^+ dv equals
        cdv^T L^+ cdv (L^+ 1 = 0), and for a zero-sum vector
        L^+ cdv = (L + 11^T/n)^(-1) cdv, since
        L^+ = (L + 11^T/n)^(-1) - 11^T/n for a connected graph (Ghosh,
        Boyd, Saberi, SIAM Review 2008).  So the term takes one solve,
        with every sample's p columns of cdv as right-hand sides; a block
        of more than n columns (a trajectory of a small swarm), each of
        which numpy's ``solve`` would copy in and out, is instead one
        product with (L + 11^T/n)^(-1), solved against the n columns of I."""
        gn, eps = self.gains, self.eps
        m, n, p = np.shape(v)
        dx = x - self.eq.xbar
        # dv as an (n, m*p) block, one row per agent, columns (sample, coordinate), centred in place
        block = np.subtract(np.moveaxis(v, -2, 0), self.eq.vbar[:, None, :], order="C").reshape(n, m * p)
        block -= block.mean(axis=0)
        cdv = np.moveaxis(block.reshape(n, m, p), 0, -2)
        k = self.g.laplacian + 1.0 / n
        sol = np.linalg.solve(k, block) if m * p <= n else np.linalg.solve(k, np.eye(n)) @ block
        lpinv = np.einsum("ij,ij->j", block, sol).reshape(m, p).sum(axis=1)
        del sol  # a trajectory-sized temporary: freed before the dot products allocate theirs
        out = {"W1": self._w1(x)}
        out["W2"] = (
            0.5 * _dot(y, y)
            + 0.5 * self._gamma_sq * self.eps0 * _dot(dx, dx)
            + gn.gamma * self.eps0 * _dot(dx, y)
            + gn.theta * gn.gamma * self.eps0 / (2.0 * gn.beta) * lpinv
            + gn.theta * _dot(cdv, x)
            + 0.5 * gn.alpha * gn.beta * _dot(x, self.g.laplacian @ x)
        )
        out["W3"] = (
            eps / (2.0 * gn.alpha) * _dot(y, y)
            + eps * _dot(cdv, y)
            + 0.5 * eps * gn.alpha * _dot(cdv, cdv)
            + eps * out["W1"]
        )
        out["V1"] = gn.alpha * out["W1"] + out["W2"]
        c = self.consts
        if c is not None and c.eps1 is not None and c.eps2 is not None:
            out["V2"] = (1.0 + eps * c.eps2 / c.eps1) * out["V1"] + out["W3"]
        if c is not None and c.eps7 is not None:
            out["W4"] = c.eps7 * out["V1"] + out["W3"]
            if chi is not None and self.varphi is not None:
                out["V3"] = out["W4"] + c.eps7 * (chi @ self.varphi)
        return out

    def sample(self, state: SwarmState) -> dict[str, float]:
        """The columns of ``values`` at one state (V3 needs ``state.chi``)."""
        chi = None if state.chi is None else state.chi[None]
        cols = self.values(state.x[None], state.y[None], state.v[None], chi)
        return {name: float(col[0]) for name, col in cols.items()}


@_in_float_range
def certificate_continuous(
    sd: SpectralData,
    obj: GlobalObjective,
    gains: GainParams,
    eps0: float,
    eps: float,
    V1_at_0: float,
    xstar: np.ndarray,
    mf: float,
) -> CertificateConstants:
    """Constants certifying exponential convergence of the continuous run.

    The invariant ball D is determined by the initial Lyapunov value:
    every agent trajectory stays inside
    ||a - x*||^2 <= 2*V1(0) / (gamma^2*eps0*(1-sqrt(eps0))), so the
    curvature bound M(D) is evaluated on exactly that ball.  For
    quadratics M is radius-independent and the pass structure collapses.
    """
    _validate_certificate(sd, gains, eps0, eps, mf)
    if V1_at_0 < 0:
        raise ConstantsError(f"V1(0) must be nonnegative, got {V1_at_0}")
    a, b, gm, th = gains.alpha, gains.beta, gains.gamma, gains.theta
    rho, rho2 = sd.rho, sd.rho2

    D_radius = float(np.sqrt(2.0 * V1_at_0 / (gm**2 * eps0 * (1.0 - np.sqrt(eps0)))))
    M_D = curvature_on_set(obj, D_radius, xstar)

    lead = a * gm * eps0 - th  # positive by the eps0 range check
    m1 = min(mf / 2.0, rho2 * mf**2 * a * gm * eps0 / (2.0 * lead * (mf**2 + 16.0 * M_D**2)))
    eps1 = min(gm * (1.0 - eps0), a * gm * eps0 * m1)
    eps2 = max(gm / a + gm**2 / th + th / a**2, a**2 * M_D**2 / th)
    eps3 = min(eps1, eps * th / 2.0)
    grow = 1.0 + eps * eps2 / eps1
    eps4 = max(
        grow + eps / a,
        grow * (gm**2 * eps0 + a * b * rho + a * M_D / 2.0) + eps * M_D / 2.0,
        grow * th * gm * eps0 / (b * rho2) + eps * a,
    )
    return CertificateConstants(
        eps0=eps0,
        eps=eps,
        mf=mf,
        m1=m1,
        M_D=M_D,
        D_radius=D_radius,
        V1_at_0=V1_at_0,
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        eps4=eps4,
        eps_tilde1=grow * gm**2 * eps0 * (1.0 - eps0) / 2.0,
        iota1=mf / (4.0 * M_D),
        rate_bound_continuous=eps3 / (2.0 * eps4),
    )


@_in_float_range
def certificate_event(
    sd: SpectralData,
    obj: GlobalObjective,
    gains: GainParams,
    eps0: float,
    eps: float,
    trigger_params: TriggerParams,
    mf: float,
    base: CertificateConstants | None = None,
) -> CertificateConstants:
    """Constants certifying the event-triggered run, appended to ``base``.

    Requires a global gradient-Lipschitz modulus for every agent and
    trigger parameters with k_d > 0; Mbar is their maximum.
    """
    _validate_certificate(sd, gains, eps0, eps, mf)
    if obj.global_lipschitz is None:
        raise ConstantsError(
            "the costs have no global gradient-Lipschitz modulus; "
            "event-triggered certification needs one per agent"
        )
    Mbar = float(obj.global_lipschitz.max())
    k_d = trigger_params.k_d
    if k_d <= 0:
        raise ConstantsError(f"k_d = min(rate - (1-delta)/kappa) must be positive, got {k_d}")

    a, b, gm, th = gains.alpha, gains.beta, gains.gamma, gains.theta
    rho, rho2 = sd.rho, sd.rho2
    lead = a * gm * eps0 - th

    m2 = min(mf / 2.0, 4.0 * rho2 * mf**2 * a / (lead * b * (mf**2 + 16.0 * Mbar**2)))
    eps5 = min(gm * (1.0 - eps0) / 2.0, m2 * a)
    eps6 = max(gm / a + gm**2 / th + th / a**2, a**2 * Mbar**2 / th)
    eps7 = 1.0 + eps * eps6 / eps5
    eps8 = eps / (4.0 * eps7)
    eps9 = min(eps5, eps * th / 4.0, k_d)
    eps10 = max(
        eps7 + eps / a,
        eps7 * (gm**2 * eps0 + a * b * rho + a * Mbar / 2.0) + eps * Mbar / 2.0,
        eps7 * th * gm * eps0 / (b * rho2) + eps * a / rho2,
    )
    out = base if base is not None else CertificateConstants(eps0=eps0, eps=eps, mf=mf)
    out.Mbar = Mbar
    out.m2 = m2
    out.eps5 = eps5
    out.eps6 = eps6
    out.eps7 = eps7
    out.eps8 = eps8
    out.eps9 = eps9
    out.eps10 = eps10
    out.eps_tilde2 = eps7 * gm**2 * eps0 * (1.0 - eps0) / 2.0
    out.iota2 = mf / (4.0 * Mbar)
    out.k_d = k_d
    out.rate_bound_event = eps9 / (2.0 * eps10)
    return out


@dataclass
class RateFit:
    """Least-squares exponential decay rate of the distance to consensus
    on the optimum, fitted on a window of the trajectory."""

    rate: float
    t_lo: float
    t_hi: float
    samples_used: int
    truncated: bool


def fit_rate(traj: Trajectory, xstar: np.ndarray) -> RateFit:
    """Fit -log||x(t) - xbar|| by least squares over a trajectory window.

    The window keeps the middle 60% of the horizon, [0.2 T, 0.8 T],
    skipping the transient and the tail.  Samples at or below the
    floating-point noise floor 1e-13 truncate the window (flagged in the
    result).
    """
    xbar = np.tile(np.asarray(xstar, dtype=float), (traj.x.shape[1], 1))
    errs = np.linalg.norm(traj.x - xbar[None, :, :], axis=(1, 2))
    T = traj.t[-1]
    mask = (traj.t >= 0.2 * T) & (traj.t <= 0.8 * T)
    truncated = False
    above = errs > 1e-13
    if not np.all(above[mask]):
        truncated = True
        mask = mask & above
    t_sel = traj.t[mask]
    e_sel = errs[mask]
    if t_sel.size < 2:
        raise ValueError("rate window has fewer than two usable samples")
    slope, _ = np.polyfit(t_sel, -np.log(e_sel), 1)
    return RateFit(
        rate=float(slope),
        t_lo=float(t_sel[0]),
        t_hi=float(t_sel[-1]),
        samples_used=int(t_sel.size),
        truncated=truncated,
    )


def envelope_excess(t: np.ndarray, values: np.ndarray, rate: float) -> float:
    """Max of values(t) - values(0)*exp(-rate*t); <= tol certifies the
    exponential decay envelope."""
    return float(np.max(values - values[0] * np.exp(-rate * np.asarray(t))))


def monotonicity_excess(values: np.ndarray) -> float:
    """Largest per-step increase of a sampled scalar signal."""
    d = np.diff(np.asarray(values))
    return float(d.max()) if d.size else 0.0
