"""Dynamic event-triggered communication.

Agents broadcast their position only when a per-agent rule fires; between
events neighbors integrate against the cached broadcast xhat_j.  Agent i
fires at the first sample where

    kappa_i * (||e_i||^2 - c_i * qhat_i) >= chi_i,

with e_i = xhat_i - x_i the staleness error, qhat_i the cached local
disagreement, c_i = (alpha*gamma*eps0 - theta)*beta*sigma_i / (4*phi_i)
for a per-agent threshold constant phi_i, and chi_i a positive internal
variable with its own dynamics

    dchi_i = -delta_i * (||e_i||^2 - c_i * qhat_i) - rate_i * chi_i.

phi_i comes from the event certificate (``varphi_all``, resolved at load),
whose theorem covers this law.  With sigma = 0 the disagreement term drops
out, c = 0, and the law needs neither phi_i nor any network-wide quantity.

``rule_terms`` computes ||e_i||^2 and qhat_i for all agents at once with
``rowdot``, so they round like each agent's own test; qhat, like
``varphi_all``, sums over the edge list and weights.  Certificates stay dense.
qhat reads only the caches, so a run forms it in full once, at t = 0, and
carries it from sample to sample; after each broadcast only the qhat of
the broadcasting agents and their neighbours is recomputed, bit-equal to
a full pass (see ``_process_triggers``).  The sweep returns every term it
forms, ||e||^2, qhat, the bracket and the rule margin, and the hook uses
them as they are.

Triggers are monitored at integration sample boundaries only, matching a
sampled implementation.  At a sample, agents fire in sweeps.  A sweep
selects the undecided agents whose rule holds; those with no selected
neighbour of lower index fire at once, as one batch, and the rest are
re-checked one by one in index order.  This decides exactly as
re-checking every selected agent in index order would, because agent i's
terms read only x_i and the caches of i and N_i, and a batch agent of
higher index than a re-checked agent i is never i's neighbour.  Each
broadcast is a row of the record array ``TriggerState.events`` (agent,
index, t, chi, error_sq, qhat), in sample, sweep, then agent order.
``simulate_event`` runs the loop of ``dynamics`` on the state augmented
with chi.  Its law, ``held_law``, is ``dynamics._law`` fed by L xhat
plus the chi law ``chi_rhs``, whose bracket ||e_i||^2 - c_i*qhat_i is
frozen at its start-of-step value (the error is discontinuous at
triggers, so freezing keeps the stages consistent); it reads both from
one array of held inputs, eta = [L xhat; bracket].  The law is
autonomous and a state carries no clock, so a per-sample hook, called
with (t, state), processes the triggers, records the discipline margin
and writes the next step's eta in place (the caches change only there):
the bracket at every sample, and L xhat only after a sample that
broadcast, since xhat has not moved otherwise.
The run steps by the routing rule ``dynamics.route_for``.  In a small
swarm the law less its gradient term is affine in the state and in eta,
M u + c0 + G eta, with M, G and c0 probed once, and each step is
``dynamics.probed_stepper``'s u + F z, over z = [u; 1; eta] with a
quadratic objective and over z = [u; 1; eta; g1..g4], after two batched
gradient calls, with a quartic one; it reads eta as the hook left it
and does not evaluate the law.
Otherwise each step is ``rk4_step``, whose four law evaluations read eta.
"""

from dataclasses import dataclass, field

import numpy as np

from .costs import GlobalObjective, rowdot
from .dynamics import GainParams, SwarmState, Trajectory, _law, integrate, route_for
from .graph import NetworkGraph


class TriggerConfigError(ValueError):
    """Trigger parameters outside their admissible ranges; a range error of
    ``TriggerParams`` begins with the name of the field it violates."""


TRIGGER_FIELDS = ("sigma", "delta", "phi_rate", "kappa", "chi0")


@dataclass
class TriggerParams:
    """Per-agent design parameters of the triggering law.

    Admissible ranges: sigma in [0,1), rate > 0, delta in [0,1],
    kappa > (1-delta)/rate, chi0 > 0.  ``k_d`` = min_i(rate_i -
    (1-delta_i)/kappa_i) must come out positive.
    """

    sigma: np.ndarray
    delta: np.ndarray
    phi_rate: np.ndarray
    kappa: np.ndarray
    chi0: np.ndarray

    def __post_init__(self):
        arrays = {name: np.atleast_1d(np.asarray(getattr(self, name), dtype=float)) for name in TRIGGER_FIELDS}
        for name, a in arrays.items():
            if a.shape != arrays["sigma"].shape:
                raise TriggerConfigError(f"{name} has shape {a.shape}, sigma has {arrays['sigma'].shape}")
            setattr(self, name, a)
        # written so that NaN fails every range
        if not np.all((self.sigma >= 0) & (self.sigma < 1)):
            raise TriggerConfigError("sigma must lie in [0, 1)")
        if not np.all(self.phi_rate > 0):
            raise TriggerConfigError("phi_rate, the chi decay rate, must be positive")
        if not np.all((self.delta >= 0) & (self.delta <= 1)):
            raise TriggerConfigError("delta must lie in [0, 1]")
        if not np.all(self.chi0 > 0):
            raise TriggerConfigError("chi0, chi(0), must be positive")
        lo = (1.0 - self.delta) / self.phi_rate
        if not np.all(self.kappa > lo):
            raise TriggerConfigError(
                f"kappa must exceed (1-delta)/phi_rate per agent; got kappa={self.kappa.tolist()}, "
                f"floor={lo.tolist()}"
            )

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @property
    def k_d(self) -> float:
        return float(np.min(self.phi_rate - (1.0 - self.delta) / self.kappa))

    @classmethod
    def defaults(cls, n: int) -> "TriggerParams":
        """Mid-range parameters, strictly interior to every admissible range."""
        delta = np.full(n, 0.5)
        rate = np.full(n, 1.0)
        return cls(
            sigma=np.full(n, 0.5),
            delta=delta,
            phi_rate=rate,
            kappa=2.0 * (1.0 - delta) / rate + 1.0,
            chi0=np.full(n, 1.0),
        )

    @classmethod
    def local_only(cls, n: int, phi_rate: float = 1.0, chi0: float = 1.0) -> "TriggerParams":
        """sigma = delta = 0: the law needs no derived threshold constant
        and no network-wide quantities; kappa = 2/rate + 1."""
        rate = np.full(n, float(phi_rate))
        return cls(
            sigma=np.zeros(n), delta=np.zeros(n), phi_rate=rate, kappa=2.0 / rate + 1.0, chi0=np.full(n, float(chi0))
        )


def default_eps0(gains: GainParams) -> float:
    """Midpoint of the admissible interval (theta/(alpha*gamma), 1)."""
    return 0.5 * (gains.theta / (gains.alpha * gains.gamma) + 1.0)


def varphi_all(g: NetworkGraph, gains: GainParams, eps0: float, eps8: float) -> np.ndarray:
    """Per-agent threshold constants of the triggering law.

    varphi_i = (alpha*gamma*eps0 - theta)*beta/4 * L_ii
             + (alpha*gamma*eps0 - theta)*beta * L_ii
             + gamma^2*theta*eps0^2 / (4*eps8)
             + alpha^2*beta^2/(gamma*(1-eps0)) * (L_ii - sum_{j!=i} L_jj L_ij)

    The cross sum runs over the edges leaving i (L_ij = -w_ij on them, 0 off them).
    """
    validate_eps0(gains, eps0)
    if eps8 <= 0:
        raise TriggerConfigError(f"eps8 must be positive, got {eps8}")
    lii = np.diag(g.laplacian)
    cross = np.bincount(g.src, weights=lii[g.dst] * -g.w, minlength=g.n)
    a, b, gm, th = gains.alpha, gains.beta, gains.gamma, gains.theta
    lead = (a * gm * eps0 - th) * b
    return (
        lead / 4.0 * lii
        + lead * lii
        + gm**2 * th * eps0**2 / (4.0 * eps8)
        + a**2 * b**2 / (gm * (1.0 - eps0)) * (lii - cross)
    )


def validate_eps0(gains: GainParams, eps0: float, error: type[ValueError] = TriggerConfigError):
    """Raise ``error`` unless eps0 lies in (theta/(alpha*gamma), 1), as the certificate and varphi_i assume."""
    lo = gains.theta / (gains.alpha * gains.gamma)
    if not (lo < eps0 < 1.0):
        raise error(f"eps0 must lie in (theta/(alpha*gamma), 1) = ({lo:.6g}, 1); got {eps0}")


@dataclass
class TriggerLaw:
    """Bound trigger parameters plus the precomputed threshold coefficients
    c_i = (alpha*gamma*eps0 - theta)*beta*sigma_i / (4*varphi_i)."""

    params: TriggerParams
    eps0: float
    c: np.ndarray
    varphi: np.ndarray | None = None


def make_trigger_law(
    g: NetworkGraph,
    gains: GainParams,
    params: TriggerParams,
    eps0: float | None = None,
    eps8: float | None = None,
    denominator: str = "varphi",  # only perfbench/kernels.py passes it; ROADMAP item 22 removes it
) -> TriggerLaw:
    """Resolve the threshold coefficients for a concrete graph and gains.

    ``eps0`` defaults to ``default_eps0``.  Given the event certificate's
    ``eps8``, the per-agent threshold constants varphi_i are computed here
    (``varphi_all``) and kept as ``TriggerLaw.varphi``, which the Lyapunov
    V3 column also reads.  A sigma nonzero somewhere needs them, so it
    needs ``eps8``, which ``harness.scenario_from_dict`` checks at load.
    """
    if eps0 is None:
        eps0 = default_eps0(gains)
    if params.n != g.n:
        raise TriggerConfigError(f"trigger parameters sized {params.n} for a graph of {g.n} agents")
    if denominator != "varphi":
        raise TriggerConfigError(f"unknown threshold denominator {denominator!r}")
    phis = None if eps8 is None else varphi_all(g, gains, eps0, eps8)
    if np.all(params.sigma == 0.0):
        c = np.zeros(g.n)
    elif phis is None:
        raise TriggerConfigError(
            "eps8 is required to derive the threshold constants varphi_i, and the event certificate that gives "
            "it is unavailable; trigger.sigma: 0 runs without them, giving up the c_i*qhat_i disagreement term"
        )
    else:
        c = (gains.alpha * gains.gamma * eps0 - gains.theta) * gains.beta * params.sigma / (4.0 * phis)
    return TriggerLaw(params=params, eps0=eps0, c=c, varphi=phis)


# the event log's columns; index counts an agent's events from 1, and chi, error_sq, qhat are the terms it fired on
EVENT_DTYPE = np.dtype([("agent", "i8"), ("index", "i8")] + [(k, "f8") for k in ("t", "chi", "error_sq", "qhat")])


def event_log(rows=()) -> np.recarray:
    """The event log holding ``rows``, tuples (agent, index, t, chi, error_sq, qhat)."""
    return np.array(list(rows), dtype=EVENT_DTYPE).view(np.recarray)


@dataclass
class TriggerState:
    """Broadcast caches and internal variables of one event-mode run."""

    xhat: np.ndarray  # (n, p) last-broadcast positions
    chi: np.ndarray  # (n,) internal variables
    last_event: np.ndarray  # (n,) timestamps
    counts: np.ndarray  # (n,) events so far
    events: np.recarray = field(default_factory=event_log)  # the log, one row per broadcast

    @classmethod
    def initialize(cls, x0: np.ndarray, params: TriggerParams) -> "TriggerState":
        """Every agent broadcasts at t = 0 (the mandated first event)."""
        n = x0.shape[0]
        return cls(
            xhat=np.asarray(x0, dtype=float).copy(),
            chi=params.chi0.copy(),
            last_event=np.zeros(n),
            counts=np.ones(n, dtype=int),
            events=event_log([(i, 1, 0.0, chi0, 0.0, 0.0) for i, chi0 in enumerate(params.chi0.tolist())]),
        )


def rule_terms(ts: TriggerState, g: NetworkGraph, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||e_i||^2, qhat_i) for every agent, each of shape (n,).

    e_i = xhat_i - x_i is the staleness error and qhat_i = 1/2 sum_{j in N_i}
    w_ij ||xhat_j - xhat_i||^2 >= 0 the cached local disagreement, summed
    in ascending j.  Agent i's terms read only x_i and the caches of i and
    its neighbors.
    """
    e = ts.xhat - x
    return rowdot(e, e), _edge_qhat(ts, g, slice(None))


def _edge_qhat(ts: TriggerState, g: NetworkGraph, edges) -> np.ndarray:
    """qhat_i over the edges (i, j) that ``edges`` selects, shape (n,).
    ``bincount`` adds each bin in edge-list order, so a subset holding all
    of agent i's edges gives qhat_i as the full list does, bit for bit."""
    src = g.src[edges]
    d = ts.xhat[g.dst[edges]] - ts.xhat[src]
    return np.bincount(src, weights=(0.5 * g.w[edges]) * rowdot(d, d), minlength=g.n)


def _bracket_and_margin(law: TriggerLaw, chi: np.ndarray, err_sq: np.ndarray, qh: np.ndarray):
    """The bracket ||e_i||^2 - c_i*qhat_i shared by the rule and the chi
    law, and the rule margin kappa_i*bracket_i - chi_i (fires at >= 0)."""
    bracket = err_sq - law.c * qh
    return bracket, law.params.kappa * bracket - chi


def qhat(i: int, ts: TriggerState, g: NetworkGraph) -> float:
    """Agent i's cached local disagreement; a one-agent view of ``rule_terms``."""
    return float(rule_terms(ts, g, ts.xhat)[1][i])


def trigger_margin(i: int, ts: TriggerState, g: NetworkGraph, law: TriggerLaw, x: np.ndarray) -> float:
    """kappa_i*(||e_i||^2 - c_i*qhat_i) - chi_i, the rule margin of agent i;
    a one-agent view of ``rule_terms``."""
    return float(_bracket_and_margin(law, ts.chi, *rule_terms(ts, g, x))[1][i])


def chi_rhs(chi: np.ndarray, bracket: np.ndarray, params: TriggerParams) -> np.ndarray:
    """dchi_i = -delta_i*bracket_i - rate_i*chi_i, with bracket_i the
    frozen ||e_i||^2 - c_i*qhat_i; vectorized over agents."""
    return -params.delta * bracket - params.phi_rate * chi


def rhs_event(
    state: SwarmState, ts: TriggerState, g: NetworkGraph, obj: GlobalObjective, gains: GainParams, *extra: np.ndarray
) -> np.ndarray:
    """Continuous dynamics with the Laplacian terms fed by the caches;
    ``extra`` blocks (the chi law's dchi) are appended to the packed
    derivative.  ``simulate_event`` applies the same law with L xhat
    formed once per sample."""
    return _law(state, obj, gains, g.laplacian @ ts.xhat, state.v, *extra)


def held_law(obj: GlobalObjective, gains: GainParams, params: TriggerParams):
    """The event law over its held inputs, as ``rhs(state, eta, o=obj)``:
    ``dynamics._law`` fed by the Laplacian term L xhat, plus the chi law
    ``chi_rhs`` with the frozen bracket, both read from
    eta = [L xhat; bracket] (n*p + n entries)."""
    n, p = params.n, obj.p

    def rhs(s: SwarmState, eta: np.ndarray, o: GlobalObjective = obj) -> np.ndarray:
        return _law(s, o, gains, eta[: n * p].reshape(n, p), s.v, chi_rhs(s.chi, eta[n * p :], params))

    return rhs


@dataclass
class EventRun:
    """Trajectory of an event-mode run plus everything the checks need."""

    trajectory: Trajectory
    trigger_state: TriggerState
    discipline_margin: float  # max over samples of kappa*(e^2 - c*qhat) - chi
    chi_floor_margin: float  # min over samples of chi - chi0*exp(-(rate+delta/kappa)*t)
    law: TriggerLaw

    @property
    def chi(self) -> np.ndarray:
        """chi at each sample, shape (m, n)."""
        return self.trajectory.chi


def _process_triggers(
    ts: TriggerState, g: NetworkGraph, law: TriggerLaw, x: np.ndarray, t: float, qh: np.ndarray, log: list
):
    """Fire the agents whose rule holds at this sample, in sweeps.

    A sweep selects every agent not yet decided at this sample whose rule
    holds against the caches as the sweep starts; the selected agents now
    count as decided.  A selected agent is held if it has a selected
    neighbour of lower index.  The agents that are not held fire at once
    on their sweep-start terms, which no earlier broadcast of the sweep
    can have touched.  Then each held agent, in index order, is
    re-checked against the caches as they stand (the terms are refreshed
    after the batch and after each later broadcast); a neighbour's
    broadcast changes qhat, so a held agent can be vetoed there.  This
    decides exactly as re-checking every selected agent in index order
    would: a batch agent of higher index than a held agent i is never i's
    neighbour (i would hold it), so firing it first leaves i's terms
    unchanged.  Only a sweep in which two selected agents share an edge
    holds anyone.  Sweeps repeat until one selects nobody.  A broadcast
    copies the agent's position into its cache, and each sweep appends its
    broadcasts to ``log`` in agent order, as event-log rows.  An agent's
    error is zero after it broadcasts, so it fires at most once per
    sample.

    ``qh`` is qhat against the caches as the sample finds them; it is not
    modified.  The terms are kept equal, bit for bit, to ``rule_terms``
    against the caches as they stand, without a full pass: as the sample
    starts only ||e||^2 is formed, since no cache has moved since qhat
    was last refreshed.  A broadcast of the set S sets ||e_i||^2 to 0 on
    S, which is what the full pass gives as xhat_i = x_i exactly, and
    recomputes qhat on S and its neighbours, the only agents whose
    neighbourhood caches moved, by ``_edge_qhat`` over the edges leaving
    them, which rounds as the full pass does.

    Returns every term it formed against the caches as the sample leaves
    them: (||e||^2, qhat, bracket, margin), the last two as
    ``_bracket_and_margin`` gives them.  When no rule holds it returns at
    once, and the qhat it returns is ``qh`` itself.
    """
    stale = ts.xhat - x
    err_sq = rowdot(stale, stale)
    bracket, margin = _bracket_and_margin(law, ts.chi, err_sq, qh)
    selected = margin >= 0.0
    if not selected.any():
        return err_sq, qh, bracket, margin
    qh, undecided = qh.copy(), ~selected

    def broadcast(agents):
        """Broadcast ``agents``, an array of distinct agent indices or one index."""
        nonlocal bracket, margin
        ts.xhat[agents] = x[agents]
        ts.last_event[agents] = t
        ts.counts[agents] += 1
        err_sq[agents] = 0.0
        touched = np.zeros(g.n, dtype=bool)
        touched[agents] = True
        touched[g.dst[touched[g.src]]] = True
        qh[touched] = _edge_qhat(ts, g, touched[g.src])[touched]
        bracket, margin = _bracket_and_margin(law, ts.chi, err_sq, qh)

    while True:
        batch, held = selected, None
        if np.count_nonzero(selected) > 1:
            shared = selected[g.src] & selected[g.dst]  # edges between two selected agents, both ways
            if shared.any():
                held = np.zeros(g.n, dtype=bool)
                held[g.src[shared & (g.dst < g.src)]] = True
                batch = selected & ~held
        agents = batch.nonzero()[0]
        fired = [(i, err_sq[i], qh[i]) for i in agents.tolist()]
        broadcast(agents)
        if held is not None:
            for i in held.nonzero()[0].tolist():
                if margin[i] >= 0.0:
                    fired.append((i, err_sq[i], qh[i]))
                    broadcast(i)
            fired.sort()
        log.extend((i, ts.counts[i], t, ts.chi[i], e, q) for i, e, q in fired)
        selected = undecided & (margin >= 0.0)
        if not selected.any():
            return err_sq, qh, bracket, margin
        undecided &= ~selected


def simulate_event(
    initial: SwarmState,
    g: NetworkGraph,
    obj: GlobalObjective,
    gains: GainParams,
    law: TriggerLaw,
    step: float,
    horizon: float,
) -> EventRun:
    """Run the event-triggered algorithm with sample-boundary triggering.

    Every agent broadcasts at t = 0 and chi starts at chi0.  Every step
    integrates with the caches fixed and the chi bracket frozen at its
    start-of-step value; every committed sample then processes triggers
    before the margin is recorded, which keeps the rule inequality
    satisfied at every recorded sample.  Nothing can fire at t = 0, where
    every cache is fresh.  The event log is built once, after the run.
    """
    ts = TriggerState.initialize(initial.x, law.params)
    state0 = SwarmState(initial.x, initial.y, initial.v, ts.chi)
    log = ts.events.tolist()
    discipline = -np.inf
    qh = rule_terms(ts, g, initial.x)[1]
    w = ts.xhat.size
    held = np.empty(w + g.n)  # eta = [L xhat; bracket], rewritten by the hook
    lx, bracket = held[:w].reshape(ts.xhat.shape), held[w:]
    lx[:] = g.laplacian @ ts.xhat

    def on_sample(t: float, s: SwarmState) -> None:
        nonlocal discipline, qh
        ts.chi = s.chi
        logged = len(log)
        _, qh, bracket[:], margin = _process_triggers(ts, g, law, s.x, t, qh, log)
        if len(log) > logged:  # a broadcast moved xhat
            lx[:] = g.laplacian @ ts.xhat
        discipline = max(discipline, float(margin.max()))

    route = route_for(obj, gains, state0.u.size)
    traj = integrate(held_law(obj, gains, law.params), state0, step, horizon, on_sample, route, held)
    ts.events = event_log(log)
    # chi - chi0*exp(-(rate + delta/kappa)*t) at every sample, in one buffer
    margin = -(law.params.phi_rate + law.params.delta / law.params.kappa) * traj.t[:, None]
    np.exp(margin, out=margin)
    margin *= law.params.chi0
    np.subtract(traj.chi, margin, out=margin)
    return EventRun(
        trajectory=traj,
        trigger_state=ts,
        discipline_margin=float(discipline),
        chi_floor_margin=float(margin.min()),
        law=law,
    )


def zeno_report(ts: TriggerState, horizon: float, step: float) -> dict:
    """Per-agent event statistics and the overall communication saving.

    ``min_gap`` for an agent with a single event is reported as the
    horizon.  ``saturated`` flags any agent that triggered at every
    sample, i.e. communicated continuously.
    """
    n = ts.counts.shape[0]
    samples_per_agent = int(round(horizon / step))
    ev = ts.events
    # each agent's event times in log order, and the gaps between them
    times = np.split(ev.t[np.argsort(ev.agent, kind="stable")], np.cumsum(np.bincount(ev.agent, minlength=n))[:-1])
    per_agent = [
        {
            "agent": i,
            "count": int(ts.counts[i]),
            "min_gap": float(gaps.min()) if gaps.size else float(horizon),
            "mean_gap": float(gaps.mean()) if gaps.size else float(horizon),
            "saturated": int(ts.counts[i]) >= samples_per_agent + 1,
        }
        for i, gaps in enumerate(map(np.diff, times))
    ]
    total = int(ts.counts.sum())
    total_samples = n * samples_per_agent
    return {
        "per_agent": per_agent,
        "total_triggers": total,
        "total_samples": total_samples,
        "trigger_ratio": total / total_samples,
        "reduction_ratio": 1.0 - total / total_samples,
    }
