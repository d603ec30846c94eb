"""Distributed optimization over second-order multi-agent networks.

Agents with double-integrator dynamics cooperatively minimize a sum of
private convex costs over an undirected communication graph, either with
continuous neighbor communication or with a dynamic event-triggered
broadcast rule that is free of Zeno behavior.  The package computes the
full set of convergence-certificate constants and verifies the decay
envelopes and triggering invariants along simulated trajectories.
"""

from .analysis import (
    LyapunovContext,
    CertificateConstants,
    certificate_continuous,
    certificate_event,
    equilibrium_point,
    fit_rate,
)
from .costs import (
    CostError,
    GlobalObjective,
    curvature_on_set,
    estimate_mf,
    minimizer_oracle,
    quadratic_family,
    quartic_family,
)
from .dynamics import (
    DivergenceError,
    GainParams,
    HypothesisError,
    SwarmState,
    Trajectory,
    equilibrium_residual,
    integrate,
    rhs_alternative,
    rhs_continuous,
    v_balance_violation,
)
from .events import (
    TriggerLaw,
    TriggerParams,
    TriggerState,
    chi_rhs,
    default_eps0,
    make_trigger_law,
    qhat,
    rhs_event,
    rule_terms,
    simulate_event,
    trigger_margin,
    varphi_all,
    zeno_report,
)
from .graph import (
    GraphError,
    NetworkGraph,
    SpectralData,
    build_graph,
    is_connected,
    spectral,
)
from .harness import (
    ConfigError,
    RunReport,
    Scenario,
    compare,
    load_preset,
    load_scenario,
    run,
    scenario_from_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
