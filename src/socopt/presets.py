"""Bundled benchmark scenarios.

Three scenarios on the same 3-agent path graph exercise the convexity
regimes the algorithm distinguishes: merely convex quadratics (singular
curvature sum), quartics whose sum is strongly convex around its
minimizer, and strongly convex quadratics.  A single-agent preset reduces
the dynamics to the damped second-order gradient flow with a known closed
form.  Initial positions and velocities are drawn uniformly from
[-5, 5]^p with a recorded seed; the integral states start at zero.
"""

import copy

PATH3_EDGES = [[1, 2, 1.0], [2, 3, 1.0]]

# merely convex quadratics: 0.5*(x - a_i)^T A_i (x - a_i), singular A_i
SCENARIO1_A = [
    [[2.0, -1.0, -1.0], [-1.0, 1.5, -0.5], [-1.0, -0.5, 1.5]],
    [[3.0, -3.0, 0.0], [-3.0, 4.0, -1.0], [0.0, -1.0, 1.0]],
    [[2.5, 0.0, -2.5], [0.0, 10.0, -10.0], [-2.5, -10.0, 12.5]],
]
SCENARIO1_SHIFTS = [
    [0.6132, -0.5278, 1.2416],
    [-0.1576, -1.3736, 0.8708],
    [-1.5685, -1.8443, 0.2884],
]

# quartic costs ||x - b_i||^4; the sum is strongly convex near its minimizer
SCENARIO2_CENTERS = [
    [0.0, 0.0, 0.0],
    [2.5, 2.0, 3.0],
    [-3.5, -2.7, -1.0],
]

# strongly convex quadratics: 0.5*x^T C_i x + a_i^T x
SCENARIO3_C = [
    [[4.7471, 1.2843, 0.5836], [1.2843, 5.0861, -2.4209], [0.5836, -2.4209, 2.2270]],
    [[1.3528, 0.5141, -2.1684], [0.5141, 1.2333, -0.5857], [-2.1684, -0.5857, 4.0361]],
    [[1.0223, 1.2630, -0.4907], [1.2630, 2.1391, -0.1378], [-0.4907, -0.1378, 0.7207]],
]
SCENARIO3_LINEAR = SCENARIO1_SHIFTS

DEFAULT_SEED = 12345

_PRESETS = {
    "cdc18-scenario1": {
        "schema_version": 1,
        "name": "cdc18-scenario1",
        "graph": {"n": 3, "edges": PATH3_EDGES},
        "costs": {"kind": "quadratic_shift", "matrices": SCENARIO1_A, "shifts": SCENARIO1_SHIFTS},
        "gains": {"alpha": 2.0, "beta": 2.0, "gamma": 6.0, "theta": 5.0},
        "algorithm": "continuous",
        "integration": {"step": 0.01, "horizon": 100.0},
        "initial": {"box": [-5.0, 5.0], "seed": DEFAULT_SEED},
        "diagnostics": {"lyapunov": True, "rate_fit": False},
    },
    "cdc18-scenario2": {
        "schema_version": 1,
        "name": "cdc18-scenario2",
        "graph": {"n": 3, "edges": PATH3_EDGES},
        "costs": {"kind": "quartic", "centers": SCENARIO2_CENTERS},
        "gains": {"alpha": 2.0, "beta": 2.0, "gamma": 6.0, "theta": 5.0},
        "algorithm": "continuous",
        "integration": {"step": 0.01, "horizon": 100.0},
        "initial": {"box": [-5.0, 5.0], "seed": DEFAULT_SEED},
        "diagnostics": {"lyapunov": True, "rate_fit": False},
    },
    "cdc18-scenario3": {
        "schema_version": 1,
        "name": "cdc18-scenario3",
        "graph": {"n": 3, "edges": PATH3_EDGES},
        "costs": {"kind": "quadratic_linear", "matrices": SCENARIO3_C, "linear_terms": SCENARIO3_LINEAR},
        "gains": {"alpha": 2.0, "beta": 2.0, "gamma": 6.0, "theta": 3.5},
        "algorithm": "continuous",
        "integration": {"step": 0.01, "horizon": 50.0},
        "initial": {"box": [-5.0, 5.0], "seed": DEFAULT_SEED},
        "diagnostics": {"lyapunov": True, "rate_fit": True},
    },
    "heavy-ball": {
        "schema_version": 1,
        "name": "heavy-ball",
        "graph": {"n": 1, "edges": []},
        "costs": {
            "kind": "quadratic_shift",
            "matrices": [[[1.0]]],
            "shifts": [[0.0]],
        },
        "gains": {"alpha": 2.0, "beta": 2.0, "gamma": 6.0, "theta": 5.0},
        "algorithm": "continuous",
        "integration": {"step": 0.01, "horizon": 5.0},
        "initial": {"x": [[1.0]], "y": [[0.0]]},
        "diagnostics": {"lyapunov": False, "rate_fit": False},
    },
}

# event-mode twin of scenario 3 (its quadratics carry global curvature
# bounds, so the triggered algorithm is admissible there)
_ev = copy.deepcopy(_PRESETS["cdc18-scenario3"])
_ev["name"] = "cdc18-scenario3-event"
_ev["algorithm"] = "event"
_PRESETS["cdc18-scenario3-event"] = _ev


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset_config(name: str) -> dict:
    """Deep copy of a bundled scenario config."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return copy.deepcopy(_PRESETS[name])
