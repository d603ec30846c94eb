import numpy as np
import pytest

from socopt.blas import blas_kernel
from socopt.costs import quadratic_family, quartic_family
from socopt.dynamics import GainParams
from socopt.graph import build_graph
from socopt.harness import load_preset, run, scenario_from_dict
from socopt.presets import (
    SCENARIO1_A,
    SCENARIO1_SHIFTS,
    SCENARIO2_CENTERS,
    SCENARIO3_C,
    SCENARIO3_LINEAR,
    preset_config,
)


@pytest.fixture(scope="session")
def path3():
    return build_graph([(1, 2, 1.0), (2, 3, 1.0)])


@pytest.fixture(scope="session")
def obj1():
    return quadratic_family(SCENARIO1_A, shifts=SCENARIO1_SHIFTS)


@pytest.fixture(scope="session")
def obj2():
    return quartic_family(SCENARIO2_CENTERS)


@pytest.fixture(scope="session")
def obj3():
    return quadratic_family(SCENARIO3_C, linear_terms=SCENARIO3_LINEAR)


@pytest.fixture(scope="session")
def gains_theta5():
    return GainParams(alpha=2.0, beta=2.0, gamma=6.0, theta=5.0)


@pytest.fixture(scope="session")
def gains_theta35():
    return GainParams(alpha=2.0, beta=2.0, gamma=6.0, theta=3.5)


def random_connected_graph(rng, n):
    """Random spanning tree plus a few extra edges, weights in [0.5, 2]."""
    edges = []
    seen = set()
    for k in range(1, n):
        j = int(rng.integers(0, k))
        edges.append((j, k, float(rng.uniform(0.5, 2.0))))
        seen.add((j, k))
    for _ in range(int(rng.integers(0, n))):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (i, j) not in seen:
            seen.add((i, j))
            edges.append((i, j, float(rng.uniform(0.5, 2.0))))
    return build_graph(edges, n=n)  # 0-based: the tree starts with edge (0, 1)


def unit_ring_scenario(preset: str, n: int, costs: dict, horizon: float):
    """``preset`` with its graph replaced by an n-agent ring of unit
    weights and its costs by ``costs``, at ``horizon``, Lyapunov off."""
    cfg = preset_config(preset)
    cfg["graph"] = {"n": n, "edges": [[i, (i + 1) % n, 1.0] for i in range(n)]}
    cfg["costs"] = costs
    cfg["integration"]["horizon"] = horizon
    cfg["diagnostics"] = {"lyapunov": False, "rate_fit": False}
    return scenario_from_dict(cfg)


# the preset runs are expensive enough to share across test modules
@pytest.fixture(scope="session")
def run1():
    sc = load_preset("cdc18-scenario1")
    return sc, run(sc)


@pytest.fixture(scope="session")
def run2():
    sc = load_preset("cdc18-scenario2")
    return sc, run(sc)


@pytest.fixture(scope="session")
def run3():
    sc = load_preset("cdc18-scenario3")
    return sc, run(sc)


@pytest.fixture(scope="session")
def run3_event():
    sc = load_preset("cdc18-scenario3-event")
    return sc, run(sc)


@pytest.fixture(scope="session")
def run_heavy_ball():
    sc = load_preset("heavy-ball")
    return sc, run(sc)


def heavy_ball_closed_form(t, gamma=6.0, alpha=2.0):
    """x(t) for xdd + gamma*xd + alpha*x = 0 with x(0)=1, xd(0)=0."""
    disc = np.sqrt(gamma**2 / 4.0 - alpha)
    r1, r2 = -gamma / 2.0 + disc, -gamma / 2.0 - disc
    c1 = r2 / (r2 - r1)
    c2 = 1.0 - c1
    return c1 * np.exp(r1 * np.asarray(t)) + c2 * np.exp(r2 * np.asarray(t))


def kernel_note(recorded: str | None) -> str:
    """Names the kernel pins were recorded under and the one this process loaded."""
    return f"pins recorded under BLAS kernel {recorded!r}; this process loaded {blas_kernel()!r}"
