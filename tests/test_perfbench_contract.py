"""The benchmark's kernel micro-timings still run against the package.

``perfbench/kernels.py`` calls ``rhs_continuous``, ``rhs_alternative``,
``rhs_event``, ``rk4_step``, ``TriggerState(...)``, ``Trajectory.state_at``,
``make_trigger_law(eps0=, eps8=, denominator=)`` and more on the inputs of
each workload.  These tests run it on short versions of the three
workloads and of the event scaling step so that an API change that would
break the traced benchmark fails here first.  One test checks that every
set-up span the benchmark reads is still entered during set-up.  The last
test applies the benchmark's correctness gate, at three recorded seeds, to the ring300-event
run and to every preset of the presets workload (the runs the probed
stepper steps, the event preset among them).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from socopt import harness, presets

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PRESET_KERNELS = {
    "costs.grad_stack_us",
    "graph.laplacian_apply_us",
    "dynamics.rhs_continuous_us",
    "dynamics.rk4_step_us",
    "events.qhat_us",
    "events.trigger_sweep_us",
    "events.rhs_event_us",
    "analysis.lyapunov_sample_us",
    "analysis.fit_rate_ms",
}
RING_EVENT_KERNELS = {
    "costs.grad_stack_us",
    "graph.laplacian_apply_us",
    "events.qhat_us",
    "events.trigger_sweep_us",
    "events.rhs_event_us",
}
RING_CONTINUOUS_KERNELS = {
    "costs.grad_stack_us",
    "graph.laplacian_apply_us",
    "dynamics.rhs_continuous_us",
    "dynamics.rhs_alternative_us",
    "dynamics.rk4_step_us",
}


@pytest.fixture
def kernels(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import kernels

    return kernels


def _check(timings: dict, used: set):
    assert used <= set(timings)
    for name, value in timings.items():
        if name in used:
            assert np.isfinite(value) and value > 0.0, name
        else:
            assert value == 0.0, name


def _run(cfgs):
    return [harness.run(harness.scenario_from_dict(cfg)) for cfg in cfgs]


def test_kernel_timings_presets(kernels):
    cfgs = [presets.preset_config(name) for name in ("cdc18-scenario3", "cdc18-scenario3-event")]
    for cfg in cfgs:
        cfg["integration"]["horizon"] = 1.0
    _check(kernels.kernel_timings("presets", cfgs, _run(cfgs)), PRESET_KERNELS)


def test_kernel_timings_ring_continuous(kernels):
    import workloads

    cfgs = [workloads.ring_config(workloads.DEFAULT_SEED, 3, alg, 0.2) for alg in ("continuous", "alternative")]
    _check(kernels.kernel_timings("ring300-continuous", cfgs, _run(cfgs)), RING_CONTINUOUS_KERNELS)


def test_kernel_timings_ring_event_and_event_step(kernels):
    import workloads

    cfgs = [workloads.ring_config(workloads.DEFAULT_SEED, 3, "event", 0.2)]
    _check(kernels.kernel_timings("ring300-event", cfgs, _run(cfgs)), RING_EVENT_KERNELS)
    step_us = kernels._step_us(cfgs[0], "event")
    assert np.isfinite(step_us) and step_us > 0.0


# set-up spans that ``bench.traced_setup`` reads but set-up never enters:
# ``varphi_all`` runs in ``make_trigger_law``, inside ``run``, so its metric
# reads 0 on every workload until the benchmark times it where it runs
SETUP_SPANS_NOT_IN_SETUP = ["events.varphi_all_ms"]


def test_traced_setup_spans_are_live(monkeypatch):
    # every set-up span the benchmark reads is a function set-up still calls:
    # a rename or move (say of ``costs.estimate_mf``) reads 0, not an error
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    import workloads

    timings = bench.traced_setup(workloads.workload_configs("presets", workloads.DEFAULT_SEED))
    assert all(name.endswith("_ms") for name in timings)
    assert sorted(name for name, ms in timings.items() if not ms > 0.0) == SETUP_SPANS_NOT_IN_SETUP


GATE_SEEDS = (12345, 1, 7)
PRESETS = presets.preset_names()


@pytest.mark.parametrize(
    "workload, seed, name",
    [("ring300-event", seed, "ring300-event") for seed in GATE_SEEDS]
    + [("presets", seed, name) for seed in GATE_SEEDS for name in PRESETS],
)
def test_event_outcomes_match_benchmark_reference(monkeypatch, workload, seed, name):
    # the benchmark's correctness gate: broadcast counts exact and terminal
    # errors within its tolerance of the outcomes recorded in reference.json
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    recorded = json.loads((PERFBENCH / "reference.json").read_text())["seeds"][workload][str(seed)]
    [cfg] = [c for c in workloads.workload_configs(workload, seed) if c["name"] == name]
    [ref] = [r for r in recorded if r["name"] == name]
    _, [outcome], _ = workloads.run_pass([cfg])
    assert workloads.mismatch(outcome, ref) is None
