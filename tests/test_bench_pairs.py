import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(**values):
    """One run dict per position, every end-to-end metric set; metrics not
    given read 1.0."""
    k = len(next(iter(values.values())))
    return [
        {"metrics": {m["name"]: {"value": values.get(m["name"], [1.0] * k)[r]} for m in bench_pairs.END_TO_END}}
        for r in range(k)
    ]


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}


def test_ties_count_for_neither_side():
    base = _runs(wall_s=[1.0, 2.0, 3.0, 4.0], agent_steps_per_s=[10.0, 20.0, 30.0, 40.0])
    change = _runs(wall_s=[1.0, 1.5, 3.0, 5.0], agent_steps_per_s=[10.0, 25.0, 30.0, 35.0])
    out = bench_pairs.summarize(base, change)
    assert out["wall_s"]["pairs_better"] == 1  # lower is better: only 1.5 < 2.0
    assert out["agent_steps_per_s"]["pairs_better"] == 1  # higher is better: only 25 > 20
    assert out["setup_s"]["pairs_better"] == 0  # every pair tied
    assert out["wall_s"]["base_runs"] == [1.0, 2.0, 3.0, 4.0]
    assert out["wall_s"]["change_runs"] == [1.0, 1.5, 3.0, 5.0]


def test_change_over_base_is_ratio_of_medians():
    base = _runs(wall_s=[2.0, 4.0, 6.0], triggers_total=[0.0, 0.0, 0.0])
    change = _runs(wall_s=[1.0, 3.0, 9.0], triggers_total=[0.0, 0.0, 0.0])
    out = bench_pairs.summarize(base, change)
    assert out["wall_s"]["base"]["median"] == 4.0 and out["wall_s"]["change"]["median"] == 3.0
    assert out["wall_s"]["change_over_base"] == pytest.approx(0.75)
    assert out["triggers_total"]["change_over_base"] is None  # a zero base median has no ratio


def test_metric_table_is_benchmark_json():
    table = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_pairs.END_TO_END == table
    out = bench_pairs.summarize(_runs(wall_s=[1.0, 2.0, 3.0]), _runs(wall_s=[1.0, 2.0, 3.0]))
    assert list(out) == [m["name"] for m in table]


def test_within_bound_follows_direction_and_bound():
    bound = {m["name"]: m["bound"] for m in bench_pairs.END_TO_END}
    worse_wall = 4.0 * (1.0 + bound["wall_s"])  # exactly at the bound
    base = _runs(wall_s=[4.0, 4.0, 4.0], agent_steps_per_s=[100.0, 100.0, 100.0], peak_rss_mb=[50.0] * 3)
    change = _runs(wall_s=[worse_wall] * 3, agent_steps_per_s=[70.0] * 3, peak_rss_mb=[40.0] * 3)
    out = bench_pairs.summarize(base, change)
    assert out["wall_s"]["within_bound"]  # lower is better, no worse than the bound
    assert out["peak_rss_mb"]["within_bound"]  # better
    assert not out["agent_steps_per_s"]["within_bound"]  # higher is better: 30% worse
    assert bench_pairs.within_bound(1.0, 1.21, lower=True, bound=0.2) is False
    assert bench_pairs.within_bound(1.0, 0.81, lower=False, bound=0.2) is True
    assert bench_pairs.within_bound(0.0, 0.0, lower=True, bound=0.1)  # zero base, no change
