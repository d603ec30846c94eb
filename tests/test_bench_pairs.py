import importlib.util
import json
import subprocess
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


def test_resolved_needs_a_narrow_base_spread_or_a_clean_separation():
    bound = {m["name"]: m["bound"] for m in bench_pairs.END_TO_END}["wall_s"]
    narrow = [1.0, 1.0, 1.0, 1.0, 1.0]
    wide = [1.0 - bound, 1.0 - bound, 1.0, 1.0 + bound, 1.0 + bound]  # (q3 - q1) / median = 2 * bound
    out = bench_pairs.summarize(_runs(wall_s=narrow), _runs(wall_s=[5.0] * 5))
    assert out["wall_s"]["resolved"]  # a narrow base resolves even a large regression
    out = bench_pairs.summarize(_runs(wall_s=wide), _runs(wall_s=[1.0] * 5))
    assert not out["wall_s"]["resolved"]  # the base's own spread exceeds the bound
    assert out["setup_s"]["resolved"]  # every run tied: no spread
    separated = [0.5 * (1.0 - bound)] * 5  # every change run below every base run
    assert bench_pairs.summarize(_runs(wall_s=wide), _runs(wall_s=separated))["wall_s"]["resolved"]
    assert bench_pairs.resolved(wide, [2.0] * 5, lower=False, bound=bound)  # higher is better, separated
    assert not bench_pairs.resolved(wide, [1.2] * 5, lower=False, bound=bound)  # not above the base's max
    assert bench_pairs.resolved([0.0] * 3, [0.0] * 3, lower=True, bound=0.1)  # zero base, no spread


def test_checkout_records_commit_and_uncommitted_changes(tmp_path):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    head, where = git("rev-parse", "HEAD"), str(tmp_path.resolve())
    assert bench_pairs.checkout(tmp_path) == {"path": where, "commit": head, "dirty": False}
    (tmp_path / "a.txt").write_text("two\n")
    assert bench_pairs.checkout(tmp_path) == {"path": where, "commit": head, "dirty": True}
    git("commit", "-q", "-am", "two")
    assert bench_pairs.checkout(tmp_path) == {"path": where, "commit": git("rev-parse", "HEAD"), "dirty": False}
    (tmp_path / "b.txt").write_text("new\n")  # an untracked file counts as a change
    assert bench_pairs.checkout(tmp_path)["dirty"]


def test_checkout_outside_a_work_tree_is_unknown(tmp_path):
    assert bench_pairs.checkout(tmp_path) == {"path": str(tmp_path.resolve()), "commit": None, "dirty": None}


def test_checkout_path_is_absolute(tmp_path, monkeypatch):
    # a relative argument is recorded as the directory it named
    (tmp_path / "side").mkdir()
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.checkout(Path("side"))["path"] == str((tmp_path / "side").resolve())


def test_host_names_the_blas_kernel():
    # one implementation, shared with the pin tests: a BENCH_*.json says
    # which kernel its timings came from, as golden.json says for its pins
    import conftest
    from socopt.blas import blas_kernel

    assert bench_pairs.blas_kernel is conftest.blas_kernel is blas_kernel
    kernel = bench_pairs.host()["blas_kernel"]
    assert kernel == blas_kernel() and (kernel is None or isinstance(kernel, str) and kernel)


def test_checkout_paths_of_unequal_length_are_refused(tmp_path, capsys, monkeypatch):
    # the path's length alone has moved a workload's timing by 2.7%: exit 2
    # naming both paths, before any run starts
    for side in ("a", "bb", "c"):
        (tmp_path / side).mkdir()
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "bb")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str((tmp_path / "a").resolve()) in err and str((tmp_path / "bb").resolve()) in err
    # equal lengths pass the check and go on to the runs
    with pytest.raises(pytest.fail.Exception, match="a run started"):
        bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "c"), "--pairs", "2"])


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_are_refused(pairs, tmp_path, capsys, monkeypatch):
    # the quartiles of one run per side do not exist: exit 2 before any run
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "b"), "--pairs", pairs])
    assert exc.value.code == 2
    assert f"--pairs must be at least 2, got {pairs}" in capsys.readouterr().err
