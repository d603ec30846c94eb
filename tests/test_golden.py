"""Golden fixtures: the bundled presets' behaviour, pinned bit for bit.

For every preset run (the shared run fixtures of conftest.py), an
alternative-variant run of scenario 3 with Lyapunov diagnostics on, and
an event-mode run on a 30-agent ring with chords (agents of degree up to
5, so the disagreement sums of the trigger rule add several neighbour
terms, which the three-agent path cannot show), this module pins

- per-agent trigger counts, exactly;
- in event mode, a SHA-256 of every event's (agent, index, t), in log
  order, exactly;
- the terminal errors, to 1e-12 relative;
- a SHA-256 of the raw float64 bytes of the stored t, x, y, v and chi
  arrays, exactly;
- every Lyapunov column subsampled every 100 samples, and the V1
  monotonicity excess and the V2/V3 envelope excesses, each to
  1e-12 times the largest |value| of its column.

The file also names the OpenBLAS kernel its pins were recorded under
(``socopt.blas.blas_kernel``); a failing pin names that kernel and the one
this process loaded.

``golden.json`` is rewritten by

    PYTHONPATH=src python tests/test_golden.py --record [NAME ...]

which records every run, or with names (``run3_event``, ``ring30_event``,
...) only those entries, leaving the bytes of every other entry as they
are; naming entries is refused under another kernel than the file's.
Rerun it only with the reason for the change written in
CHANGES.md: the point of these fixtures is that a refactor leaves them
untouched.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from socopt.analysis import envelope_excess, monotonicity_excess
from socopt.harness import load_preset, run, scenario_from_dict
from socopt.presets import preset_config

from conftest import blas_kernel, kernel_note

GOLDEN = Path(__file__).with_name("golden.json")
SUBSAMPLE = 100
ERROR_RTOL = 1e-12
COLUMN_RTOL = 1e-12

# conftest fixture name -> preset it runs
PRESET_RUNS = {
    "run1": "cdc18-scenario1",
    "run2": "cdc18-scenario2",
    "run3": "cdc18-scenario3",
    "run3_event": "cdc18-scenario3-event",
    "run_heavy_ball": "heavy-ball",
}
RUN_NAMES = (*PRESET_RUNS, "run3_alternative", "ring30_event")

RING_N = 30
RING_P = 3
RING_SEED = 20240


def alternative_scenario():
    cfg = preset_config("cdc18-scenario3")
    cfg["name"] = "cdc18-scenario3-alternative"
    cfg["algorithm"] = "alternative"
    return scenario_from_dict(cfg)


def ring30_event_scenario():
    """A 30-agent ring plus 15 seeded chords (weights U[0.5, 2]), seeded
    strongly convex quadratic_linear costs, default trigger parameters,
    400 event-mode steps, Lyapunov off."""
    n, p = RING_N, RING_P
    rng = np.random.default_rng(RING_SEED)
    ring = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in ring]
    chords = [free[int(k)] for k in rng.choice(len(free), size=n // 2, replace=False)]
    pairs = sorted(ring) + sorted(chords)
    weights = rng.uniform(0.5, 2.0, len(pairs))
    matrices = []
    for _ in range(n):
        q = rng.standard_normal((p, p))
        matrices.append((q @ q.T / p + 0.5 * np.eye(p)).tolist())
    cfg = {
        "schema_version": 1,
        "name": "ring30-event",
        "graph": {"n": n, "edges": [[i, j, float(w)] for (i, j), w in zip(pairs, weights)]},
        "costs": {
            "kind": "quadratic_linear",
            "matrices": matrices,
            "linear_terms": rng.uniform(-2.0, 2.0, (n, p)).tolist(),
        },
        "gains": {"alpha": 2.0, "beta": 2.0, "gamma": 6.0, "theta": 0.5},
        "algorithm": "event",
        "integration": {"step": 0.01, "horizon": 4.0},
        "initial": {"box": [-5.0, 5.0], "seed": RING_SEED},
        "diagnostics": {"lyapunov": False, "rate_fit": False},
    }
    return scenario_from_dict(cfg)


@pytest.fixture(scope="module")
def run3_alternative():
    sc = alternative_scenario()
    return sc, run(sc)


@pytest.fixture(scope="module")
def ring30_event():
    sc = ring30_event_scenario()
    return sc, run(sc)


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def _events_sha256(events: np.recarray) -> str:
    """SHA-256 of the event log as float64 rows (agent, index, t)."""
    return _sha256(np.column_stack([events.agent, events.index, events.t]))


def fingerprint(rep) -> dict:
    """Everything this module pins about one run, as plain JSON data."""
    traj, er = rep.trajectory, rep.event_run
    arrays = {"t": traj.t, "x": traj.x, "y": traj.y, "v": traj.v}
    if er is not None:
        arrays["chi"] = er.chi
    cols = traj.extras
    excesses = {}
    if "V1" in cols:
        excesses["V1_monotonicity"] = monotonicity_excess(cols["V1"])
    c = rep.constants
    if "V2" in cols and c.eps3 is not None:
        excesses["V2_envelope"] = envelope_excess(traj.t, cols["V2"], c.eps3 / c.eps4)
    if "V3" in cols:
        excesses["V3_envelope"] = envelope_excess(traj.t, cols["V3"], c.eps9 / c.eps10)
    return {
        "trigger_counts": None if er is None else er.trigger_state.counts.tolist(),
        "events_sha256": None if er is None else _events_sha256(er.trigger_state.events),
        "terminal_error": rep.terminal_error,
        "terminal_error_to_solution_set": rep.terminal_error_to_solution_set,
        "sha256": {name: _sha256(a) for name, a in arrays.items()},
        "columns": {
            name: {"max_abs": float(np.abs(col).max()), "every_100": col[::SUBSAMPLE].tolist()}
            for name, col in sorted(cols.items())
        },
        "excesses": excesses,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("run_name", RUN_NAMES)
def test_golden(run_name, golden, request):
    _, rep = request.getfixturevalue(run_name)
    got, ref, note = fingerprint(rep), golden["runs"][run_name], kernel_note(golden["blas_kernel"])

    assert got["trigger_counts"] == ref["trigger_counts"], note
    assert got["events_sha256"] == ref["events_sha256"], note
    for key in ("terminal_error", "terminal_error_to_solution_set"):
        assert got[key] == pytest.approx(ref[key], rel=ERROR_RTOL, abs=0.0), f"{key}; {note}"
    assert got["sha256"] == ref["sha256"], note

    assert sorted(got["columns"]) == sorted(ref["columns"])
    for name, col in ref["columns"].items():
        tol = COLUMN_RTOL * col["max_abs"]
        gap = np.abs(np.asarray(got["columns"][name]["every_100"]) - np.asarray(col["every_100"])).max()
        assert gap <= tol, f"column {name} moved by {gap:.3e} > {tol:.3e}; {note}"

    assert sorted(got["excesses"]) == sorted(ref["excesses"])
    for name, value in ref["excesses"].items():
        tol = COLUMN_RTOL * ref["columns"][name.split("_")[0]]["max_abs"]
        assert abs(got["excesses"][name] - value) <= tol, f"{name}: {got['excesses'][name]!r} vs {value!r}; {note}"


SCENARIOS = {
    **{name: (lambda preset=preset: load_preset(preset)) for name, preset in PRESET_RUNS.items()},
    "run3_alternative": alternative_scenario,
    "ring30_event": ring30_event_scenario,
}


def record(names=RUN_NAMES) -> None:
    """Re-run and rewrite the named entries; the others are kept as loaded,
    which needs the kernel they were recorded under."""
    kernel = blas_kernel()
    if set(names) == set(RUN_NAMES):
        runs = {}
    else:
        doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if doc.get("blas_kernel", kernel) != kernel:
            raise SystemExit(
                f"entries recorded under BLAS kernel {doc['blas_kernel']!r}; this process loaded {kernel!r}: "
                "re-record every entry, or none"
            )
        runs = doc["runs"]
    for name in names:
        runs[name] = fingerprint(run(SCENARIOS[name]()))
    doc = {
        "note": "Written by tests/test_golden.py --record. Rerun only with the reason stated in CHANGES.md.",
        "blas_kernel": kernel,
        "runs": runs,
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def test_record_named_entry_keeps_the_others(tmp_path, monkeypatch):
    # spoil one entry, re-record only it: the file comes back byte for byte
    text = GOLDEN.read_text(encoding="utf-8")
    doc = json.loads(text)
    doc["runs"]["run_heavy_ball"]["terminal_error"] = -1.0
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    monkeypatch.setitem(globals(), "GOLDEN", path)
    record(["run_heavy_ball"])
    assert path.read_text(encoding="utf-8") == text


def test_record_named_entry_refused_under_another_kernel(tmp_path, monkeypatch):
    # the kept entries were recorded under the file's kernel; mixing is refused before anything runs
    path = tmp_path / "golden.json"
    path.write_text(GOLDEN.read_text(encoding="utf-8"), encoding="utf-8")
    monkeypatch.setitem(globals(), "GOLDEN", path)
    monkeypatch.setitem(globals(), "blas_kernel", lambda: "Other")
    text = path.read_text(encoding="utf-8")
    with pytest.raises(SystemExit, match=f"kernel '{json.loads(text)['blas_kernel']}'.*loaded 'Other'"):
        record(["run_heavy_ball"])
    assert path.read_text(encoding="utf-8") == text


if __name__ == "__main__":
    flag, *names = sys.argv[1:] or [None]
    unknown = sorted(set(names) - set(RUN_NAMES))
    if flag != "--record" or unknown:
        sys.exit(f"usage: python tests/test_golden.py --record [NAME ...], NAME one of {', '.join(RUN_NAMES)}")
    record(names or RUN_NAMES)
