"""The report files of the five bundled presets, pinned byte for byte.

Each preset runs at its shipped horizon with an output directory, and
the SHA-256 of its ``_constants.json``, ``_events.csv`` and
``_summary.json`` must equal the hash recorded below.  The summary is
hashed without ``runtime_s`` and ``timings`` (wall times) and ``files``
(paths under the temporary directory), re-serialised with the writer's
own settings after checking that those settings reproduce the file.
``socopt constants`` is pinned the same way: the files it writes and
what it prints, with the output directory replaced by ``<out>``.

A change to the program that alters any of these bytes is a change of
behaviour, and should show here.  A hash is re-recorded only for a
deliberate change, with the reason and the moved values in CHANGES.md.
``BLAS_KERNEL`` names the OpenBLAS kernel the hashes were recorded under
(``socopt.blas.blas_kernel``), and a failing pin names it and the kernel
this process loaded.

    PYTHONPATH=src python tests/test_reports.py --print

prints both pin tables as recomputed, marking each entry that differs
from its pin, for pasting here after a deliberate change; it refuses
under another kernel than ``BLAS_KERNEL``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from socopt.cli import main as cli_main
from socopt.harness import run, scenario_from_dict
from socopt.presets import preset_config, preset_names

from conftest import blas_kernel, kernel_note

BLAS_KERNEL = "SkylakeX"
REPORT_SHA256 = {
    "cdc18-scenario1_summary.json": "460a19919c54ba462d0f44fbfe244806145820b0c3e7260832fed2f1664201cd",
    "cdc18-scenario2_constants.json": "6c288f907f331a7719868a3f900c0736efc72cced21da8c7476ac533e2015a70",
    "cdc18-scenario2_summary.json": "c705f8520a80a5541e4e17fa5c43df2ba8a32379eb7beb53e3c411389f9d2a07",
    "cdc18-scenario3_constants.json": "a9ce4da0fdc0b1ff202b6e1ffc29f619ef751d183d6031f46bdd61b7b3f2fa30",
    "cdc18-scenario3_summary.json": "625314affee845291e17393dcb0393d4333a09fcdfecd55424bc95ce9b241d04",
    "cdc18-scenario3-event_constants.json": "25439cda1094b5976d58a04c50644b3685096433fbbce10cb5a933b7ac0a43c6",
    "cdc18-scenario3-event_events.csv": "7a4ac87d63f04dfce58d87bfae8eebb04d734b34b0aa7aa8346912ad7afba055",
    "cdc18-scenario3-event_summary.json": "75a5b332ffa7eb6562a23265374fa5f80a19440ca3c5e0669c8382618aea34fb",
    "heavy-ball_summary.json": "343c975eb23a063158374728a9b96e4373409ca5e10b704bad8191333c76e623",
}

CONSTANTS_CLI_SHA256 = {
    "cdc18-scenario1 stdout": "73b06ba53cc2f9cef8f960e2741cd5b871a17219012524cb2d165a925f7bc0fd",
    "cdc18-scenario2 stdout": "b4fc921a5e2516dd21d0aa991a838d228c5a2e6fc95d009649a3034468584fbe",
    "cdc18-scenario2_constants.json": "6c288f907f331a7719868a3f900c0736efc72cced21da8c7476ac533e2015a70",
    "cdc18-scenario3 stdout": "2256dd44461c9559dfc94fa8d8419d6851b2fdb1f89903ad39fb650974beedd1",
    "cdc18-scenario3_constants.json": "a9ce4da0fdc0b1ff202b6e1ffc29f619ef751d183d6031f46bdd61b7b3f2fa30",
    "cdc18-scenario3-event stdout": "150b2d702ab69fef72ed305e5fab7184a4b24e9ea8d8a7c01aba1ced3cb6d7aa",
    "cdc18-scenario3-event_constants.json": "25439cda1094b5976d58a04c50644b3685096433fbbce10cb5a933b7ac0a43c6",
    "heavy-ball stdout": "dc32873d07b5ee1944f36b87183c32ef9272b28739c2832714825b03b0af3ec4",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _summary_bytes(raw: bytes) -> bytes:
    summary = json.loads(raw)
    assert (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode() == raw
    del summary["runtime_s"], summary["timings"], summary["files"]
    return (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()


def report_hashes(out_dir) -> dict[str, str]:
    """SHA-256 of every pinned report file the five presets emit."""
    hashes = {}
    for name in preset_names():
        run(scenario_from_dict(preset_config(name)), out_dir=out_dir)
        for kind in ("constants", "events", "summary"):
            path = out_dir / f"{name}_{kind}.{'csv' if kind == 'events' else 'json'}"
            if path.exists():
                raw = path.read_bytes()
                hashes[path.name] = _sha256(_summary_bytes(raw) if kind == "summary" else raw)
    return hashes


def constants_cli_hashes(out_dir) -> dict[str, str]:
    """SHA-256 of what ``socopt constants --preset NAME`` writes and prints."""
    hashes = {}
    for name in preset_names():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert cli_main(["constants", "--preset", name, "--out", str(out_dir)]) == 0
        hashes[f"{name} stdout"] = _sha256(printed.getvalue().replace(str(out_dir), "<out>").encode())
        path = out_dir / f"{name}_constants.json"
        if path.exists():
            hashes[path.name] = _sha256(path.read_bytes())
    return hashes


def test_preset_report_files_pinned(tmp_path):
    assert report_hashes(tmp_path) == REPORT_SHA256, kernel_note(BLAS_KERNEL)


def test_constants_command_output_pinned(tmp_path):
    assert constants_cli_hashes(tmp_path) == CONSTANTS_CLI_SHA256, kernel_note(BLAS_KERNEL)


def print_pins() -> None:
    """Print both pin tables as recomputed, each entry that differs from
    its pin marked with the pinned value; refused, before anything runs,
    under another kernel than the pins were recorded under."""
    kernel = blas_kernel()
    if kernel != BLAS_KERNEL:
        raise SystemExit(
            f"pins recorded under BLAS kernel {BLAS_KERNEL!r}; this process loaded {kernel!r}: "
            f"recompute them under {BLAS_KERNEL!r}"
        )
    for title, pinned, hashes in (
        ("REPORT_SHA256", REPORT_SHA256, report_hashes),
        ("CONSTANTS_CLI_SHA256", CONSTANTS_CLI_SHA256, constants_cli_hashes),
    ):
        with tempfile.TemporaryDirectory() as out_dir:
            got = hashes(Path(out_dir))
        print(f"{title} = {{")
        for key in sorted(got.keys() | pinned.keys()):
            note = "" if got.get(key) == pinned.get(key) else f"  # differs; pinned {pinned.get(key)}"
            print(f'    "{key}": "{got.get(key)}",{note}')
        print("}")


def test_print_pins_refused_under_another_kernel(monkeypatch):
    monkeypatch.setitem(globals(), "blas_kernel", lambda: "Other")
    with pytest.raises(SystemExit, match=f"kernel '{BLAS_KERNEL}'; this process loaded 'Other'"):
        print_pins()


if __name__ == "__main__":
    if sys.argv[1:] != ["--print"]:
        sys.exit("usage: python tests/test_reports.py --print")
    print_pins()
