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
"""

import hashlib
import json

from socopt.cli import main as cli_main
from socopt.harness import run, scenario_from_dict
from socopt.presets import preset_config, preset_names

from conftest import kernel_note

BLAS_KERNEL = "SkylakeX"
REPORT_SHA256 = {
    "cdc18-scenario1_summary.json": "422333baf47cf3c91b176f84e190fb2936f40f57cc68610e3e6a5b6fd85dba34",
    "cdc18-scenario2_constants.json": "d55ddd446c0ab896962ac1f2e704f56867e84825353eb3cf0e3f3bc058548d79",
    "cdc18-scenario2_summary.json": "9adf3eaa4daf64d223c086b7007790ca9d3f6b4a632ff319a23216ceb215a13c",
    "cdc18-scenario3_constants.json": "990b176856ba36cabf2de22d6fe8bb39adec95e4169da29dc9f9282a880f38d4",
    "cdc18-scenario3_summary.json": "d7e281e16120708771da86ed1154595cea41de98364b9f27926f5112a4050367",
    "cdc18-scenario3-event_constants.json": "91fdec9b6aa9a3e88f69784962f34ae966393af77e1f38c23cb832ad37764ffc",
    "cdc18-scenario3-event_events.csv": "7a4ac87d63f04dfce58d87bfae8eebb04d734b34b0aa7aa8346912ad7afba055",
    "cdc18-scenario3-event_summary.json": "304956ce1a9b0aef376310373dea0ed3f6d7e7f6e240cace84a15b8633d60c52",
    "heavy-ball_summary.json": "343c975eb23a063158374728a9b96e4373409ca5e10b704bad8191333c76e623",
}

CONSTANTS_CLI_SHA256 = {
    "cdc18-scenario1 stdout": "73b06ba53cc2f9cef8f960e2741cd5b871a17219012524cb2d165a925f7bc0fd",
    "cdc18-scenario2 stdout": "01ff7e9a54e4bede544755aaed1ab8ee93f6182eb55a98a85b7ca54bd24828c0",
    "cdc18-scenario2_constants.json": "d55ddd446c0ab896962ac1f2e704f56867e84825353eb3cf0e3f3bc058548d79",
    "cdc18-scenario3 stdout": "e88d949aede7c32f4e3b989ca4d94c6c0024b7e9f725780a8c9f1fb167eb00ca",
    "cdc18-scenario3_constants.json": "990b176856ba36cabf2de22d6fe8bb39adec95e4169da29dc9f9282a880f38d4",
    "cdc18-scenario3-event stdout": "1558a99210680355986f935978fce1edcd02a30894ea2bb85edcb65e6c284393",
    "cdc18-scenario3-event_constants.json": "91fdec9b6aa9a3e88f69784962f34ae966393af77e1f38c23cb832ad37764ffc",
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


def constants_cli_hashes(out_dir, capsys) -> dict[str, str]:
    """SHA-256 of what ``socopt constants --preset NAME`` writes and prints."""
    hashes = {}
    for name in preset_names():
        assert cli_main(["constants", "--preset", name, "--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out.replace(str(out_dir), "<out>")
        hashes[f"{name} stdout"] = _sha256(printed.encode())
        path = out_dir / f"{name}_constants.json"
        if path.exists():
            hashes[path.name] = _sha256(path.read_bytes())
    return hashes


def test_preset_report_files_pinned(tmp_path):
    assert report_hashes(tmp_path) == REPORT_SHA256, kernel_note(BLAS_KERNEL)


def test_constants_command_output_pinned(tmp_path, capsys):
    assert constants_cli_hashes(tmp_path, capsys) == CONSTANTS_CLI_SHA256, kernel_note(BLAS_KERNEL)
