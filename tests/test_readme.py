"""README text that the code must match: its examples run, and its lists name what the code has."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library use'"
    monkeypatch.setenv("CHAINSIG_PROVIDER", "stub")
    exec(compile(block.group(1), str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert "StatSummary(" in printed and "n=1000" in printed


def test_library_use_snippet_runs(tmp_path):
    # in a fresh interpreter, so nothing the test session loaded or set helps it
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library use'"
    env = {**os.environ, "CHAINSIG_PROVIDER": "stub", "PYTHONPATH": str(README.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", block.group(1)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    assert len(printed) == 2
    assert all(line.startswith("StatSummary(") for line in printed)


def test_provider_list_is_the_registry():
    # a provider added to the registry is named where README lists them
    from chainsig.schemes import registry

    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"`CHAINSIG_PROVIDER` forces a single provider [^(]*\(([^)]*)\)", text)
    assert listed is not None, "README no longer lists the CHAINSIG_PROVIDER names"
    assert sorted(re.findall(r"`([^`]+)`", listed.group(1))) == sorted(registry._PROVIDERS)


def test_flag_table_is_the_parser():
    # a flag added to the parser is listed in README's "Flags" table, and
    # a flag the table lists is one the parser takes
    from chainsig.cli import _build_parser

    table = README.read_text(encoding="utf-8").split("\nFlags:\n", 1)[1].split("\n\n", 1)[0]
    cells = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    listed = [code.split()[0] for cell in cells for code in re.findall(r"`([^`]+)`", cell)]
    parsed = [
        option
        for action in _build_parser()._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    ]
    assert sorted(listed) == sorted(parsed)
    assert len(listed) == len(set(listed))


def test_every_environment_variable_is_documented():
    # a CHAINSIG_* variable the code reads is named in README
    text = README.read_text(encoding="utf-8")
    source = README.parent / "src" / "chainsig"
    names = {
        name
        for path in source.rglob("*.py")
        for name in re.findall(r"CHAINSIG_[A-Z_]+", path.read_text(encoding="utf-8"))
    }
    assert names == {"CHAINSIG_PROVIDER", "CHAINSIG_LIBOQS", "CHAINSIG_LIBOQS_CROSS"}
    assert [name for name in sorted(names) if f"`{name}`" not in text] == []


def test_outputs_name_every_manifest_key(tmp_path, monkeypatch):
    # a key a live run or a replay writes to manifest.json, or a field of a
    # `variants` record, is named in backticks in README's "Outputs"
    from chainsig.cli import main

    outputs = README.read_text(encoding="utf-8").split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
    monkeypatch.setenv("CHAINSIG_PROVIDER", "stub")
    live, replay = tmp_path / "live", tmp_path / "replay"
    common = ["--families", "ECDSA", "--levels", "1", "--runs-simulator", "2"]
    assert main([*common, "--runs", "2", "--warm-up", "0", "--output-dir", str(live)]) == 0
    source = str(live / "benchmark.csv")
    assert main([*common, "--replay-benchmarks", source, "--output-dir", str(replay)]) == 0
    keys = set()
    for out in (live, replay):
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        keys |= set(manifest)
        for record in manifest["variants"].values():
            keys |= set(record)
            keys |= {field for stat in record.values() if isinstance(stat, dict) for field in stat}
    assert {"variants", "replayed_from", "seconds", "verify", "mean_ms"} <= keys
    assert sorted(key for key in keys if f"`{key}`" not in outputs) == []
