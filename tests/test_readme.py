"""The README's "Library use" example runs as written."""

from __future__ import annotations

import re
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


def test_provider_list_is_the_registry():
    # a provider added to the registry is named where README lists them
    from chainsig.schemes import registry

    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"`CHAINSIG_PROVIDER` forces a single provider [^(]*\(([^)]*)\)", text)
    assert listed is not None, "README no longer lists the CHAINSIG_PROVIDER names"
    assert sorted(re.findall(r"`([^`]+)`", listed.group(1))) == sorted(registry._PROVIDERS)
