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
