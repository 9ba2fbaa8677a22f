"""A run imports only what it uses: backends load when a variant asks for one."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainsig.report import Operation, ReportDataset, ReportRow, Stage, write_csv

SRC = Path(__file__).resolve().parent.parent / "src"

# numpy imports ctypes itself, so ctypes is not in this list; the oqs
# module stands for chainsig's own use of it
UNUSED_BY_REPLAY = (
    "cryptography",
    "xml.sax",
    "chainsig.schemes.ecdsa",
    "chainsig.schemes.oqs",
    "chainsig.schemes.pqclean",
    "chainsig.schemes.stub",
)


def _loaded_after(code: str, tmp_path: Path) -> set[str]:
    """Run code in a fresh interpreter; return the names of UNUSED_BY_REPLAY it loaded."""
    script = (
        "import json, sys\n"
        f"{code}\n"
        f"print(json.dumps([n for n in {UNUSED_BY_REPLAY!r} if n in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("CHAINSIG_PROVIDER", None)
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_loads_no_backend(tmp_path):
    assert _loaded_after("import chainsig.cli", tmp_path) == set()


def test_replay_loads_no_backend(tmp_path):
    replay = tmp_path / "replay.csv"
    write_csv(
        ReportDataset(
            tuple(
                ReportRow("host", "ECDSA", "P-256", 1, Stage.BENCHMARK, None, op, 0.05, 0.001, 100)
                for op in Operation
            )
        ),
        replay,
    )
    code = (
        "from chainsig.cli import main\n"
        "assert main(['--families', 'ECDSA', '--levels', '1', '--runs-simulator', '3',"
        f" '--replay-benchmarks', {str(replay)!r}, '--output-dir', 'out']) == 0"
    )
    assert _loaded_after(code, tmp_path) == set()
    assert (tmp_path / "out" / "simulation.csv").is_file()


def test_instantiate_loads_the_backend_it_uses(tmp_path):
    pytest.importorskip("cryptography")
    code = (
        "from chainsig.schemes import by_variant, instantiate\n"
        "instantiate(by_variant()['P-256'])"
    )
    assert _loaded_after(code, tmp_path) == {"cryptography", "chainsig.schemes.ecdsa"}
