"""A run imports only what it uses.

Backends load when a variant asks for one, and numpy loads only when a
run simulates, which is after its last timed call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainsig.report import Operation, ReportDataset, ReportRow, Stage, write_csv

SRC = Path(__file__).resolve().parent.parent / "src"

# a replay simulates, so it loads numpy, and numpy loads ctypes; the oqs
# module stands for chainsig's own use of ctypes
UNUSED_BY_REPLAY = (
    "cryptography",
    "xml.sax",
    "chainsig.schemes.ecdsa",
    "chainsig.schemes.oqs",
    "chainsig.schemes.pqclean",
    "chainsig.schemes.stub",
)

#: loaded only by the simulation stage
SIMULATION_ONLY = ("numpy", "ctypes")

#: a small live run: the two level-1 Falcon variants, measured briefly
LIVE_ARGS = (
    "--families", "Falcon", "Falcon-padded", "--levels", "1", "--runs", "5", "--warm-up", "1",
    "--runs-simulator", "3", "--output-dir", "out",
)


def _child(code: str, tmp_path: Path, provider: str | None = None) -> object:
    """Run code in a fresh interpreter in tmp_path; return the JSON its last stdout line holds."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("CHAINSIG_PROVIDER", None)
    if provider is not None:
        env["CHAINSIG_PROVIDER"] = provider
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_after(
    code: str,
    tmp_path: Path,
    watched: tuple[str, ...] = UNUSED_BY_REPLAY,
    provider: str | None = None,
) -> set[str]:
    """Run code in a fresh interpreter; return the names of watched it loaded."""
    script = (
        "import json, sys\n"
        f"{code}\n"
        f"print(json.dumps([n for n in {watched!r} if n in sys.modules]))\n"
    )
    return set(_child(script, tmp_path, provider))


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


def test_import_loads_neither_numpy_nor_ctypes(tmp_path):
    assert _loaded_after("import chainsig.cli", tmp_path, SIMULATION_ONLY) == set()


def test_run_without_simulation_never_loads_numpy(tmp_path):
    code = (
        "from chainsig.cli import main\n"
        f"assert main({[*LIVE_ARGS, '--skip-simulation']!r}) == 0"
    )
    assert _loaded_after(code, tmp_path, SIMULATION_ONLY, provider="stub") == set()
    assert (tmp_path / "out" / "benchmark.csv").is_file()


def test_every_timed_call_returns_before_numpy_loads(tmp_path):
    # each benchmark_variant call records whether numpy is loaded and, on
    # Linux, how many threads the process runs (None elsewhere)
    code = (
        "import json, os, sys\n"
        "import chainsig.cli as cli\n"
        "calls = []\n"
        "measure = cli.benchmark_variant\n"
        "def threads():\n"
        "    if not os.path.isdir('/proc/self/task'):\n"
        "        return None\n"
        "    return len(os.listdir('/proc/self/task'))\n"
        "def recorded(*args):\n"
        "    record = measure(*args)\n"
        "    calls.append(['numpy' in sys.modules, threads()])\n"
        "    return record\n"
        "cli.benchmark_variant = recorded\n"
        f"assert cli.main({list(LIVE_ARGS)!r}) == 0\n"
        "print(json.dumps({'calls': calls, 'numpy': 'numpy' in sys.modules}))"
    )
    result = _child(code, tmp_path, provider="stub")
    assert len(result["calls"]) == 2
    for numpy_loaded, threads in result["calls"]:
        assert not numpy_loaded
        if sys.platform.startswith("linux"):
            assert threads == 1
    # the simulation stage ran, and it loaded numpy
    assert result["numpy"]
    assert (tmp_path / "out" / "simulation.csv").is_file()
