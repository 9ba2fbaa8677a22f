"""A replay gives the same bytes under every Python that can run chainsig.

The simulator promises the same draws for a seed on every Python, and a
replay promises byte-identical CSVs and charts. This runs one replay
in-process and again under each other python3.N on PATH, and compares
the outputs byte for byte. Each manifest must also name the source CSV
by its SHA-256, which a replay takes from `_sha2` (Python 3.12 on) or
`_sha256` (3.10 and 3.11).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from chainsig.cli import main
from chainsig.report import Operation, ReportDataset, ReportRow, Stage, write_csv

SRC = Path(__file__).resolve().parent.parent / "src"

# the ECDSA family, one variant in each chart group, so every chart is compared
_CELLS = (("ECDSA", "P-256", 1), ("ECDSA", "P-384", 3), ("ECDSA", "P-521", 5))


def _other_interpreters() -> list[str]:
    """Each python3.N (N >= 10, not the running minor) on PATH that starts as that version."""
    found = []
    for minor in range(10, 30):
        executable = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or executable is None:
            continue
        try:
            done = subprocess.run(
                [executable, "-c", "import sys; print(*sys.version_info[:2])"],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.returncode == 0 and done.stdout.split() == ["3", str(minor)]:
            found.append(executable)
    return found


def _outputs(output_dir: Path) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(output_dir.iterdir())
        if path.suffix in {".csv", ".svg"}
    }


def _replayed_sha256(output_dir: Path) -> str:
    manifest = json.loads((output_dir / "manifest.json").read_text(encoding="utf-8"))
    return manifest["replayed_from"]["sha256"]


def test_replay_is_byte_identical_under_other_interpreters(tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.N (N >= 10) on PATH starts here")
    source = tmp_path / "benchmark.csv"
    rows = tuple(
        ReportRow(
            machine="fixture-host",
            family=family,
            variant=variant,
            level=level,
            stage=Stage.BENCHMARK,
            model=None,
            operation=operation,
            mean_ms=0.0137 * (index + 1) * (cell + 1),
            std_ms=0.0021 * (cell + 1),
            n=1000,
        )
        for cell, (family, variant, level) in enumerate(_CELLS)
        for index, operation in enumerate(Operation)
    )
    write_csv(ReportDataset(rows), source)
    argv = [
        "--replay-benchmarks", str(source), "--families", "ECDSA",
        "--seed", "7", "--runs-simulator", "200",
    ]

    digest = hashlib.sha256(source.read_bytes()).hexdigest()
    assert main([*argv, "--output-dir", str(tmp_path / "here")]) == 0
    expected = _outputs(tmp_path / "here")
    assert _replayed_sha256(tmp_path / "here") == digest
    assert {"benchmark.csv", "simulation.csv", "simulation_bitcoin_level5.svg"} <= set(expected)

    # the child sees chainsig's source and nothing of this interpreter's path
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for executable in interpreters:
        output_dir = tmp_path / Path(executable).name
        done = subprocess.run(
            [executable, "-m", "chainsig.cli", *argv, "--output-dir", str(output_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, f"{executable}: {done.stderr}"
        produced = _outputs(output_dir)
        assert sorted(produced) == sorted(expected), executable
        differing = [name for name in expected if produced[name] != expected[name]]
        assert differing == [], executable
        assert _replayed_sha256(output_dir) == digest, executable
