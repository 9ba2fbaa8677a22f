"""A run imports only what it uses.

Backends load when a variant asks for one. No chainsig run loads numpy,
not even one that simulates, and none but the liboqs binding's loads
ctypes. Records are named tuples and the manifest's timestamp comes from
`time`, so chainsig loads neither `dataclasses` (and with it `inspect`)
nor `datetime`. An ECDSA run loads neither either: it builds and parses
DER keys itself, so it never loads `cryptography`'s serialization
package, whose SSH support imports `dataclasses` and `inspect`, nor
any of `cryptography`'s bindings or private modules.
Neither a replay nor a stub run loads `hashlib`, which maps the system
libcrypto: a replay hashes its CSV with `_sha2` or `_sha256`, and the
stub tags with `_blake2`. On glibc the probe builds its host text from
`os`, so a run loads `platform` (and `subprocess`) only elsewhere.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainsig.report import Operation, ReportDataset, ReportRow, Stage, write_csv
from conftest import has_glibc

SRC = Path(__file__).resolve().parent.parent / "src"

#: loaded by no chainsig run: the simulator draws with the standard
#: library, and only the liboqs binding uses ctypes
NUMPY_AND_CTYPES = ("numpy", "ctypes")

UNUSED_BY_REPLAY = (
    "cryptography",
    "xml.sax",
    "chainsig.schemes.ecdsa",
    "chainsig.schemes.oqs",
    "chainsig.schemes.pqclean",
    "chainsig.schemes.stub",
    *NUMPY_AND_CTYPES,
)

#: imported by no chainsig module, nor by the parts of `cryptography`
#: an ECDSA run uses
HEAVY_STDLIB = ("dataclasses", "inspect", "datetime")

#: loads the first two of HEAVY_STDLIB through its SSH support
SERIALIZATION = "cryptography.hazmat.primitives.serialization"

#: hashlib loads _hashlib, which maps the system libcrypto
HASHLIB = ("hashlib", "_hashlib")

#: a small live run: the two level-1 Falcon variants, measured briefly
LIVE_ARGS = (
    "--families", "Falcon", "Falcon-padded", "--levels", "1", "--runs", "5", "--warm-up", "1",
    "--runs-simulator", "3", "--output-dir", "out",
)


#: what the probe loads: nothing on glibc, platform.platform() elsewhere
PROBE = () if has_glibc() else ("platform", "subprocess")


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
    watched = (*UNUSED_BY_REPLAY, *HEAVY_STDLIB, *HASHLIB, "platform", "subprocess")
    assert _loaded_after("import chainsig.cli", tmp_path, watched) == set()


def _replay_code(tmp_path: Path) -> str:
    """Code that replays a one-variant CSV it writes to tmp_path into tmp_path/out."""
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
    return (
        "from chainsig.cli import main\n"
        "assert main(['--families', 'ECDSA', '--levels', '1', '--runs-simulator', '3',"
        f" '--replay-benchmarks', {str(replay)!r}, '--output-dir', 'out']) == 0"
    )


#: a short stub run that measures and simulates
STUB_RUN = f"from chainsig.cli import main\nassert main({list(LIVE_ARGS)!r}) == 0"


def test_replay_loads_no_backend(tmp_path):
    # a replay probes no host, so it loads neither platform nor subprocess
    watched = (*UNUSED_BY_REPLAY, *HEAVY_STDLIB, *HASHLIB, "platform", "subprocess")
    assert _loaded_after(_replay_code(tmp_path), tmp_path, watched) == set()
    assert (tmp_path / "out" / "simulation.csv").is_file()


def test_instantiate_loads_the_backend_it_uses(tmp_path):
    pytest.importorskip("cryptography")
    code = (
        "from chainsig.schemes import by_variant, instantiate\n"
        "instantiate(by_variant()['P-256'])"
    )
    watched = (*UNUSED_BY_REPLAY, SERIALIZATION, *HEAVY_STDLIB)
    assert _loaded_after(code, tmp_path, watched) == {"cryptography", "chainsig.schemes.ecdsa"}


def test_ecdsa_run_loads_no_serialization(tmp_path):
    # P-256 measured, signed and verified live, then simulated
    pytest.importorskip("cryptography")
    args = ["--families", "ECDSA", *LIVE_ARGS[LIVE_ARGS.index("--levels") :]]
    code = f"from chainsig.cli import main\nassert main({args!r}) == 0"
    assert _loaded_after(code, tmp_path, (SERIALIZATION, *HEAVY_STDLIB)) == set()
    assert (tmp_path / "out" / "simulation.csv").is_file()


def test_run_without_simulation_never_loads_numpy(tmp_path):
    code = (
        "from chainsig.cli import main\n"
        f"assert main({[*LIVE_ARGS, '--skip-simulation']!r}) == 0"
    )
    assert _loaded_after(code, tmp_path, NUMPY_AND_CTYPES, provider="stub") == set()
    assert (tmp_path / "out" / "benchmark.csv").is_file()


def test_stub_run_loads_no_heavy_stdlib(tmp_path):
    watched = (*HEAVY_STDLIB, *HASHLIB, "platform", "subprocess")
    loaded = _loaded_after(STUB_RUN, tmp_path, watched, provider="stub")
    assert loaded == set(PROBE)
    assert (tmp_path / "out" / "simulation.csv").is_file()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
@pytest.mark.parametrize("run", ["stub", "replay"])
def test_no_libcrypto_is_mapped(tmp_path, run):
    # a replay and a stub run take their hashes from Python's builtin
    # modules, so neither maps the system libcrypto through hashlib
    code = STUB_RUN if run == "stub" else _replay_code(tmp_path)
    script = (
        f"import json\n{code}\n"
        "with open('/proc/self/maps', encoding='utf-8') as maps:\n"
        "    print(json.dumps(sorted({line.split()[-1] for line in maps if 'libcrypto' in line})))"
    )
    assert _child(script, tmp_path, "stub" if run == "stub" else None) == []
    assert (tmp_path / "out" / "simulation.csv").is_file()


def test_simulating_run_never_loads_numpy(tmp_path):
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
        f"print(json.dumps({{'calls': calls, 'loaded': [n for n in {NUMPY_AND_CTYPES!r}"
        " if n in sys.modules]}))"
    )
    result = _child(code, tmp_path, provider="stub")
    assert len(result["calls"]) == 2
    for numpy_loaded, threads in result["calls"]:
        assert not numpy_loaded
        if sys.platform.startswith("linux"):
            assert threads == 1
    # the simulation stage ran, and it loaded neither
    assert result["loaded"] == []
    assert (tmp_path / "out" / "simulation.csv").is_file()


def _imports() -> list[tuple[str, str]]:
    """(file:line, dotted name) of every absolute import in chainsig, however deeply nested.

    `from a.b import c` gives both `a.b` and `a.b.c`, since c may be a module.
    """
    found = []
    for path in sorted((SRC / "chainsig").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
            else:
                continue
            found += [(f"{path.name}:{node.lineno}", name) for name in names]
    return found


def _importers(*packages: str) -> list[str]:
    """Every import statement in chainsig of one of packages."""
    return [where for where, name in _imports() if name.split(".")[0] in packages]


def test_no_module_imports_numpy():
    assert _importers("numpy") == []


def test_no_module_imports_dataclasses_or_datetime():
    assert _importers("dataclasses", "datetime") == []


def test_no_module_imports_cryptography_internals():
    # keys are built and parsed through cryptography's public API alone
    internal = []
    for where, name in _imports():
        parts = name.split(".")
        if parts[0] == "cryptography" and (
            parts[1:3] == ["hazmat", "bindings"] or any(part.startswith("_") for part in parts)
        ):
            internal.append(f"{where} {name}")
    assert internal == []
