"""What the benchmark in perfbench/ relies on in chainsig still exists.

perfbench wraps chainsig functions by name, counts the bytes the report
writers return, and imports chainsig names in its floor and provenance
helpers. A rename in chainsig would otherwise surface only when the
benchmark runs.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import math
import sys
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from chainsig import cli
from chainsig.report import Operation, ReportDataset, ReportRow, Stage

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """perfbench/<name>.py, loaded by path with its sibling modules importable."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def run_module():
    return _load("run")


def test_every_target_resolves_to_a_callable(run_module):
    assert run_module.TARGETS
    for module_name, attribute, _span, _hook in run_module.TARGETS:
        target = getattr(importlib.import_module(module_name), attribute, None)
        assert callable(target), f"{module_name}.{attribute}"


def _row(variant: str, operation: Operation, mean: float) -> ReportRow:
    return ReportRow(
        machine="host",
        family="ECDSA",
        variant=variant,
        level=1,
        stage=Stage.BENCHMARK,
        model=None,
        operation=operation,
        mean_ms=mean,
        std_ms=0.01,
        n=10,
    )


def test_report_writers_return_bytes_written(tmp_path):
    # perfbench adds these return values up as report.bytes; the text is
    # not ASCII, so a count of characters would differ from the bytes
    dataset = ReportDataset(
        (_row("P-256 µ", Operation.VERIFY, 0.08), _row("P-384 µ", Operation.VERIFY, 0.3))
    )
    csv_path = tmp_path / "benchmark.csv"
    written = cli.write_csv(dataset, csv_path, comments=("host=Grüße",))
    assert written == csv_path.stat().st_size
    svg_path = tmp_path / "chart.svg"
    written = cli.render_bar_chart(dataset, "latency µs", svg_path)
    assert isinstance(written, int)
    assert written == svg_path.stat().st_size


def test_simulate_batch_configs_expose_int_runs_and_blocks(run_module, tmp_path, monkeypatch):
    # perfbench's sim hook counts runs * blocks_per_run off each config
    # the pipeline passes to simulate_batch
    configs = []
    simulate_batch = cli.simulate_batch

    def recording(config, verify_stat):
        configs.append(config)
        return simulate_batch(config, verify_stat)

    monkeypatch.setattr(cli, "simulate_batch", recording)
    replay_csv = tmp_path / "replay.csv"
    cli.write_csv(
        ReportDataset(tuple(_row("P-256", operation, 0.05) for operation in Operation)),
        replay_csv,
    )
    argv = ["--replay-benchmarks", str(replay_csv), "--families", "ECDSA", "--levels", "1",
            "--runs-simulator", "3", "--output-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert len(configs) == 2
    tracer = SimpleNamespace(counters=defaultdict(float), samples=defaultdict(list))
    for config in configs:
        assert type(config.runs) is int and type(config.blocks_per_run) is int
        run_module._simulated(tracer, SimpleNamespace(start=0.0, end=0.0), None, (config,))
    assert tracer.counters["sim.blocks"] == sum(c.runs * c.blocks_per_run for c in configs)


def test_every_target_the_pipeline_reaches_records_spans(run_module, tmp_path, monkeypatch):
    # the tracer wraps each target where the pipeline looks it up; a stage
    # that called one through another module would leave that target's
    # per-layer metric reading 0, and fails here instead
    monkeypatch.setenv("CHAINSIG_PROVIDER", "stub")
    measured = cli.CliConfig(
        runs=3, warmup=1, levels=frozenset({2}), runs_simulator=4, output_dir=tmp_path / "live"
    )
    replayed = measured._replace(
        replay_benchmarks=measured.output_dir / "benchmark.csv",
        output_dir=tmp_path / "replay",
    )
    every = {span for _module, _attribute, span, _hook in run_module.TARGETS}
    replay_reaches = {
        "cli.run_pipeline",
        "report.parse_csv",
        "sim.simulate_batch",
        "bench.summarize",
        "report.write_csv",
        "report.render_bar_chart",
    }
    spans = _load("spans")
    for config, expected in ((measured, every - {"report.parse_csv"}), (replayed, replay_reaches)):
        with spans.Tracer().installed(run_module.TARGETS) as tracer:
            assert cli.run_pipeline(config) == 0
        calls = Counter(span.name for span in tracer.spans)
        assert set(calls) == expected
        # both reports write a CSV; a stage writing one past the tracer
        # would leave one of the two unseen
        assert calls["report.write_csv"] == 2


def _chainsig_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each chainsig name the file imports or reads off an imported module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chainsig"):
            for alias in node.names:
                names.append((node.module, alias.name))
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            names.append((modules[node.value.id], node.attr))
    return names


def _resolve(module_name: str, name: str) -> object:
    """The object `from module_name import name` binds, or None."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return None


@pytest.mark.parametrize("helper", ["floors.py", "provenance.py"])
def test_helper_imports_exist(helper):
    names = _chainsig_names(PERFBENCH / helper)
    assert names, f"{helper} imports nothing from chainsig"
    missing = [f"{module}.{name}" for module, name in names if _resolve(module, name) is None]
    assert missing == []


def test_floors_measure_every_metric(monkeypatch):
    # floors builds SchemeInstance(descriptor, backend) and times its
    # keypair, which an import check does not reach
    floors = _load("floors")
    monkeypatch.setattr(floors, "FLOOR_SAMPLES", 40)
    monkeypatch.setattr(floors, "ECDSA_ROUNDS", 3)
    monkeypatch.setattr(floors, "ECDSA_BLOCK", 20)
    metrics = floors.measure_floors()
    assert set(metrics) == {
        "bench.loop_floor_us.p50",
        "bench.loop_floor_us.p99",
        "schemes.guard_us.p50",
        "schemes.guard_us.p99",
        "floors.samples",
        "schemes.ecdsa.keypair_marshal_us",
        "schemes.ecdsa.verify_marshal_us",
        "schemes.ecdsa.samples",
    }
    assert all(math.isfinite(value) for value in metrics.values()), metrics


@pytest.mark.parametrize("provider", ["oqs", "pqclean"])
def test_provenance_providers_report_availability(provider):
    # provenance.collect calls get_provider(name).available()
    from chainsig.schemes import get_provider

    assert isinstance(get_provider(provider).available(), bool)


@pytest.mark.parametrize("provider", ["oqs", "pqclean"])
def test_provenance_availability_follows_the_library(provider, request):
    # a provider with a stand-in library reports True, and one whose
    # library is missing reports False
    from chainsig.schemes import pqclean

    if provider == "oqs":
        oqs_standin = request.getfixturevalue("oqs_standin")
        assert oqs_standin().available() is True
        assert oqs_standin(None).available() is False
    else:
        assert request.getfixturevalue("pqclean_standin").available() is True
        # undone before pqclean_standin's teardown drops the pqcrypto
        # modules; the test's own monkeypatch would put the stand-in back
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(sys.modules, "pqcrypto.sign", None)
            assert pqclean.available() is False
