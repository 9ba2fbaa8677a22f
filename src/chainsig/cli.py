"""Command line pipeline: benchmark, simulate, report.

Exit codes: 0 full success, 2 partial success (at least one variant
skipped, or an empty selection), 1 fatal error or bad usage.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import itertools
import json
import logging
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

from .bench import (
    BenchmarkRecord,
    EnvironmentInfo,
    RunPlan,
    StatSummary,
    benchmark_variant,
    probe_environment,
)
from .errors import ChainsigError, CorrectnessViolation, IoFailure, UnsupportedVariant, UsageError
from .report import (
    ChartSpec,
    LevelGroup,
    Operation,
    ReportDataset,
    Stage,
    level_group,
    parse_csv,
    recommended_log_scale,
    render_bar_chart,
    synthesize,
    write_csv,
)
from .schemes import FAMILY_ORDER, catalog, filter_by_levels, instantiate
from .sim import ChainModel, config_echo, default_config, simulate_batch

logger = logging.getLogger(__name__)

DEFAULT_LEVELS = frozenset({1, 2, 3, 5})
DEFAULT_OUTPUT_DIR = Path("chainsig-results")

_GROUP_SLUGS = (
    (LevelGroup.LOWER, "lower"),
    (LevelGroup.LEVEL3, "level3"),
    (LevelGroup.LEVEL5, "level5"),
)


@dataclass(frozen=True)
class CliConfig:
    runs: int = 10000
    warmup: int = 1000
    levels: frozenset[int] = DEFAULT_LEVELS
    runs_simulator: int = 1000
    models: tuple[ChainModel, ...] = (ChainModel.BITCOIN, ChainModel.ETHEREUM)
    seed: int = 42
    output_dir: Path = DEFAULT_OUTPUT_DIR
    families: tuple[str, ...] | None = None
    message_len: int = 32
    skip_benchmark: bool = False
    skip_simulation: bool = False
    replay_benchmarks: Path | None = None

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "warmup": self.warmup,
            "levels": sorted(self.levels),
            "runs_simulator": self.runs_simulator,
            "models": [model.value for model in self.models],
            "seed": self.seed,
            "output_dir": str(self.output_dir),
            "families": list(self.families) if self.families is not None else None,
            "message_len": self.message_len,
            "skip_benchmark": self.skip_benchmark,
            "skip_simulation": self.skip_simulation,
            "replay_benchmarks": (
                str(self.replay_benchmarks)
                if self.replay_benchmarks is not None
                else None
            ),
        }


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="chainsig",
        description=(
            "Benchmark signature schemes and propagate the measured verify"
            " cost through Bitcoin and Ethereum block-verification models."
        ),
    )
    parser.add_argument(
        "--runs",
        "-r",
        type=_positive_int,
        default=10000,
        help="measured executions per operation (default 10000)",
    )
    parser.add_argument(
        "--warm-up",
        "-wp",
        dest="warmup",
        type=_non_negative_int,
        default=1000,
        help="discarded warm-up executions (default 1000)",
    )
    parser.add_argument(
        "--levels",
        "-l",
        action="extend",
        nargs="+",
        type=int,
        choices=[1, 2, 3, 4, 5],
        default=[],
        help="NIST security levels to include; repeatable (default 1 2 3 5)",
    )
    parser.add_argument(
        "--runs-simulator",
        type=_positive_int,
        default=1000,
        help="simulation runs per (variant, model) pair (default 1000)",
    )
    parser.add_argument(
        "--model",
        action="extend",
        nargs="+",
        type=int,
        choices=[1, 2],
        default=[],
        help="blockchain models: 1 Bitcoin, 2 Ethereum; repeatable (default both)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=42,
        help="simulation seed (default 42)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=DEFAULT_OUTPUT_DIR,
        help=f"directory for CSVs, charts and the manifest (default {DEFAULT_OUTPUT_DIR})",
    )
    parser.add_argument(
        "--families",
        action="extend",
        nargs="+",
        metavar="FAMILY",
        default=[],
        help="restrict to these algorithm families; repeatable (default all)",
    )
    parser.add_argument(
        "--message-len",
        type=_positive_int,
        default=32,
        help="signed message length in bytes (default 32)",
    )
    parser.add_argument(
        "--skip-benchmark",
        action="store_true",
        help="do not measure; requires --replay-benchmarks unless simulation is skipped too",
    )
    parser.add_argument(
        "--skip-simulation",
        action="store_true",
        help="stop after the benchmark stage",
    )
    parser.add_argument(
        "--replay-benchmarks",
        type=Path,
        metavar="CSV",
        help="reuse a prior benchmark CSV instead of measuring",
    )
    return parser


def parse_args(argv: Sequence[str]) -> CliConfig:
    """Translate argv into a CliConfig; raises UsageError on bad input."""
    parser = _build_parser()
    namespace = parser.parse_args(list(argv))

    families = tuple(dict.fromkeys(namespace.families))
    for family in families:
        if family not in FAMILY_ORDER:
            known = ", ".join(FAMILY_ORDER)
            parser.error(
                f"argument --families: unknown family {family!r} (choose from {known})"
            )

    models = tuple(
        sorted({ChainModel(value) for value in namespace.model}, key=lambda m: m.value)
    )
    config = CliConfig(
        runs=namespace.runs,
        warmup=namespace.warmup,
        levels=frozenset(namespace.levels) if namespace.levels else DEFAULT_LEVELS,
        runs_simulator=namespace.runs_simulator,
        models=models if models else (ChainModel.BITCOIN, ChainModel.ETHEREUM),
        seed=namespace.seed,
        output_dir=namespace.output_dir,
        families=families if families else None,
        message_len=namespace.message_len,
        skip_benchmark=namespace.skip_benchmark,
        skip_simulation=namespace.skip_simulation,
        replay_benchmarks=namespace.replay_benchmarks,
    )
    if (
        config.skip_benchmark
        and config.replay_benchmarks is None
        and not config.skip_simulation
    ):
        parser.error(
            "argument --skip-benchmark: simulation needs verify statistics;"
            " provide --replay-benchmarks or add --skip-simulation"
        )
    return config


def _config_comments(config: CliConfig) -> list[str]:
    # output_dir and file paths are deliberately excluded so reruns with
    # identical measurement settings produce identical CSV bytes
    return [
        f"runs={config.runs}",
        f"warmup={config.warmup}",
        "levels=" + ",".join(str(level) for level in sorted(config.levels)),
        "models=" + ",".join(str(model.value) for model in config.models),
        f"runs_simulator={config.runs_simulator}",
        f"seed={config.seed}",
        f"message_len={config.message_len}",
        "families="
        + (",".join(config.families) if config.families is not None else "all"),
    ]


def _emit_charts(
    dataset: ReportDataset,
    series: tuple[Operation, ...],
    title_prefix: str,
    slug_prefix: str,
    output_dir: Path,
) -> list[str]:
    names = []
    for group, slug in _GROUP_SLUGS:
        rows = [row for row in dataset.rows if level_group(row.level) is group]
        if not rows:
            continue
        spec = ChartSpec(
            title=f"{title_prefix}, {group.value}",
            level_group=group,
            series=series,
            log_scale=recommended_log_scale(rows),
        )
        name = f"{slug_prefix}_{slug}.svg"
        render_bar_chart(dataset, spec, output_dir / name)
        names.append(name)
    return names


def run_pipeline(config: CliConfig) -> int:
    """Execute benchmark, simulation and reporting per config."""
    output_dir = config.output_dir
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {output_dir}: {exc}") from exc

    selected = filter_by_levels(catalog(), config.levels)
    if config.families is not None:
        selected = [d for d in selected if d.family in config.families]
    selected_by_variant = {d.variant: d for d in selected}
    if not selected:
        logger.warning("no variants at the selected levels")

    skipped: list[dict[str, str]] = []
    # describes the measuring host, so it stays None unless this run measures
    environment: EnvironmentInfo | None = None
    replayed_from: dict | None = None
    bench_dataset = ReportDataset(())
    replaying = config.replay_benchmarks is not None

    if replaying:
        replayed = parse_csv(config.replay_benchmarks)
        replayed_from = {
            "path": str(config.replay_benchmarks),
            "sha256": hashlib.sha256(config.replay_benchmarks.read_bytes()).hexdigest(),
            "machines": sorted({row.machine for row in replayed.rows}),
        }
        bench_dataset = ReportDataset(
            tuple(
                row
                for row in replayed.rows
                if row.stage is Stage.BENCHMARK and row.variant in selected_by_variant
            )
        )
        present = {row.variant for row in bench_dataset.rows}
        for descriptor in selected:
            if descriptor.variant not in present:
                reason = "not present in the replayed benchmark CSV"
                logger.warning("skipping %s: %s", descriptor.variant, reason)
                skipped.append({"variant": descriptor.variant, "reason": reason})
    elif not config.skip_benchmark:
        environment = probe_environment()
        logger.info(
            "host: %s, timer resolution %.0f ns",
            environment.cpu_model,
            environment.timer_resolution_ns,
        )
        plan = RunPlan(
            warmup=config.warmup, runs=config.runs, message_len=config.message_len
        )
        records: list[BenchmarkRecord] = []
        for descriptor in selected:
            try:
                instance = instantiate(descriptor)
            except UnsupportedVariant as exc:
                logger.warning("skipping %s: %s", descriptor.variant, exc)
                skipped.append({"variant": descriptor.variant, "reason": str(exc)})
                continue
            try:
                records.append(benchmark_variant(instance, plan, environment=environment))
            except CorrectnessViolation as exc:
                logger.warning("skipping %s: %s", descriptor.variant, exc)
                skipped.append({"variant": descriptor.variant, "reason": str(exc)})
        bench_dataset = synthesize(records, [])

    outputs: list[str] = []
    if replaying or not config.skip_benchmark:
        bench_csv = output_dir / "benchmark.csv"
        write_csv(bench_dataset, bench_csv, comments=_config_comments(config))
        outputs.append(bench_csv.name)
        outputs.extend(
            _emit_charts(
                bench_dataset,
                (Operation.KEYPAIR, Operation.SIGN, Operation.VERIFY),
                "Signature operation latency",
                "benchmark",
                output_dir,
            )
        )

    sim_dataset = ReportDataset(())
    if not config.skip_simulation:
        sim_configs = {
            model: replace(
                default_config(model), runs=config.runs_simulator, seed=config.seed
            )
            for model in config.models
        }
        by_machine: dict[str, list] = {}
        for row in bench_dataset.rows:
            if row.operation is not Operation.VERIFY:
                continue
            descriptor = selected_by_variant[row.variant]
            stat = StatSummary(mean_ms=row.mean_ms, std_ms=row.std_ms, n=row.n)
            for model, sim_config in sim_configs.items():
                result = simulate_batch(sim_config, stat)
                by_machine.setdefault(row.machine, []).append(
                    (descriptor, model, result)
                )
        sim_rows = itertools.chain.from_iterable(
            synthesize([], entries, machine=machine).rows
            for machine, entries in sorted(by_machine.items())
        )
        sim_dataset = ReportDataset(tuple(sim_rows))

        sim_comments = _config_comments(config)
        for model, sim_config in sim_configs.items():
            prefix = model.label.lower()
            sim_comments.extend(
                f"{prefix}.{line}" for line in config_echo(sim_config)
            )
        sim_csv = output_dir / "simulation.csv"
        write_csv(sim_dataset, sim_csv, comments=sim_comments)
        outputs.append(sim_csv.name)
        for model in config.models:
            outputs.extend(
                _emit_charts(
                    sim_dataset.filter(model=model),
                    (Operation.VERIFY,),
                    f"{model.label} mean block verification time",
                    f"simulation_{model.label.lower()}",
                    output_dir,
                )
            )

    manifest = {
        "config": config.to_dict(),
        "environment": asdict(environment) if environment is not None else None,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "skipped": skipped,
        "outputs": outputs,
    }
    if replayed_from is not None:
        manifest["replayed_from"] = replayed_from
    manifest_path = output_dir / "manifest.json"
    try:
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise IoFailure(f"cannot write {manifest_path}: {exc}") from exc

    if skipped or not selected:
        return 2
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        config = parse_args(argv if argv is not None else sys.argv[1:])
    except UsageError as exc:
        print(f"chainsig: error: {exc}", file=sys.stderr)
        return 1
    try:
        return run_pipeline(config)
    except (ChainsigError, OSError) as exc:
        print(f"chainsig: fatal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
