"""Command line pipeline: benchmark, simulate, report.

Exit codes: 0 full success, 2 partial success (at least one variant
skipped, or an empty selection), 1 fatal error or bad usage.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

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
from .schemes import FAMILY_ORDER, VALID_LEVELS, catalog, filter_by_levels, instantiate
from .sim import (
    DEFAULT_SEED, DEFAULT_SIM_RUNS, ChainModel, config_echo, default_config, simulate_batch
)

logger = logging.getLogger(__name__)

DEFAULT_LEVELS = frozenset({1, 2, 3, 5})

_GROUP_SLUGS = (
    (LevelGroup.LOWER, "lower"),
    (LevelGroup.LEVEL3, "level3"),
    (LevelGroup.LEVEL5, "level5"),
)

#: settings echoed as `# name=value` lines at the top of each CSV; output
#: and input paths are left out so reruns with identical measurement
#: settings produce identical CSV bytes
_COMMENTED = (
    "runs", "warmup", "levels", "models", "runs_simulator", "seed", "message_len", "families"
)


def _plain(value: object) -> object:
    """A setting in JSON form: sets sorted, tuples as lists, models and paths unwrapped."""
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, ChainModel):
        return value.value
    if isinstance(value, Path):
        return str(value)
    return value


def _text(value: object, separator: str) -> str:
    """A plain setting as text: lists joined, None (every family) as 'all'."""
    if value is None:
        return "all"
    if isinstance(value, list):
        return separator.join(str(item) for item in value)
    return str(value)


@dataclass(frozen=True)
class CliConfig:
    """Every run setting and its default; the CLI flags override fields."""

    runs: int = RunPlan.runs
    warmup: int = RunPlan.warmup
    levels: frozenset[int] = DEFAULT_LEVELS
    runs_simulator: int = DEFAULT_SIM_RUNS
    models: tuple[ChainModel, ...] = tuple(ChainModel)
    seed: int = DEFAULT_SEED
    output_dir: Path = Path("chainsig-results")
    families: tuple[str, ...] | None = None
    message_len: int = RunPlan.message_len
    skip_benchmark: bool = False
    skip_simulation: bool = False
    replay_benchmarks: Path | None = None

    def to_dict(self) -> dict:
        return {field.name: _plain(getattr(self, field.name)) for field in fields(self)}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(message)


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value

    return parse


def _build_parser() -> _Parser:
    # flags left off the command line stay out of the namespace, so
    # CliConfig's field defaults are the only defaults
    parser = _Parser(
        prog="chainsig",
        description=(
            "Benchmark signature schemes and propagate the measured verify"
            " cost through Bitcoin and Ethereum block-verification models."
        ),
        argument_default=argparse.SUPPRESS,
    )
    default = {name: _text(value, " ") for name, value in CliConfig().to_dict().items()}
    parser.add_argument(
        "--runs",
        "-r",
        type=_int_at_least(1),
        help=f"measured executions per operation (default {default['runs']})",
    )
    parser.add_argument(
        "--warm-up",
        "-wp",
        dest="warmup",
        type=_int_at_least(0),
        help=f"discarded warm-up executions (default {default['warmup']})",
    )
    parser.add_argument(
        "--levels",
        "-l",
        action="extend",
        nargs="+",
        type=int,
        choices=sorted(VALID_LEVELS),
        help=f"NIST security levels to include; repeatable (default {default['levels']})",
    )
    parser.add_argument(
        "--runs-simulator",
        type=_int_at_least(1),
        help=f"simulation runs per (variant, model) pair (default {default['runs_simulator']})",
    )
    parser.add_argument(
        "--model",
        dest="models",
        action="extend",
        nargs="+",
        type=int,
        choices=[model.value for model in ChainModel],
        help=f"blockchain models: 1 Bitcoin, 2 Ethereum; repeatable (default {default['models']})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        help=f"simulation seed (default {default['seed']})",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        help=f"directory for CSVs, charts and the manifest (default {default['output_dir']})",
    )
    parser.add_argument(
        "--families",
        action="extend",
        nargs="+",
        choices=FAMILY_ORDER,
        metavar="FAMILY",
        help=f"restrict to these algorithm families; repeatable (default {default['families']})",
    )
    parser.add_argument(
        "--message-len",
        type=_int_at_least(1),
        help=f"signed message length in bytes (default {default['message_len']})",
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
    given = vars(parser.parse_args(list(argv)))
    if "levels" in given:
        given["levels"] = frozenset(given["levels"])
    if "models" in given:
        given["models"] = tuple(ChainModel(value) for value in sorted(set(given["models"])))
    if "families" in given:
        given["families"] = tuple(dict.fromkeys(given["families"]))
    config = replace(CliConfig(), **given)
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
    plain = config.to_dict()
    return [f"{name}={_text(plain[name], ',')}" for name in _COMMENTED]


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


def _elapsed(started: float) -> float:
    return time.perf_counter() - started


def _read_replay(path: Path) -> tuple[ReportDataset, str]:
    """A replay CSV's rows and the sha256 of the bytes they were parsed from.

    The file is read once and decoded as Path.read_text decodes it.
    """
    try:
        data = path.read_bytes()
        dataset = parse_csv(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return dataset, hashlib.sha256(data).hexdigest()


def run_pipeline(config: CliConfig) -> int:
    """Execute benchmark, simulation and reporting per config."""
    # the host label of every row; no row carries it if no stage yields rows
    machine = ""
    replayed_from: dict | None = None
    replaying = config.replay_benchmarks is not None
    if replaying:
        # a refused replay CSV fails before anything is created on disk
        started = time.perf_counter()
        replayed, sha256 = _read_replay(config.replay_benchmarks)
        machines = sorted({row.machine for row in replayed.rows})
        if len(machines) > 1:
            raise IoFailure(
                f"{config.replay_benchmarks}: rows from {len(machines)} machines"
                f" ({', '.join(map(repr, machines))}); a replay CSV must come from one host"
            )
        if machines:
            machine = machines[0]
        replayed_from = {
            "path": str(config.replay_benchmarks),
            "sha256": sha256,
            "machines": machines,
        }
        logger.info(
            "replay: %d rows read from %s in %.2f s",
            len(replayed.rows),
            config.replay_benchmarks,
            _elapsed(started),
        )

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
    bench_dataset = ReportDataset(())

    if replaying:
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
        started = time.perf_counter()
        environment = probe_environment()
        machine = environment.cpu_model
        logger.info(
            "host: %s, timer resolution %.0f ns, probed in %.2f s",
            environment.cpu_model,
            environment.timer_resolution_ns,
            _elapsed(started),
        )
        plan = RunPlan(
            warmup=config.warmup, runs=config.runs, message_len=config.message_len
        )
        records: list[BenchmarkRecord] = []
        started = time.perf_counter()
        for done, descriptor in enumerate(selected, start=1):
            variant_started = time.perf_counter()
            try:
                instance = instantiate(descriptor)
            except UnsupportedVariant as exc:
                logger.warning("skipping %s: %s", descriptor.variant, exc)
                skipped.append({"variant": descriptor.variant, "reason": str(exc)})
                continue
            try:
                records.append(benchmark_variant(instance, plan))
            except CorrectnessViolation as exc:
                logger.warning("skipping %s: %s", descriptor.variant, exc)
                skipped.append({"variant": descriptor.variant, "reason": str(exc)})
                continue
            logger.info(
                "%s measured in %.2f s (%d/%d, ETA %.1f s)",
                descriptor.variant,
                _elapsed(variant_started),
                done,
                len(selected),
                _elapsed(started) / done * (len(selected) - done),
            )
        logger.info(
            "benchmark: %d of %d variants measured in %.2f s",
            len(records),
            len(selected),
            _elapsed(started),
        )
        bench_dataset = synthesize(records, [], machine=machine)

    outputs: list[str] = []
    if replaying or not config.skip_benchmark:
        started = time.perf_counter()
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
        logger.info("report: %d benchmark files written in %.2f s", len(outputs), _elapsed(started))

    sim_dataset = ReportDataset(())
    if not config.skip_simulation:
        started = time.perf_counter()
        sim_configs = {
            model: replace(
                default_config(model), runs=config.runs_simulator, seed=config.seed
            )
            for model in config.models
        }
        sims = []
        for row in bench_dataset.rows:
            if row.operation is not Operation.VERIFY:
                continue
            descriptor = selected_by_variant[row.variant]
            stat = StatSummary(mean_ms=row.mean_ms, std_ms=row.std_ms, n=row.n)
            for model, sim_config in sim_configs.items():
                sims.append((descriptor, model, simulate_batch(sim_config, stat)))
        sim_dataset = synthesize([], sims, machine=machine)
        logger.info("simulation: %d batches in %.2f s", len(sims), _elapsed(started))

        started = time.perf_counter()
        written = len(outputs)
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
        logger.info(
            "report: %d simulation files written in %.2f s",
            len(outputs) - written,
            _elapsed(started),
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
