"""Command line pipeline: benchmark, simulate, report.

Exit codes: 0 full success, 2 partial success (at least one variant
skipped, or an empty selection), 1 fatal error or bad usage.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import logging
import os
import sys
import time
from pathlib import Path
from time import gmtime, strftime
from typing import Callable, Iterator, NamedTuple, Sequence

from .bench import EnvironmentInfo, RunPlan, StatSummary, benchmark_variant, probe_environment
from .errors import (
    BackendFailure,
    ChainsigError,
    CorrectnessViolation,
    IoFailure,
    UnsupportedVariant,
    UsageError,
)
from .report import (
    LEVEL_GROUPS, Operation, ReportDataset, ReportRow, Stage, parse_csv, render_bar_chart,
    write_csv,
)
from .schemes import (
    FAMILY_ORDER, PROVIDER_ENV, VALID_LEVELS, VariantDescriptor, by_variant, catalog,
    get_provider, instantiate,
)
from .sim import ChainModel, SimulationConfig, config_echo, simulate_batch

logger = logging.getLogger(__name__)

DEFAULT_LEVELS = frozenset(d.level for d in catalog())

#: settings echoed as `# name=value` lines at the top of each CSV; output
#: and input paths are left out so reruns with identical measurement
#: settings produce identical CSV bytes
_COMMENTED = (
    "runs", "warmup", "levels", "models", "runs_simulator", "seed", "message_len", "families"
)

#: the settings a measurement used, which a replay echoes from its source CSV
_MEASURED = ("runs", "warmup", "message_len")


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


class CliConfig(NamedTuple):
    """Every run setting and its default; the CLI flags override fields."""

    runs: int = RunPlan._field_defaults["runs"]
    warmup: int = RunPlan._field_defaults["warmup"]
    levels: frozenset[int] = DEFAULT_LEVELS
    runs_simulator: int = SimulationConfig._field_defaults["runs"]
    models: tuple[ChainModel, ...] = tuple(ChainModel)
    seed: int = SimulationConfig._field_defaults["seed"]
    output_dir: Path = Path("chainsig-results")
    families: tuple[str, ...] | None = None
    message_len: int = RunPlan._field_defaults["message_len"]
    skip_simulation: bool = False
    replay_benchmarks: Path | None = None

    def to_dict(self) -> dict:
        return {name: _plain(value) for name, value in self._asdict().items()}


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
    # CliConfig's field defaults are the only defaults; a prefix of a flag
    # is refused, so its meaning cannot move when a flag is added or removed
    parser = _Parser(
        prog="chainsig",
        description=(
            "Benchmark signature schemes and propagate the measured verify"
            " cost through Bitcoin and Ethereum block-verification models."
        ),
        argument_default=argparse.SUPPRESS,
        allow_abbrev=False,
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
    given = vars(_build_parser().parse_args(list(argv)))
    if "levels" in given:
        given["levels"] = frozenset(given["levels"])
    if "models" in given:
        given["models"] = tuple(ChainModel(value) for value in sorted(set(given["models"])))
    if "families" in given:
        given["families"] = tuple(dict.fromkeys(given["families"]))
    return CliConfig()._replace(**given)


def _config_comments(config: CliConfig, source: dict[str, str] | None) -> list[str]:
    """config's comment lines; a replay states its source CSV's measurement settings, if any."""
    texts = {name: _text(value, ",") for name, value in config.to_dict().items()}
    if source is not None:
        texts.update({name: source.get(name) for name in _MEASURED})
    return [f"{name}={texts[name]}" for name in _COMMENTED if texts[name] is not None]


@contextlib.contextmanager
def _stage(timings: dict[str, float], key: str) -> Iterator[list[str]]:
    """Time the block into timings[key], then log the line it appended, ending `in <s> s`."""
    line: list[str] = []
    started = time.perf_counter()
    yield line
    timings[key] = time.perf_counter() - started
    if line:  # a block that appends no line logs nothing
        logger.info("%s in %.2f s", line[0], timings[key])


def _skip(skipped: list[dict[str, str]], variant: str, reason: str) -> None:
    """Warn that variant is skipped, and why, and add its entry to skipped."""
    logger.warning("skipping %s: %s", variant, reason)
    skipped.append({"variant": variant, "reason": reason})


def _sha256_hex(data: bytes) -> str:
    """data's SHA-256 in hex, from Python's builtin module where there is one.

    `hashlib` maps the system libcrypto to serve a digest that `_sha2`
    (Python 3.12 on) or `_sha256` (3.10 and 3.11) computes bit for bit the
    same; random.py takes its SHA-512 from `_sha2` for the same reason.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _load_replay(path: Path) -> tuple[tuple[ReportRow, ...], dict, dict[str, str]]:
    """A replay CSV's rows, the `replayed_from` entry that names them, and its settings.

    The settings are the `# name=value` lines above the header. The file
    is read once and decoded as parse_csv decodes a path, a leading
    byte-order mark dropped, so the sha256 is that of the bytes parsed. A
    file that does not parse, holds simulation rows, rows from more than
    one machine or rows whose labels are not the catalog's is refused
    with one IoFailure line naming it.
    """
    try:
        data = path.read_bytes()
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        rows = parse_csv(io.StringIO(text)).rows
    except ChainsigError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    simulated = sum(row.stage is Stage.SIMULATION for row in rows)
    if simulated:
        raise IoFailure(f"{path}: {simulated} simulation rows; a replay takes benchmark rows only")
    machines = sorted({row.machine for row in rows})
    if len(machines) > 1:
        raise IoFailure(
            f"{path}: rows from {len(machines)} machines"
            f" ({', '.join(map(repr, machines))}); a replay CSV must come from one host"
        )
    # every row keeps its labels through the simulation stage, so they
    # must be the catalog's
    known = by_variant()
    for row in rows:
        descriptor = known.get(row.variant)
        if descriptor is None:
            raise IoFailure(
                f"{path}: {row.variant} (labelled {row.family}"
                f" level {row.level}) is not in the catalog"
            )
        if (row.family, row.level) != (descriptor.family, descriptor.level):
            raise IoFailure(
                f"{path}: {row.variant} is labelled {row.family}"
                f" level {row.level}, but the catalog has {descriptor.family}"
                f" level {descriptor.level}"
            )
    comments = itertools.takewhile(lambda line: line.startswith("#"), text.split("\n"))
    settings = dict(line[1:].strip().split("=", 1) for line in comments if "=" in line)
    return rows, {"path": str(path), "sha256": _sha256_hex(data), "machines": machines}, settings


def _replayed(
    rows: tuple[ReportRow, ...], selected: list[VariantDescriptor]
) -> tuple[ReportDataset, list[dict[str, str]]]:
    """The selected variants' replayed benchmark rows, and a skip entry for each without rows."""
    wanted = {descriptor.variant for descriptor in selected}
    dataset = ReportDataset(tuple(row for row in rows if row.variant in wanted))
    present = {row.variant for row in dataset.rows}
    skipped: list[dict[str, str]] = []
    for descriptor in selected:
        if descriptor.variant not in present:
            _skip(skipped, descriptor.variant, "not present in the replayed benchmark CSV")
    return dataset, skipped


def _measure(
    selected: list[VariantDescriptor], plan: RunPlan, machine: str
) -> tuple[ReportDataset, list[dict[str, str]], dict[str, float]]:
    """Measure each selected variant: its rows labelled machine, skip entries and seconds.

    A measured variant gets a benchmark row per operation; every variant
    tried, skipped or not, gets its seconds.
    """
    rows: list[ReportRow] = []
    skipped: list[dict[str, str]] = []
    seconds: dict[str, float] = {}
    for done, descriptor in enumerate(selected, start=1):
        family, variant, level = descriptor
        with _stage(seconds, variant) as line:
            try:
                record = benchmark_variant(instantiate(descriptor), plan)
            except (UnsupportedVariant, BackendFailure, CorrectnessViolation) as exc:
                _skip(skipped, variant, str(exc))
                continue
            line.append(f"{variant} ({done}/{len(selected)}) measured")
        for operation in Operation:
            stat = getattr(record, f"{operation.value}_stat")
            rows.append(ReportRow(machine, family, variant, level, Stage.BENCHMARK, None,
                                  operation, stat.mean_ms, stat.std_ms, stat.n))
    return ReportDataset(tuple(rows)), skipped, seconds


def _simulate(
    rows: tuple[ReportRow, ...], sim_configs: dict[ChainModel, SimulationConfig]
) -> ReportDataset:
    """Per verify row and model: the row, with the simulated batch's statistics."""
    sim_rows = []
    for row in rows:
        if row.operation is not Operation.VERIFY:
            continue
        stat = StatSummary(mean_ms=row.mean_ms, std_ms=row.std_ms, n=row.n)
        for model, sim_config in sim_configs.items():
            batch = simulate_batch(sim_config, stat)
            sim_rows.append(
                row._replace(
                    stage=Stage.SIMULATION,
                    model=model,
                    mean_ms=batch.mean_ms,
                    std_ms=batch.std_ms,
                    n=batch.n,
                )
            )
    return ReportDataset(tuple(sim_rows))


def _write_report(
    output_dir: Path, name: str, dataset: ReportDataset, comments: list[str]
) -> list[str]:
    """Write dataset to <name>.csv, then its charts; the file names written, in order.

    Benchmark rows, and the simulation rows of each chain model, get a chart
    for each level group they reach.
    """
    csv_path = output_dir / f"{name}.csv"
    write_csv(dataset, csv_path, comments=comments)
    written = [csv_path.name]
    charts = [(None, "Signature operation latency", "benchmark")] + [
        (model, f"{model.label} mean block verification time", f"simulation_{model.label.lower()}")
        for model in ChainModel
    ]
    for model, title, prefix in charts:
        for levels, part, heading in LEVEL_GROUPS:
            rows = tuple(row for row in dataset.rows if row.model is model and row.level in levels)
            if rows:
                chart = f"{prefix}_{part}.svg"
                render_bar_chart(ReportDataset(rows), f"{title}, {heading}", output_dir / chart)
                written.append(chart)
    return written


def run_pipeline(config: CliConfig) -> int:
    """Execute benchmark, simulation and reporting per config.

    A run measures exactly when no replay CSV is given.
    """
    timings: dict[str, float] = {}
    replayed_from: dict | None = None
    source: dict[str, str] | None = None
    # a refused replay CSV or provider name fails before anything is created on disk
    if config.replay_benchmarks is not None:
        with _stage(timings, "replay") as line:
            replayed, replayed_from, source = _load_replay(config.replay_benchmarks)
            line.append(f"replay: {len(replayed)} rows read from {config.replay_benchmarks}")
    elif forced := os.environ.get(PROVIDER_ENV):
        # a replay instantiates nothing, so only a measuring run checks the name
        try:
            get_provider(forced)
        except UnsupportedVariant as exc:
            raise UsageError(f"{PROVIDER_ENV}={forced}: {exc}") from exc

    output_dir = config.output_dir
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {output_dir}: {exc}") from exc

    selected = [
        d for d in catalog()
        if d.level in config.levels and (config.families is None or d.family in config.families)
    ]
    if not selected:
        in_families = "" if config.families is None else " in the selected families"
        logger.warning("no variants at the selected levels%s", in_families)

    # describes the measuring host, so it stays None unless this run measures
    environment: EnvironmentInfo | None = None
    variant_seconds: dict[str, float] = {}
    if replayed_from is not None:
        bench_dataset, skipped = _replayed(replayed, selected)
    else:
        with _stage(timings, "probe") as line:
            environment = probe_environment()
            floor = environment.loop_floor_ns["median"]
            line.append(f"host: {environment.cpu_model}, loop floor {floor:.0f} ns, probed")
        plan = RunPlan(warmup=config.warmup, runs=config.runs, message_len=config.message_len)
        with _stage(timings, "benchmark") as line:
            bench_dataset, skipped, variant_seconds = _measure(
                selected, plan, environment.cpu_model
            )
            measured = len(selected) - len(skipped)
            line.append(f"benchmark: {measured} of {len(selected)} variants measured")

    comments = _config_comments(config, source)
    with _stage(timings, "benchmark_report") as line:
        outputs = _write_report(output_dir, "benchmark", bench_dataset, comments)
        line.append(f"report: {len(outputs)} benchmark files written")

    if not config.skip_simulation:
        sim_configs = {
            model: SimulationConfig(model, runs=config.runs_simulator, seed=config.seed)
            for model in config.models
        }
        with _stage(timings, "simulation") as line:
            sim_dataset = _simulate(bench_dataset.rows, sim_configs)
            line.append(f"simulation: {len(sim_dataset.rows)} batches")

        for model, sim_config in sim_configs.items():
            comments.extend(f"{model.label.lower()}.{echo}" for echo in config_echo(sim_config))
        with _stage(timings, "simulation_report") as line:
            written = _write_report(output_dir, "simulation", sim_dataset, comments)
            line.append(f"report: {len(written)} simulation files written")
        outputs.extend(written)

    manifest = {
        "config": config.to_dict(),
        "environment": environment._asdict() if environment is not None else None,
        # gmtime and strftime are bound at import, so a fake cli.time leaves this real
        "timestamp": strftime("%Y-%m-%dT%H:%M:%S+00:00", gmtime()),
        "skipped": skipped,
        "outputs": outputs,
        "timings": {"stages": timings, "variants": variant_seconds},
    }
    if replayed_from is not None:
        manifest["replayed_from"] = replayed_from
    path = output_dir / "manifest.json"
    try:
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc

    return 2 if skipped or not selected else 0


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
