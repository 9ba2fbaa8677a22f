"""Argument parsing, pipeline orchestration, exit codes, artifacts."""

from __future__ import annotations

import datetime
import hashlib
import itertools
import json
import logging
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from chainsig import cli
from chainsig.cli import (
    DEFAULT_LEVELS,
    CliConfig,
    main,
    parse_args,
    run_pipeline,
)
from chainsig.errors import UsageError
from chainsig.report import (
    CSV_HEADER,
    Operation,
    ReportDataset,
    ReportRow,
    Stage,
    parse_csv,
    write_csv,
)
from chainsig.schemes import catalog
from chainsig.schemes.base import SchemeInstance
from chainsig.schemes.stub import StubBackend
from chainsig.sim import ChainModel


class TestParseArgs:
    def test_defaults(self):
        config = parse_args([])
        assert config.runs == 10000
        assert config.warmup == 1000
        assert config.levels == DEFAULT_LEVELS == frozenset({1, 2, 3, 5})
        assert config.runs_simulator == 1000
        assert config.models == (ChainModel.BITCOIN, ChainModel.ETHEREUM)
        assert config.seed == 42
        assert config.output_dir == Path("chainsig-results")
        assert config.families is None
        assert config.message_len == 32
        assert not config.skip_simulation
        assert config.replay_benchmarks is None

    def test_repeated_level_flags_accumulate(self):
        config = parse_args(["-l", "1", "-l", "5"])
        assert config.levels == frozenset({1, 5})

    def test_multi_value_level_flag(self):
        config = parse_args(["--levels", "1", "3", "5"])
        assert config.levels == frozenset({1, 3, 5})

    def test_duplicate_levels_collapse(self):
        assert parse_args(["-l", "2", "2", "-l", "2"]).levels == frozenset({2})

    def test_level_4_is_selectable(self):
        assert parse_args(["-l", "4"]).levels == frozenset({4})

    def test_short_flags(self):
        config = parse_args(["-r", "77", "-wp", "0"])
        assert config.runs == 77
        assert config.warmup == 0

    def test_single_model(self):
        assert parse_args(["--model", "2"]).models == (ChainModel.ETHEREUM,)

    def test_models_sorted_and_deduplicated(self):
        config = parse_args(["--model", "2", "--model", "1", "2"])
        assert config.models == (ChainModel.BITCOIN, ChainModel.ETHEREUM)

    def test_families_dedup_preserves_order(self):
        config = parse_args(["--families", "Falcon", "ECDSA", "Falcon"])
        assert config.families == ("Falcon", "ECDSA")

    def test_seed_may_be_negative(self):
        assert parse_args(["--seed", "-9"]).seed == -9

    def test_paths_and_counts(self, tmp_path):
        config = parse_args(
            [
                "--output-dir",
                str(tmp_path / "out"),
                "--runs-simulator",
                "250",
                "--message-len",
                "64",
                "--replay-benchmarks",
                str(tmp_path / "b.csv"),
                "--skip-simulation",
            ]
        )
        assert config.output_dir == tmp_path / "out"
        assert config.runs_simulator == 250
        assert config.message_len == 64
        assert config.replay_benchmarks == tmp_path / "b.csv"
        assert config.skip_simulation

    @pytest.mark.parametrize(
        "argv",
        [
            ["--model", "7"],
            ["--levels", "9"],
            ["--runs", "0"],
            ["--runs", "abc"],
            ["--warm-up", "-3"],
            ["--runs-simulator", "0"],
            ["--message-len", "0"],
            ["--families", "NoSuchFamily"],
            ["--frobnicate"],
            ["--skip-benchmark"],
        ],
    )
    def test_bad_usage_raises(self, argv):
        with pytest.raises(UsageError):
            parse_args(argv)


class TestConfigSerialization:
    def test_round_trip_defaults(self):
        # the CLI's defaults and CliConfig's field defaults agree, field by field
        config = CliConfig()
        assert parse_args([]) == config
        assert config.to_dict() == {
            "runs": 10000,
            "warmup": 1000,
            "levels": [1, 2, 3, 5],
            "runs_simulator": 1000,
            "models": [1, 2],
            "seed": 42,
            "output_dir": "chainsig-results",
            "families": None,
            "message_len": 32,
            "skip_simulation": False,
            "replay_benchmarks": None,
        }

    def test_round_trip_custom(self, tmp_path):
        config = CliConfig(
            runs=5,
            warmup=1,
            levels=frozenset({2, 5}),
            runs_simulator=9,
            models=(ChainModel.ETHEREUM,),
            seed=-3,
            output_dir=tmp_path / "results",
            families=("Falcon",),
            message_len=16,
            skip_simulation=True,
            replay_benchmarks=tmp_path / "prior.csv",
        )
        assert config.to_dict() == {
            "runs": 5,
            "warmup": 1,
            "levels": [2, 5],
            "runs_simulator": 9,
            "models": [2],
            "seed": -3,
            "output_dir": str(tmp_path / "results"),
            "families": ["Falcon"],
            "message_len": 16,
            "skip_simulation": True,
            "replay_benchmarks": str(tmp_path / "prior.csv"),
        }

    def test_to_dict_is_json_compatible(self):
        assert json.loads(json.dumps(CliConfig().to_dict())) == CliConfig().to_dict()


def tiny_config(tmp_path, **overrides) -> CliConfig:
    defaults = dict(
        runs=3,
        warmup=1,
        levels=frozenset({2}),
        runs_simulator=4,
        seed=7,
        output_dir=tmp_path / "out",
    )
    defaults.update(overrides)
    return CliConfig(**defaults)


@pytest.fixture()
def stub_provider(monkeypatch):
    monkeypatch.setenv("CHAINSIG_PROVIDER", "stub")


def write_replay(path: Path, labels) -> Path:
    """A benchmark CSV with keypair, sign and verify rows per (family, variant, level)."""
    rows = tuple(
        ReportRow(
            machine="replay host",
            family=family,
            variant=variant,
            level=level,
            stage=Stage.BENCHMARK,
            model=None,
            operation=operation,
            mean_ms=0.01 * (index + 1),
            std_ms=0.001,
            n=10,
        )
        for index, (family, variant, level) in enumerate(labels)
        for operation in Operation
    )
    write_csv(ReportDataset(rows), path)
    return path


#: one benchmark row as the CSV holds it
_P256_VERIFY = "h,ECDSA,P-256,1,Benchmark,,verify,1.0,0.0,5"


#: the INFO lines that print elapsed seconds, and the timings key each
#: prints; None stands for the variant the line names
_TIMED_LINES = (
    (r"replay: \d+ rows read from .+ in (?P<seconds>\d+\.\d\d) s", "replay"),
    (r"host: .+, probed in (?P<seconds>\d+\.\d\d) s", "probe"),
    (r"(?P<variant>\S+) measured in (?P<seconds>\d+\.\d\d) s \(.+\)", None),
    (r"benchmark: .+ measured in (?P<seconds>\d+\.\d\d) s", "benchmark"),
    (r"report: \d+ benchmark files written in (?P<seconds>\d+\.\d\d) s", "benchmark_report"),
    (r"simulation: \d+ batches in (?P<seconds>\d+\.\d\d) s", "simulation"),
    (
        r"report: \d+ simulation files written in (?P<seconds>\d+\.\d\d) s",
        "simulation_report",
    ),
)


def _logged_seconds(caplog) -> dict[str, float]:
    """{timings key: the seconds its INFO line printed} over the captured chainsig.cli lines."""
    logged = {}
    for record in caplog.records:
        if record.name != "chainsig.cli":
            continue
        for pattern, key in _TIMED_LINES:
            match = re.fullmatch(pattern, record.getMessage())
            if match:
                logged[key or match["variant"]] = float(match["seconds"])
    return logged


class TestRunPipeline:
    def test_full_run_artifacts(self, tmp_path, stub_provider):
        config = tiny_config(tmp_path)
        assert run_pipeline(config) == 0
        out = config.output_dir
        benchmark = parse_csv(out / "benchmark.csv")
        # level 2 holds two variants, three operations each
        assert len(benchmark.rows) == 6
        assert {row.variant for row in benchmark.rows} == {"ML-DSA-44", "Dilithium2"}
        assert {row.stage for row in benchmark.rows} == {Stage.BENCHMARK}
        simulation = parse_csv(out / "simulation.csv")
        # one verify row per variant and model
        assert len(simulation.rows) == 4
        assert {row.model for row in simulation.rows} == set(ChainModel)
        assert (out / "benchmark_lower.svg").is_file()
        assert (out / "simulation_bitcoin_lower.svg").is_file()
        assert (out / "simulation_ethereum_lower.svg").is_file()

    def test_manifest_lists_outputs_in_order(self, tmp_path, stub_provider):
        # ECDSA has one variant at each of levels 1, 3 and 5
        config = tiny_config(tmp_path, levels=frozenset({1, 3, 5}), families=("ECDSA",))
        assert run_pipeline(config) == 0
        manifest = json.loads(
            (config.output_dir / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["outputs"] == [
            "benchmark.csv",
            "benchmark_lower.svg",
            "benchmark_level3.svg",
            "benchmark_level5.svg",
            "simulation.csv",
            "simulation_bitcoin_lower.svg",
            "simulation_bitcoin_level3.svg",
            "simulation_bitcoin_level5.svg",
            "simulation_ethereum_lower.svg",
            "simulation_ethereum_level3.svg",
            "simulation_ethereum_level5.svg",
        ]
        assert sorted(path.name for path in config.output_dir.iterdir()) == sorted(
            manifest["outputs"] + ["manifest.json"]
        )

    def test_manifest_round_trips_config(self, tmp_path, stub_provider):
        config = tiny_config(tmp_path)
        run_pipeline(config)
        manifest = json.loads(
            (config.output_dir / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["config"] == config.to_dict()
        assert manifest["skipped"] == []
        assert "benchmark.csv" in manifest["outputs"]
        assert "simulation.csv" in manifest["outputs"]
        assert manifest["environment"]["cpu_model"]
        assert manifest["environment"]["timer_resolution_ns"] > 0

    def test_manifest_records_are_json_objects(self, tmp_path, stub_provider):
        # a named tuple handed to json.dumps as itself would become a list
        config = tiny_config(tmp_path)
        run_pipeline(config)
        manifest = json.loads((config.output_dir / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["environment"]) == [
            "cpu_model", "memory_bytes", "os_descriptor", "timer_resolution_ns"
        ]
        assert list(manifest["config"]) == sorted([
            "runs", "warmup", "levels", "runs_simulator", "models", "seed", "output_dir",
            "families", "message_len", "skip_simulation", "replay_benchmarks",
        ])

    def test_manifest_timestamp_is_utc_to_the_second(self, tmp_path, stub_provider):
        config = tiny_config(tmp_path)
        run_pipeline(config)
        manifest = json.loads((config.output_dir / "manifest.json").read_text(encoding="utf-8"))
        stamp = manifest["timestamp"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
        written = datetime.datetime.fromisoformat(stamp)
        assert written.utcoffset() == datetime.timedelta(0)
        now = datetime.datetime.now(datetime.timezone.utc)
        assert abs(now - written) < datetime.timedelta(minutes=1)

    def test_benchmark_csv_carries_config_comments(self, tmp_path, stub_provider):
        config = tiny_config(tmp_path)
        run_pipeline(config)
        text = (config.output_dir / "benchmark.csv").read_text(encoding="utf-8")
        head = [line for line in text.splitlines() if line.startswith("# ")]
        assert "# runs=3" in head
        assert "# warmup=1" in head
        assert "# levels=2" in head
        assert "# families=all" in head

    def test_csv_comment_lines_pinned(self, tmp_path, stub_provider):
        config = tiny_config(
            tmp_path,
            levels=frozenset({5, 2}),
            models=(ChainModel.ETHEREUM,),
            families=("ML-DSA", "Dilithium"),
            message_len=16,
        )
        assert run_pipeline(config) == 0
        expected = [
            "# runs=3",
            "# warmup=1",
            "# levels=2,5",
            "# models=2",
            "# runs_simulator=4",
            "# seed=7",
            "# message_len=16",
            "# families=ML-DSA,Dilithium",
        ]
        # the next line is the column header, or the first model echo
        for name, next_line in (
            ("benchmark.csv", CSV_HEADER),
            ("simulation.csv", "# ethereum.model=Ethereum"),
        ):
            lines = (config.output_dir / name).read_text(encoding="utf-8").splitlines()
            assert lines[:9] == expected + [next_line]

    def test_simulation_csv_echoes_model_configs(self, tmp_path, stub_provider):
        config = tiny_config(tmp_path)
        run_pipeline(config)
        text = (config.output_dir / "simulation.csv").read_text(encoding="utf-8")
        assert "# bitcoin.model=Bitcoin" in text
        assert "# bitcoin.tx_per_block_mean=1729.0" in text
        assert "# ethereum.block_interval_s=13.0" in text
        assert "# bitcoin.runs=4" in text
        assert "# bitcoin.seed=7" in text

    def test_empty_selection_exits_2(self, tmp_path, stub_provider, caplog):
        config = tiny_config(tmp_path, levels=frozenset({4}))
        with caplog.at_level(logging.WARNING, logger="chainsig.cli"):
            assert run_pipeline(config) == 2
        assert "no variants" in caplog.text
        benchmark = parse_csv(config.output_dir / "benchmark.csv")
        assert benchmark.rows == ()
        simulation = parse_csv(config.output_dir / "simulation.csv")
        assert simulation.rows == ()

    def test_progress_lines(self, tmp_path, stub_provider, caplog):
        caplog.set_level(logging.INFO, logger="chainsig.cli")
        assert run_pipeline(tiny_config(tmp_path)) == 0
        lines = [record.getMessage() for record in caplog.records if record.name == "chainsig.cli"]
        seconds = r"\d+\.\d\d s"
        patterns = [
            rf"host: .+, timer resolution \d+ ns, probed in {seconds}",
            rf"ML-DSA-44 measured in {seconds} \(1/2, ETA \d+\.\d s\)",
            rf"Dilithium2 measured in {seconds} \(2/2, ETA 0\.0 s\)",
            rf"benchmark: 2 of 2 variants measured in {seconds}",
            rf"report: 2 benchmark files written in {seconds}",
            rf"simulation: 4 batches in {seconds}",
            rf"report: 3 simulation files written in {seconds}",
        ]
        assert len(lines) == len(patterns)
        for line, pattern in zip(lines, patterns):
            assert re.fullmatch(pattern, line), line

    @pytest.mark.parametrize(
        "replay,skip_simulation,stages",
        [
            (False, False, {"probe", "benchmark", "benchmark_report", "simulation",
                            "simulation_report"}),
            (True, False, {"replay", "benchmark_report", "simulation", "simulation_report"}),
            (False, True, {"probe", "benchmark", "benchmark_report"}),
            (True, True, {"replay", "benchmark_report"}),
        ],
        ids=["live", "replay", "live-skip-simulation", "replay-skip-simulation"],
    )
    def test_manifest_timings_match_the_log(
        self, tmp_path, stub_provider, caplog, replay, skip_simulation, stages
    ):
        level_2 = [(d.family, d.variant, d.level) for d in catalog() if d.level == 2]
        config = tiny_config(
            tmp_path,
            replay_benchmarks=write_replay(tmp_path / "replay.csv", level_2) if replay else None,
            skip_simulation=skip_simulation,
        )
        caplog.set_level(logging.INFO, logger="chainsig.cli")
        assert run_pipeline(config) == 0
        manifest = json.loads((config.output_dir / "manifest.json").read_text(encoding="utf-8"))
        timings = manifest["timings"]
        assert set(timings["stages"]) == stages
        assert set(timings["variants"]) == (set() if replay else {v for _, v, _ in level_2})
        seconds = {**timings["stages"], **timings["variants"]}
        assert all(value >= 0 for value in seconds.values())
        assert _logged_seconds(caplog) == {key: round(value, 2) for key, value in seconds.items()}

    def test_each_stage_is_timed_once(self, tmp_path, stub_provider, caplog, monkeypatch):
        # every clock read advances 1.25 s, so each figure counts the reads
        # inside its stage, and a line that read a clock of its own would
        # print another figure than the manifest records
        reads = itertools.count()
        clock = SimpleNamespace(perf_counter=lambda: 1.25 * next(reads))
        monkeypatch.setattr("chainsig.cli.time", clock)
        caplog.set_level(logging.INFO, logger="chainsig.cli")
        config = tiny_config(tmp_path)
        assert run_pipeline(config) == 0
        manifest = json.loads((config.output_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["timings"] == {
            "stages": {
                "probe": 1.25,
                "benchmark": 6.25,
                "benchmark_report": 1.25,
                "simulation": 1.25,
                "simulation_report": 1.25,
            },
            "variants": {"ML-DSA-44": 1.25, "Dilithium2": 1.25},
        }
        assert _logged_seconds(caplog) == {
            **manifest["timings"]["stages"], **manifest["timings"]["variants"]
        }

    def test_replay_logs_its_read(self, tmp_path, stub_provider, caplog):
        source = tiny_config(tmp_path, output_dir=tmp_path / "measured", skip_simulation=True)
        run_pipeline(source)
        caplog.clear()
        caplog.set_level(logging.INFO, logger="chainsig.cli")
        replay = source.output_dir / "benchmark.csv"
        run_pipeline(tiny_config(tmp_path, replay_benchmarks=replay, skip_simulation=True))
        assert re.fullmatch(
            rf"replay: 6 rows read from {re.escape(str(replay))} in \d+\.\d\d s",
            caplog.records[0].getMessage(),
        )

    def test_skip_simulation(self, tmp_path, stub_provider):
        config = tiny_config(tmp_path, skip_simulation=True)
        assert run_pipeline(config) == 0
        assert (config.output_dir / "benchmark.csv").is_file()
        assert not (config.output_dir / "simulation.csv").exists()

    def test_families_filter(self, tmp_path, stub_provider):
        config = tiny_config(
            tmp_path, levels=frozenset({1, 3, 5}), families=("ECDSA",)
        )
        assert run_pipeline(config) == 0
        benchmark = parse_csv(config.output_dir / "benchmark.csv")
        assert {row.family for row in benchmark.rows} == {"ECDSA"}
        assert len(benchmark.rows) == 9

    def test_unsupported_variants_skipped_exit_2(self, tmp_path, monkeypatch, caplog):
        # the classical provider serves nothing post-quantum, so every
        # other level-1 variant must be skipped and reported
        monkeypatch.setenv("CHAINSIG_PROVIDER", "ecdsa")
        config = tiny_config(tmp_path, levels=frozenset({1}))
        with caplog.at_level(logging.WARNING, logger="chainsig.cli"):
            assert run_pipeline(config) == 2
        benchmark = parse_csv(config.output_dir / "benchmark.csv")
        assert {row.variant for row in benchmark.rows} == {"P-256"}
        manifest = json.loads(
            (config.output_dir / "manifest.json").read_text(encoding="utf-8")
        )
        skipped = {entry["variant"] for entry in manifest["skipped"]}
        assert "Falcon-512" in skipped
        assert len(skipped) == 13
        # every variant the run tried has its seconds, skipped ones too
        tried = {d.variant for d in catalog() if d.level == 1}
        assert set(manifest["timings"]["variants"]) == tried

    def test_replay_skips_measurement(self, tmp_path, stub_provider):
        source = tiny_config(tmp_path, output_dir=tmp_path / "measured")
        assert run_pipeline(source) == 0
        replay = tiny_config(
            tmp_path,
            output_dir=tmp_path / "replayed",
            replay_benchmarks=tmp_path / "measured" / "benchmark.csv",
        )
        assert run_pipeline(replay) == 0
        measured = (tmp_path / "measured" / "benchmark.csv").read_bytes()
        replayed = (tmp_path / "replayed" / "benchmark.csv").read_bytes()
        assert measured == replayed

    def test_replay_manifest_records_source(self, tmp_path, stub_provider, monkeypatch):
        source = tiny_config(tmp_path, output_dir=tmp_path / "measured")
        run_pipeline(source)
        replay_csv = tmp_path / "measured" / "benchmark.csv"

        def no_probe(*args, **kwargs):
            raise AssertionError("a replay must not probe the host")

        monkeypatch.setattr("chainsig.cli.probe_environment", no_probe)
        config = tiny_config(
            tmp_path, output_dir=tmp_path / "replayed", replay_benchmarks=replay_csv
        )
        assert run_pipeline(config) == 0
        manifest = json.loads(
            (config.output_dir / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["environment"] is None
        assert manifest["replayed_from"] == {
            "path": str(replay_csv),
            "sha256": hashlib.sha256(replay_csv.read_bytes()).hexdigest(),
            "machines": sorted({row.machine for row in parse_csv(replay_csv).rows}),
        }

    @pytest.mark.parametrize(
        "blocked", [("hashlib",), ("_sha2", "_sha256")], ids=["builtin", "hashlib-fallback"]
    )
    def test_replay_digest_is_sha256_on_each_branch(self, monkeypatch, blocked):
        # a None entry in sys.modules makes importing that name fail: with
        # hashlib blocked the digest comes from _sha2 or _sha256, and with
        # both of those blocked from hashlib
        data = f"{CSV_HEADER}\n{_P256_VERIFY}\n".encode() * 100
        expected = hashlib.sha256(data).hexdigest()
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        assert cli._sha256_hex(data) == expected

    def test_replay_is_deterministic(self, tmp_path, stub_provider):
        source = tiny_config(tmp_path, output_dir=tmp_path / "measured")
        run_pipeline(source)
        replay_csv = tmp_path / "measured" / "benchmark.csv"
        outputs = []
        for name in ("a", "b"):
            config = tiny_config(
                tmp_path,
                output_dir=tmp_path / name,
                replay_benchmarks=replay_csv,
            )
            assert run_pipeline(config) == 0
            outputs.append(
                {
                    path.name: path.read_bytes()
                    for path in sorted((tmp_path / name).iterdir())
                    if path.suffix in {".csv", ".svg"}
                }
            )
        assert outputs[0] == outputs[1]
        assert "simulation.csv" in outputs[0]

    def test_simulation_rows_carry_their_verify_row_labels(self, tmp_path):
        replay_csv = write_replay(
            tmp_path / "replay.csv", [(d.family, d.variant, d.level) for d in catalog()]
        )
        config = tiny_config(
            tmp_path, levels=DEFAULT_LEVELS, replay_benchmarks=replay_csv
        )
        assert run_pipeline(config) == 0
        verify_rows = {
            row.variant: row
            for row in parse_csv(config.output_dir / "benchmark.csv").rows
            if row.operation is Operation.VERIFY
        }
        simulation = parse_csv(config.output_dir / "simulation.csv").rows
        for model in ChainModel:
            rows = [row for row in simulation if row.model is model]
            assert sorted(row.variant for row in rows) == sorted(verify_rows)
            for row in rows:
                verify = verify_rows[row.variant]
                assert (row.machine, row.family, row.variant, row.level) == (
                    verify.machine, verify.family, verify.variant, verify.level
                )
                assert (row.stage, row.model, row.operation) == (
                    Stage.SIMULATION, model, Operation.VERIFY
                )
                assert row.n == config.runs_simulator

    def test_replay_missing_variant_exit_2(self, tmp_path, stub_provider):
        source = tiny_config(tmp_path, output_dir=tmp_path / "measured")
        run_pipeline(source)
        # ask for more levels than the replayed file contains
        config = tiny_config(
            tmp_path,
            levels=frozenset({1, 2}),
            output_dir=tmp_path / "wider",
            replay_benchmarks=tmp_path / "measured" / "benchmark.csv",
        )
        assert run_pipeline(config) == 2
        manifest = json.loads(
            (config.output_dir / "manifest.json").read_text(encoding="utf-8")
        )
        reasons = {entry["reason"] for entry in manifest["skipped"]}
        assert reasons == {"not present in the replayed benchmark CSV"}


class TestMain:
    def test_skip_benchmark_is_unrecognized(self, tmp_path, capsys):
        # a run measures exactly when no replay CSV is given
        assert main(["--skip-benchmark", "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "chainsig: error: unrecognized arguments: --skip-benchmark"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("prefix", ["--skip", "--skip-s"])
    def test_abbreviated_flags_are_unrecognized(self, prefix, tmp_path, capsys):
        # were the prefix taken as a flag, the absent replay file would end
        # the run at once instead of measuring the catalog
        argv = [
            prefix,
            "--replay-benchmarks",
            str(tmp_path / "absent.csv"),
            "--output-dir",
            str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"chainsig: error: unrecognized arguments: {prefix}"
        ]
        assert not (tmp_path / "out").exists()

    def test_backend_failure_skips_its_variant(self, tmp_path, stub_provider, monkeypatch, caplog):
        # a backend that fails mid-run costs its own variant, not the rows
        # already measured
        real_instantiate = cli.instantiate

        class FailingSign(StubBackend):
            def sign(self, secret_key, message):
                raise RuntimeError("rc=-1")

        def instantiate(descriptor):
            if descriptor.variant == "P-521":
                return SchemeInstance(descriptor, FailingSign())
            return real_instantiate(descriptor)

        monkeypatch.setattr(cli, "instantiate", instantiate)
        out = tmp_path / "out"
        argv = [
            "--families", "ECDSA", "ML-DSA", "--runs", "5", "--warm-up", "1",
            "--skip-simulation", "--output-dir", str(out),
        ]
        with caplog.at_level(logging.WARNING, logger="chainsig.cli"):
            assert main(argv) == 2
        reason = "P-521: sign failed in backend: rc=-1"
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            f"skipping P-521: {reason}"
        ]
        rows = parse_csv(out / "benchmark.csv").rows
        assert {row.variant for row in rows} == {
            "P-256", "P-384", "ML-DSA-44", "ML-DSA-65", "ML-DSA-87"
        }
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["skipped"] == [{"variant": "P-521", "reason": reason}]

    def test_usage_error_exits_1(self, capsys):
        assert main(["--runs", "0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["--frobnicate"]) == 1
        assert "--frobnicate" in capsys.readouterr().err

    def test_missing_replay_file_exits_1(self, tmp_path, capsys):
        code = main(
            [
                "--replay-benchmarks",
                str(tmp_path / "absent.csv"),
                "--output-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "fatal" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_replay_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe# bad\n")
        out = tmp_path / "out"
        code = main(["--replay-benchmarks", str(bad), "--output-dir", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"chainsig: fatal: cannot read {bad}: ")
        assert not out.exists()

    def test_replay_from_two_machines_exits_1(self, tmp_path, stub_provider, capsys):
        source = tiny_config(tmp_path, output_dir=tmp_path / "measured", skip_simulation=True)
        run_pipeline(source)
        rows = parse_csv(source.output_dir / "benchmark.csv").rows
        mixed = tmp_path / "mixed.csv"
        write_csv(
            ReportDataset(
                tuple(row._replace(machine=name) for name in ("host-a", "host-b") for row in rows)
            ),
            mixed,
        )
        capsys.readouterr()
        out = tmp_path / "out"
        code = main(["--levels", "2", "--replay-benchmarks", str(mixed), "--output-dir", str(out)])
        assert code == 1
        fatal = [line for line in capsys.readouterr().err.splitlines() if "chainsig:" in line]
        assert len(fatal) == 1
        assert fatal[0].startswith("chainsig: fatal: ")
        assert "'host-a'" in fatal[0] and "'host-b'" in fatal[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "labels,expected",
        [
            (
                ("ECDSA", "P-256", 3),
                "P-256 is labelled ECDSA level 3, but the catalog has ECDSA level 1",
            ),
            (
                ("ECDSA", "Foo-9", 1),
                "Foo-9 (labelled ECDSA level 1) is not in the catalog",
            ),
        ],
        ids=["wrong-level", "unknown-variant"],
    )
    def test_replay_row_off_catalog_exits_1(self, tmp_path, capsys, labels, expected):
        # the simulation rows inherit their verify row's labels, so a replay
        # row must carry the catalog's
        replay_csv = write_replay(tmp_path / "replay.csv", [("ECDSA", "P-384", 3), labels])
        out = tmp_path / "out"
        assert main(["--replay-benchmarks", str(replay_csv), "--output-dir", str(out)]) == 1
        fatal = [line for line in capsys.readouterr().err.splitlines() if "chainsig:" in line]
        assert fatal == [f"chainsig: fatal: {replay_csv}: {expected}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "body,expected",
        [
            (
                "# seed=7\nmachine,family\n",
                f"line 2: missing or malformed header; expected {CSV_HEADER!r}",
            ),
            (
                f"{CSV_HEADER}\n{_P256_VERIFY}\nh,ECDSA,P-256,x,Benchmark,,verify,1.0,0.0,5\n",
                "line 3: malformed row h,ECDSA,P-256,x,Benchmark,,verify,1.0,0.0,5:"
                " invalid literal for int() with base 10: 'x'",
            ),
            (
                f'{CSV_HEADER}\n{_P256_VERIFY}\nh,"EC,DSA",P-256,1,Benchmark,,verify\n',
                'line 3: expected 10 fields, got 7: h,"EC,DSA",P-256,1,Benchmark,,verify',
            ),
            (
                # a quoted newline is printed escaped, so the message stays one line
                f'{CSV_HEADER}\n{_P256_VERIFY}\nh,"EC\nDSA",P-256,1,Benchmark,,verify\n',
                'line 3: expected 10 fields, got 7: h,"EC\\nDSA",P-256,1,Benchmark,,verify',
            ),
            (
                f"{CSV_HEADER}\n{_P256_VERIFY}\n\n{_P256_VERIFY}\n",
                "line 4: duplicate result row for h,ECDSA,P-256,1,Benchmark,,verify,"
                " first on line 2",
            ),
        ],
        ids=["header", "malformed-row", "field-count", "quoted-newline", "duplicate-row"],
    )
    def test_unparsable_replay_exits_1(self, tmp_path, capsys, body, expected):
        replay_csv = tmp_path / "replay.csv"
        replay_csv.write_text(body, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--replay-benchmarks", str(replay_csv), "--output-dir", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"chainsig: fatal: {replay_csv}: {expected}"]
        assert "<Stage." not in lines[0]
        assert not out.exists()

    def test_replay_of_simulation_rows_exits_1(self, tmp_path, capsys):
        # a simulation.csv given by mistake is refused whole, not replayed
        # as a file with no benchmark rows
        bench = write_replay(tmp_path / "bench.csv", [("ECDSA", "P-256", 1)])
        first = tmp_path / "first"
        argv = ["--families", "ECDSA", "--levels", "1", "--output-dir"]
        assert main([*argv, str(first), "--replay-benchmarks", str(bench)]) == 0
        capsys.readouterr()
        simulation = first / "simulation.csv"
        out = tmp_path / "out"
        assert main([*argv, str(out), "--replay-benchmarks", str(simulation)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"chainsig: fatal: {simulation}: 2 simulation rows; a replay takes benchmark rows only"
        ]
        assert not out.exists()

    def test_small_stub_run_exits_0(self, tmp_path, stub_provider):
        code = main(
            [
                "--runs",
                "2",
                "--warm-up",
                "0",
                "--levels",
                "2",
                "--runs-simulator",
                "2",
                "--output-dir",
                str(tmp_path / "cli-out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "cli-out" / "manifest.json").is_file()

    def test_empty_selection_exits_2(self, tmp_path, stub_provider):
        code = main(
            [
                "--levels",
                "4",
                "--output-dir",
                str(tmp_path / "empty-out"),
            ]
        )
        assert code == 2
