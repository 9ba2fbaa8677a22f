"""Argument parsing, pipeline orchestration, exit codes, artifacts."""

from __future__ import annotations

import csv
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

from chainsig import bench, cli
from chainsig.bench import EnvironmentInfo, StatSummary, summarize
from chainsig.cli import (
    DEFAULT_LEVELS,
    CliConfig,
    main,
    parse_args,
    run_pipeline,
)
from chainsig.errors import UnsupportedVariant, UsageError
from chainsig.report import (
    CSV_HEADER,
    Operation,
    ReportDataset,
    ReportRow,
    Stage,
    parse_csv,
    write_csv,
)
from chainsig.schemes import by_variant, catalog
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

#: every catalog variant on one machine, its rows out of catalog order;
#: means from 0.003 to 30 ms, and four verify rows whose std is 1.5 times
#: their mean, so that the simulator clamps negative draws
_GOLDEN_REPLAY_CSV = Path(__file__).parent / "data" / "golden_catalog_replay.csv"

#: SHA-256 of each file a replay of _GOLDEN_REPLAY_CSV writes with
#: --runs-simulator 50 --seed 9
_GOLDEN_REPLAY_DIGESTS = {
    "benchmark.csv": "c5c523bef9e7878d408f322bb089b795582fc0755858c069a6083badad676734",
    "benchmark_level3.svg": "f176490d2e7eaaddaacfe0eb0d1ba6d9efc9a9a72dddd3edccb994bc350b3617",
    "benchmark_level5.svg": "83fdd5cfdc97f59069614fab3e0c4646552c82104b964aeca370ee201ccebec7",
    "benchmark_lower.svg": "b0e5a320d44283f126e39fd204ddd600063ed9f4e2cdf2a5e918a02150254629",
    "simulation.csv": "cd4ce9b874c36040923c4d0f4e36f79cfe2383eb4f5b4635e979e2404cdf7efc",
    "simulation_bitcoin_level3.svg":
        "cb4c0a3db8998b9cba955a84d4bec65bc02e30653d26cbb2692ef7299bcd3cc8",
    "simulation_bitcoin_level5.svg":
        "3059f51a5973e697de32f9239d26daca861925ce34eb145a74f2c68daab48f67",
    "simulation_bitcoin_lower.svg":
        "3acfe65d4bac02f029afa58c517d7ced9770d5d1e66a935421ebb16d3f585a90",
    "simulation_ethereum_level3.svg":
        "c93566add188b69f945f59e03f5d3b7541b26e66d0e7b37b9ac2b72670e77d34",
    "simulation_ethereum_level5.svg":
        "796d44ab29218115335ced510d653a9a87041d1244037e69351c03d982a7d48e",
    "simulation_ethereum_lower.svg":
        "fc4f4c0bc767e083f031f1c0695e4e9b9f137c249ef778a01f9e7641b9332963",
}

#: the host a measuring golden run records
_GOLDEN_HOST = EnvironmentInfo(
    "golden host", 1 << 30, "golden-os", {"median": 90.0, "min": 85.5, "max": 104.0}
)

#: SHA-256 of each file a stub run of every variant writes with --runs 20
#: --warm-up 2 --runs-simulator 20 --seed 5, when clock read k returns
#: 50 k^2 ns, so that each window is longer than the one before it
_GOLDEN_MEASURED_DIGESTS = {
    "benchmark.csv": "4bc3f39a191d5a2d732f2f8842a7fd62ff50c872a201b7fe1c0d4aaeec3c6a8b",
    "benchmark_level3.svg": "94cada1b7a9e12d0c3ccb3a267160e421b96f29cf1f59ff530c114ed1d27b8bb",
    "benchmark_level5.svg": "72ac7c529ff2524c2b45362502f48874868141cbf63af710c098c4843cfeef39",
    "benchmark_lower.svg": "8b158c0deb0e3666031c3df64185ef6068960341b2ff7020ae47763e73d57a25",
    "simulation.csv": "9f4bc89e131502b280c6a11982b9dbc2d64e795881c38947d2d3170cb10eaa7d",
    "simulation_bitcoin_level3.svg":
        "b4e2e46eeea9f14adde241ac30bed9ccbb02eb4fb1907b7b80047ac2eea07a92",
    "simulation_bitcoin_level5.svg":
        "f4b1b49efe0f894bd4c836ea8b74c31aea3e720065a68a2286c7c511c3eec869",
    "simulation_bitcoin_lower.svg":
        "758e735c7c6815dd60c9bf2381ae13b3608625b62f08fd52f70187be19054e95",
    "simulation_ethereum_level3.svg":
        "778a04de8cf90d603a2af6394aebc8b20e60ee817238d89468599d80056f4334",
    "simulation_ethereum_level5.svg":
        "a46bd04ace33fac69948f6b167e0623d9faff936cad4d8e79ceecef75b80756a",
    "simulation_ethereum_lower.svg":
        "0db591632999f08d1303fbc8c4e4e19b08ad93672b7fe59a73adb04a6d8d69a3",
}

#: SHA-256 of that run's 46 `variants` records as JSON with sorted keys,
#: each without its `seconds`, which the real clock times as it does `timings`
_GOLDEN_MEASURED_RECORDS = "8885318caeacb194b1c3920c959b7a8b1b46d1cb76425f5cd1f1d052e87206c6"

#: that run's manifest, without its timestamp, timings and variants
_GOLDEN_MEASURED_MANIFEST = {
    "config": {
        "families": None,
        "levels": [1, 2, 3, 5],
        "message_len": 32,
        "models": [1, 2],
        "output_dir": "out",
        "replay_benchmarks": None,
        "runs": 20,
        "runs_simulator": 20,
        "seed": 5,
        "skip_simulation": False,
        "warmup": 2,
    },
    "environment": {
        "cpu_model": "golden host",
        "memory_bytes": 1 << 30,
        "os_descriptor": "golden-os",
        "loop_floor_ns": {"median": 90.0, "min": 85.5, "max": 104.0},
    },
    "outputs": [
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
    ],
    "skipped": [],
}


#: the INFO lines that print elapsed seconds, and the timings key each
#: prints; None stands for the variant the line names
_TIMED_LINES = (
    (r"replay: \d+ rows read from .+ in (?P<seconds>\d+\.\d\d) s", "replay"),
    (r"host: .+, probed in (?P<seconds>\d+\.\d\d) s", "probe"),
    (r"(?P<variant>\S+) \(\d+/\d+\) measured in (?P<seconds>\d+\.\d\d) s", None),
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
        assert manifest["environment"]["loop_floor_ns"]["median"] > 0

    def test_manifest_records_are_json_objects(self, tmp_path, stub_provider):
        # a named tuple handed to json.dumps as itself would become a list
        config = tiny_config(tmp_path)
        run_pipeline(config)
        manifest = json.loads((config.output_dir / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["environment"]) == [
            "cpu_model", "loop_floor_ns", "memory_bytes", "os_descriptor"
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
            rf"host: .+, loop floor \d+ ns, probed in {seconds}",
            rf"ML-DSA-44 \(1/2\) measured in {seconds}",
            rf"Dilithium2 \(2/2\) measured in {seconds}",
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
        assert list(manifest["timings"]) == ["stages"]
        assert set(manifest["timings"]["stages"]) == stages
        assert set(manifest["variants"]) == (set() if replay else {v for _, v, _ in level_2})
        seconds = {
            **manifest["timings"]["stages"],
            **{variant: record["seconds"] for variant, record in manifest["variants"].items()},
        }
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
        }
        variants = {variant: record["seconds"] for variant, record in manifest["variants"].items()}
        assert variants == {"ML-DSA-44": 1.25, "Dilithium2": 1.25}
        assert _logged_seconds(caplog) == {**manifest["timings"]["stages"], **variants}

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

    @pytest.mark.parametrize(
        "levels,families,count,warning",
        [
            ({1, 5}, None, 30, None),
            ({2}, None, 2, None),
            ({1, 2, 3, 4, 5}, None, 46, None),
            ({3, 5}, ("Falcon", "ECDSA"), 3, None),
            ({1, 2, 3, 5}, ("Mayo", "Dilithium"), 6, None),
            # level 2 holds ML-DSA-44 and Dilithium2, but no ECDSA variant
            ({2}, ("ECDSA",), 0, "no variants at the selected levels in the selected families"),
            ({4}, None, 0, "no variants at the selected levels"),
            (set(), None, 0, "no variants at the selected levels"),
        ],
        ids=[
            "levels-1-5", "level-2", "all-levels", "falcon-ecdsa-levels-3-5",
            "mayo-dilithium", "ecdsa-level-2", "level-4", "no-levels",
        ],
    )
    def test_selection_is_levels_by_families_in_catalog_order(
        self, tmp_path, stub_provider, monkeypatch, caplog, levels, families, count, warning
    ):
        tried = []
        real_instantiate = cli.instantiate

        def instantiate(descriptor):
            tried.append(descriptor.variant)
            return real_instantiate(descriptor)

        monkeypatch.setattr(cli, "instantiate", instantiate)
        config = tiny_config(
            tmp_path, runs=1, warmup=0, levels=frozenset(levels), families=families,
            skip_simulation=True,
        )
        # an empty selection is a partial success
        with caplog.at_level(logging.WARNING, logger="chainsig.cli"):
            assert run_pipeline(config) == (0 if count else 2)
        assert caplog.messages == ([warning] if warning else [])
        assert tried == [
            d.variant for d in catalog()
            if d.level in levels and (families is None or d.family in families)
        ]
        assert len(tried) == count

    def test_replay_states_the_settings_its_source_measured(self, tmp_path, stub_provider):
        source = tiny_config(tmp_path, output_dir=tmp_path / "measured", message_len=16)
        assert run_pipeline(source) == 0
        replay = tiny_config(
            tmp_path,
            output_dir=tmp_path / "replayed",
            runs=20,
            warmup=2,
            replay_benchmarks=source.output_dir / "benchmark.csv",
        )
        assert run_pipeline(replay) == 0
        expected = [
            "# runs=3",
            "# warmup=1",
            "# levels=2",
            "# models=1,2",
            "# runs_simulator=4",
            "# seed=7",
            "# message_len=16",
            "# families=all",
        ]
        for name in ("benchmark.csv", "simulation.csv"):
            lines = (replay.output_dir / name).read_text(encoding="utf-8").splitlines()
            assert lines[:8] == expected, name

    def test_replay_of_a_csv_without_settings_states_none(self, tmp_path):
        replay_csv = write_replay(tmp_path / "replay.csv", [("ECDSA", "P-256", 1)])
        config = tiny_config(
            tmp_path, levels=frozenset({1}), families=("ECDSA",), replay_benchmarks=replay_csv
        )
        assert run_pipeline(config) == 0
        text = (config.output_dir / "benchmark.csv").read_text(encoding="utf-8")
        assert [line for line in text.splitlines() if line.startswith("#")] == [
            "# levels=1",
            "# models=1,2",
            "# runs_simulator=4",
            "# seed=7",
            "# families=ECDSA",
        ]

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
        # every variant the run tried has its record and seconds, skipped ones too
        tried = {d.variant for d in catalog() if d.level == 1}
        assert set(manifest["variants"]) == tried
        assert all(record["seconds"] >= 0 for record in manifest["variants"].values())

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
            # a replay writes back the measured run's benchmark.csv itself
            assert (tmp_path / name / "benchmark.csv").read_bytes() == replay_csv.read_bytes()
            outputs.append(
                {
                    path.name: path.read_bytes()
                    for path in sorted((tmp_path / name).iterdir())
                    if path.suffix in {".csv", ".svg"}
                }
            )
        assert outputs[0] == outputs[1]
        assert "simulation.csv" in outputs[0]

    def test_replay_of_a_csv_with_a_byte_order_mark(self, tmp_path, stub_provider):
        # spreadsheet tools save a CSV with a UTF-8 byte-order mark ahead of line 1
        source = tiny_config(tmp_path, output_dir=tmp_path / "measured")
        assert run_pipeline(source) == 0
        plain = source.output_dir / "benchmark.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_csv(marked) == parse_csv(plain)
        outputs = []
        for path in (plain, marked):
            out = tmp_path / f"from_{path.stem}"
            argv = ["--replay-benchmarks", str(path), "--levels", "2", "--runs-simulator", "4",
                    "--seed", "7", "--output-dir", str(out)]
            assert main(argv) == 0
            outputs.append(
                {
                    written.name: written.read_bytes()
                    for written in sorted(out.iterdir())
                    if written.suffix in {".csv", ".svg"}
                }
            )
        assert outputs[0] == outputs[1]
        assert "simulation.csv" in outputs[0]
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        # the digest names the bytes on disk, mark included
        digest = hashlib.sha256(marked.read_bytes()).hexdigest()
        assert manifest["replayed_from"]["sha256"] == digest

    def test_full_catalog_replay_matches_golden_digests(self, tmp_path):
        out = tmp_path / "out"
        argv = ["--replay-benchmarks", str(_GOLDEN_REPLAY_CSV), "--runs-simulator", "50",
                "--seed", "9", "--output-dir", str(out)]
        assert main(argv) == 0
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()
            if path.suffix in {".csv", ".svg"}
        }
        assert written == _GOLDEN_REPLAY_DIGESTS

    def test_full_catalog_measuring_run_matches_golden_digests(
        self, tmp_path, stub_provider, monkeypatch
    ):
        reads = itertools.count()
        monkeypatch.setattr("chainsig.bench.time.perf_counter_ns", lambda: 50 * next(reads) ** 2)
        monkeypatch.setattr(cli, "probe_environment", lambda: _GOLDEN_HOST)
        # a relative output directory, so that the manifest's config holds no tmp_path
        monkeypatch.chdir(tmp_path)
        argv = ["--runs", "20", "--warm-up", "2", "--runs-simulator", "20", "--seed", "5",
                "--output-dir", "out"]
        assert main(argv) == 0
        out = tmp_path / "out"
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()
            if path.suffix in {".csv", ".svg"}
        }
        assert written == _GOLDEN_MEASURED_DIGESTS
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        records = manifest.pop("variants")
        assert len(records) == 46
        for record in records.values():
            assert record.pop("seconds") >= 0
        text = json.dumps(records, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_MEASURED_RECORDS
        del manifest["timestamp"], manifest["timings"]
        assert manifest == _GOLDEN_MEASURED_MANIFEST

    def test_variant_records_hold_the_unrounded_statistics(
        self, tmp_path, stub_provider, monkeypatch
    ):
        # clock read k returns 50 k^2 ns, so no two windows are alike, and a
        # record that held another op's statistics, or rounded ones, differs
        reads = itertools.count()
        monkeypatch.setattr("chainsig.bench.time.perf_counter_ns", lambda: 50 * next(reads) ** 2)
        monkeypatch.setattr(cli, "probe_environment", lambda: _GOLDEN_HOST)
        timed = []
        real_time_operation = bench.time_operation

        def time_operation(*args):
            timed.append(real_time_operation(*args))
            return timed[-1]

        class FailingKeypair(StubBackend):
            def keypair(self):
                raise RuntimeError("rc=-1")

        real_instantiate = cli.instantiate

        def instantiate(descriptor):
            if descriptor.variant == "P-384":
                return SchemeInstance(descriptor, FailingKeypair())
            return real_instantiate(descriptor)

        monkeypatch.setattr(bench, "time_operation", time_operation)
        monkeypatch.setattr(cli, "instantiate", instantiate)
        config = tiny_config(
            tmp_path, runs=20, warmup=2, levels=frozenset({1, 3, 5}), families=("ECDSA",),
            skip_simulation=True,
        )
        assert run_pipeline(config) == 2
        manifest = json.loads((config.output_dir / "manifest.json").read_text(encoding="utf-8"))
        assert list(manifest["timings"]) == ["stages"]
        records = manifest["variants"]
        assert list(records) == ["P-256", "P-384", "P-521"]
        # a variant whose backend fails holds its seconds alone
        assert list(records["P-384"]) == ["seconds"]
        with open(config.output_dir / "benchmark.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        # keypair, sign and verify each time one list, in that order, per measured variant
        assert len(timed) == 6
        for variant, samples in zip(("P-256", "P-521"), (timed[:3], timed[3:])):
            assert sorted(records[variant]) == ["keypair", "seconds", "sign", "verify"]
            for operation, op_samples in zip(Operation, samples):
                stat = records[variant][operation.value]
                assert stat == summarize(op_samples)._asdict()
                [row] = [
                    row for row in rows
                    if (row["variant"], row["operation"]) == (variant, operation.value)
                ]
                assert (row["mean_ms"], row["std_ms"]) == (
                    f"{stat['mean_ms']:.4f}", f"{stat['std_ms']:.4f}"
                )

        replay = tiny_config(
            tmp_path, output_dir=tmp_path / "replayed", levels=frozenset({1, 3, 5}),
            families=("ECDSA",), replay_benchmarks=config.output_dir / "benchmark.csv",
        )
        assert run_pipeline(replay) == 2
        manifest = json.loads((replay.output_dir / "manifest.json").read_text(encoding="utf-8"))
        assert list(manifest["timings"]) == ["stages"]
        assert manifest["variants"] == {}

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

    def test_each_measured_variant_gets_its_three_rows(self, tmp_path, stub_provider, monkeypatch):
        # each operation of each variant gets a statistic of its own, so a
        # row that carries another operation's or another variant's shows
        host = EnvironmentInfo("fake host", 1 << 30, "os", {"median": 20.0, "min": 20.0, "max": 20.0})
        monkeypatch.setattr(cli, "probe_environment", lambda: host)
        measure = cli.benchmark_variant
        measured = {}

        def benchmark_variant(instance, plan):
            variant = instance.descriptor.variant
            if variant == "Dilithium2":
                raise UnsupportedVariant(f"{variant}: refused")
            stats = {
                f"{operation.value}_stat": StatSummary(
                    mean_ms=len(measured) + index / 10 + 0.00006,
                    std_ms=len(measured) / 100 + index / 1000 + 0.00004,
                    n=10 * len(measured) + index,
                )
                for index, operation in enumerate(Operation, start=1)
            }
            measured[variant] = stats
            return measure(instance, plan)._replace(**stats)

        monkeypatch.setattr(cli, "benchmark_variant", benchmark_variant)
        config = tiny_config(
            tmp_path,
            levels=frozenset({1, 2}),
            families=("ECDSA", "ML-DSA", "Dilithium"),
            skip_simulation=True,
        )
        assert run_pipeline(config) == 2
        with open(config.output_dir / "benchmark.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        assert sorted(measured) == ["ML-DSA-44", "P-256"]
        # the skipped Dilithium2 has no rows
        assert {row["variant"] for row in rows} == set(measured)
        known = by_variant()
        for variant, stats in measured.items():
            own = [row for row in rows if row["variant"] == variant]
            assert sorted(row["operation"] for row in own) == sorted(op.value for op in Operation)
            for row in own:
                stat = stats[f"{row['operation']}_stat"]
                labels = (row["machine"], row["family"], row["level"], row["stage"], row["model"])
                assert labels == (
                    "fake host", known[variant].family, str(known[variant].level), "Benchmark", ""
                )
                assert (row["mean_ms"], row["std_ms"], row["n"]) == (
                    f"{stat.mean_ms:.4f}", f"{stat.std_ms:.4f}", str(stat.n)
                )

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

    def test_unknown_provider_is_refused_before_anything_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_probe():
            raise AssertionError("probed the host")

        monkeypatch.setattr(cli, "probe_environment", no_probe)
        monkeypatch.setenv("CHAINSIG_PROVIDER", "Stub")
        out = tmp_path / "out"
        assert main(["--skip-simulation", "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "chainsig: fatal: CHAINSIG_PROVIDER=Stub: no provider registered under 'Stub';"
            " registered: ecdsa, oqs, pqclean, stub"
        ]
        assert not out.exists()
        # a replay measures nothing, so the variable plays no part in it
        replay = write_replay(tmp_path / "replay.csv", [("ECDSA", "P-256", 1)])
        argv = ["--replay-benchmarks", str(replay), "--levels", "1", "--families", "ECDSA"]
        assert main([*argv, "--output-dir", str(out)]) == 0

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
