"""Acceptance gate: ten numbered criteria with pinned tolerances.

Each test prints one `[criterion NN] PASS/FAIL/SKIP` line (visible with
pytest -s, or in captured output on failure). Hardware-independent
criteria always run; criteria that need real signature backends skip
with a reason when a backend is missing on the host.

The full-catalog correctness sweep (criterion 3 over all 46 variants)
is expensive and therefore gated behind CHAINSIG_FULL_CATALOG=1; the
always-on smoke subset covers one variant per performance class.
"""

from __future__ import annotations

import functools
import os
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from chainsig.bench import (
    RunPlan,
    StatSummary,
    benchmark_variant,
    summarize,
)
from chainsig.cli import main
from chainsig.report import (
    Operation,
    ReportDataset,
    ReportRow,
    Stage,
    parse_csv,
    write_csv,
)
from chainsig.schemes import catalog
from chainsig.sim import ChainModel, SimulationConfig, simulate_batch
from conftest import close, instantiate_or_skip, two_pass_mean_std
from golden_catalog import GOLDEN_LEVEL_COUNTS, GOLDEN_ROWS

DATA_DIR = Path(__file__).parent / "data"

SMOKE_VARIANTS = (
    "P-256",
    "ML-DSA-44",
    "Falcon-512",
    "MAYO-2",
    "SHA2-128f-simple",
    "Cross-rsdp-128-fast",
)


def criterion(number: int, title: str):
    """Emit one status line per criterion, whatever the test outcome."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                value = fn(*args, **kwargs)
            except BaseException as exc:
                status = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
                print(f"[criterion {number:02d}] {status}: {title}")
                raise
            print(f"[criterion {number:02d}] PASS: {title}")
            return value

        return wrapper

    return decorate


def _bench(variant: str, runs: int, warmup: int):
    instance = instantiate_or_skip(variant)
    plan = RunPlan(warmup=warmup, runs=runs, message_len=32)
    return benchmark_variant(instance, plan)


def _correctness_sweep(variant: str, iterations: int = 100) -> None:
    instance = instantiate_or_skip(variant)
    public_key, secret_key = instance.keypair()
    signatures = []
    for index in range(iterations):
        message = os.urandom(32)
        signature = instance.sign(secret_key, message)
        assert instance.verify(public_key, message, signature) is True, (
            f"{variant}: roundtrip {index} failed"
        )
        signatures.append((message, signature))
    tamper = random.Random(0xC0FFEE + len(variant))
    for index, (message, signature) in enumerate(signatures):
        position = tamper.randrange(len(signature))
        mutated = bytearray(signature)
        mutated[position] ^= 1 + tamper.randrange(255)
        assert instance.verify(public_key, message, bytes(mutated)) is False, (
            f"{variant}: tampered signature {index} verified"
        )


@criterion(1, "catalog matches the golden 46-variant table")
def test_criterion_01_catalog_conformance():
    start = time.monotonic()
    live = catalog()
    assert len(live) == 46
    assert [(d.family, d.variant, d.level, d.is_pqc) for d in live] == list(
        GOLDEN_ROWS
    )
    counts = Counter(d.level for d in live)
    assert dict(counts) == GOLDEN_LEVEL_COUNTS == {1: 14, 2: 2, 3: 14, 5: 16}
    assert 4 not in counts
    assert live == catalog()
    assert time.monotonic() - start < 1.0


@criterion(2, "summary statistics match a two-pass oracle to 1e-12")
def test_criterion_02_statistics_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(20260818)
    for _ in range(1000):
        size = int(rng.integers(1, 10_001))
        samples = rng.uniform(0.0, 1000.0, size=size).tolist()
        stat = summarize(samples)
        mean, std = two_pass_mean_std(samples)
        assert close(stat.mean_ms, mean, tol=1e-12)
        assert close(stat.std_ms, std, tol=1e-12)
        assert stat.n == size
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("variant", SMOKE_VARIANTS)
@criterion(3, "sign/verify roundtrips and tamper rejection (smoke subset)")
def test_criterion_03_correctness_smoke(variant):
    # each variant passes or skips on its own, within its share of a 30 s budget
    start = time.monotonic()
    _correctness_sweep(variant)
    assert time.monotonic() - start < 30.0 / len(SMOKE_VARIANTS)


@pytest.mark.full_catalog
@pytest.mark.skipif(
    os.environ.get("CHAINSIG_FULL_CATALOG") != "1",
    reason="full 46-variant sweep runs with CHAINSIG_FULL_CATALOG=1",
)
@criterion(3, "sign/verify roundtrips and tamper rejection (full catalog)")
def test_criterion_03_correctness_full_catalog():
    start = time.monotonic()
    for descriptor in catalog():
        _correctness_sweep(descriptor.variant)
    assert time.monotonic() - start < 600.0


@criterion(4, "ML-DSA-87 verifies at least 2x faster than ECDSA P-521")
def test_criterion_04_level5_verify_ordering():
    mldsa = _bench("ML-DSA-87", runs=1000, warmup=100)
    ecdsa = _bench("P-521", runs=1000, warmup=100)
    factor = ecdsa.verify_stat.mean_ms / mldsa.verify_stat.mean_ms
    assert factor >= 2.0, (
        f"verify means: ML-DSA-87 {mldsa.verify_stat.mean_ms:.4f} ms,"
        f" P-521 {ecdsa.verify_stat.mean_ms:.4f} ms, factor {factor:.2f}"
    )


@criterion(5, "SPHINCS+ s-variants sign >=5x slower, verify >=1.5x faster than f")
def test_criterion_05_sphincs_size_speed_tradeoff():
    start = time.monotonic()
    pairs = (
        ("SHA2-128s-simple", "SHA2-128f-simple"),
        ("SHAKE-128s-simple", "SHAKE-128f-simple"),
    )
    for size_variant, fast_variant in pairs:
        size_opt = _bench(size_variant, runs=200, warmup=20)
        speed_opt = _bench(fast_variant, runs=200, warmup=20)
        sign_ratio = size_opt.sign_stat.mean_ms / speed_opt.sign_stat.mean_ms
        verify_ratio = speed_opt.verify_stat.mean_ms / size_opt.verify_stat.mean_ms
        assert sign_ratio >= 5.0, (
            f"{size_variant} vs {fast_variant}: sign ratio {sign_ratio:.2f}"
        )
        assert verify_ratio >= 1.5, (
            f"{size_variant} vs {fast_variant}: verify ratio {verify_ratio:.2f}"
        )
    assert time.monotonic() - start < 300.0


@criterion(6, "Falcon-512 keypair >=20x sign, sign >=2x verify")
def test_criterion_06_falcon_cost_profile():
    record = _bench("Falcon-512", runs=500, warmup=50)
    keypair_over_sign = record.keypair_stat.mean_ms / record.sign_stat.mean_ms
    sign_over_verify = record.sign_stat.mean_ms / record.verify_stat.mean_ms
    assert keypair_over_sign >= 20.0, (
        f"keypair {record.keypair_stat.mean_ms:.4f} ms over sign"
        f" {record.sign_stat.mean_ms:.4f} ms is only {keypair_over_sign:.2f}x"
    )
    assert sign_over_verify >= 2.0, (
        f"sign {record.sign_stat.mean_ms:.4f} ms over verify"
        f" {record.verify_stat.mean_ms:.4f} ms is only {sign_over_verify:.2f}x"
    )


@criterion(7, "simulator reproduces published per-block means within 2%")
def test_criterion_07_simulator_calibration():
    start = time.monotonic()
    # std 0 costs every signature its measured mean, as the published runs did
    cases = (
        (ChainModel.BITCOIN, StatSummary(0.0788, 0.0, 10000), 136.28),
        (ChainModel.ETHEREUM, StatSummary(0.0529, 0.0, 10000), 6.94),
    )
    for model, stat, expected in cases:
        result = simulate_batch(SimulationConfig(model, runs=1000, seed=42), stat)
        deviation = abs(result.mean_ms - expected) / expected
        assert deviation <= 0.02, (
            f"{model.label}: batch mean {result.mean_ms:.4f} ms deviates"
            f" {deviation:.2%} from {expected}"
        )
    assert time.monotonic() - start < 30.0


@criterion(8, "level-3 lattice verify cuts Bitcoin block cost by about 90%")
def test_criterion_08_level3_reduction():
    config = SimulationConfig(ChainModel.BITCOIN, runs=1000, seed=42)
    lattice = simulate_batch(config, StatSummary(0.0368, 0.0, 10000))
    classical = simulate_batch(config, StatSummary(0.3977, 0.0, 10000))
    reduction = 100.0 * (1.0 - lattice.mean_ms / classical.mean_ms)
    # published reduction is 90.7%; demand at least 88% and at most +3pp
    assert 88.0 <= reduction <= 93.7, (
        f"block cost {classical.mean_ms:.4f} -> {lattice.mean_ms:.4f} ms"
        f" is a {reduction:.2f}% reduction, outside [88.0, 93.7]"
    )


def _fixture_benchmark_rows() -> tuple[ReportRow, ...]:
    cells = (
        ("ECDSA", "P-256", 1, (0.0312, 0.0041), (0.0441, 0.0019), (0.0788, 0.0029)),
        (
            "ML-DSA",
            "ML-DSA-44",
            2,
            (0.0504, 0.0040),
            (0.1121, 0.0327),
            (0.0295, 0.0021),
        ),
    )
    rows = []
    for family, variant, level, keypair, sign, verify in cells:
        for operation, (mean, std) in (
            (Operation.KEYPAIR, keypair),
            (Operation.SIGN, sign),
            (Operation.VERIFY, verify),
        ):
            rows.append(
                ReportRow(
                    machine="fixture-host",
                    family=family,
                    variant=variant,
                    level=level,
                    stage=Stage.BENCHMARK,
                    model=None,
                    operation=operation,
                    mean_ms=mean,
                    std_ms=std,
                    n=10000,
                )
            )
    return tuple(rows)


@criterion(9, "replaying one benchmark CSV twice gives byte-identical outputs")
def test_criterion_09_replay_determinism(tmp_path):
    source_csv = tmp_path / "source" / "benchmark.csv"
    source_csv.parent.mkdir()
    write_csv(ReportDataset(_fixture_benchmark_rows()), source_csv)

    artifacts = []
    for name in ("first", "second"):
        output_dir = tmp_path / name
        code = main(
            [
                "--replay-benchmarks",
                str(source_csv),
                "--levels",
                "1",
                "2",
                "--families",
                "ECDSA",
                "ML-DSA",
                "--runs-simulator",
                "200",
                "--seed",
                "42",
                "--output-dir",
                str(output_dir),
            ]
        )
        assert code == 0
        artifacts.append(
            {
                path.name: path.read_bytes()
                for path in sorted(output_dir.iterdir())
                if path.suffix in {".csv", ".svg"}
            }
        )
    assert "simulation.csv" in artifacts[0]
    assert any(name.endswith(".svg") for name in artifacts[0])
    assert artifacts[0] == artifacts[1]


@criterion(10, "CSV write/parse identity and golden-file byte equality")
def test_criterion_10_csv_round_trip_and_golden(tmp_path):
    # randomized write -> parse identity
    chooser = random.Random(987654321)
    alphabet = "abc XYZ-_#\",\n0189"
    operations = list(Operation)
    for case in range(100):
        rows = []
        for index in range(chooser.randint(0, 18)):
            machine = "".join(
                chooser.choice(alphabet) for _ in range(chooser.randint(0, 10))
            )
            simulated = chooser.random() < 0.3
            rows.append(
                ReportRow(
                    machine=machine,
                    family="ECDSA",
                    variant=f"V-{case}-{index}",
                    level=chooser.choice([1, 2, 3, 5]),
                    stage=Stage.SIMULATION if simulated else Stage.BENCHMARK,
                    model=(
                        chooser.choice(list(ChainModel)) if simulated else None
                    ),
                    operation=(
                        Operation.VERIFY
                        if simulated
                        else chooser.choice(operations)
                    ),
                    mean_ms=chooser.randrange(10**8) / 10**4,
                    std_ms=chooser.randrange(10**6) / 10**4,
                    n=chooser.randint(1, 10**6),
                )
            )
        dataset = ReportDataset(tuple(rows))
        target = tmp_path / "round_trip.csv"
        write_csv(dataset, target, comments=("property case",))
        parsed = parse_csv(target)
        assert set(parsed.rows) == set(dataset.rows)
        assert len(parsed.rows) == len(dataset.rows)

    # fixed dataset against the checked-in golden bytes
    golden_rows = (
        ReportRow(
            machine="arm-laptop",
            family="ECDSA",
            variant="P-256",
            level=1,
            stage=Stage.BENCHMARK,
            model=None,
            operation=operation,
            mean_ms=mean,
            std_ms=std,
            n=10000,
        )
        for operation, mean, std in (
            (Operation.KEYPAIR, 0.0312, 0.0041),
            (Operation.SIGN, 0.0441, 0.0019),
            (Operation.VERIFY, 0.0788, 0.0029),
        )
    )
    golden_rows = tuple(golden_rows) + tuple(
        ReportRow(
            machine="arm-laptop",
            family="ML-DSA",
            variant="ML-DSA-87",
            level=5,
            stage=Stage.BENCHMARK,
            model=None,
            operation=operation,
            mean_ms=mean,
            std_ms=std,
            n=10000,
        )
        for operation, mean, std in (
            (Operation.KEYPAIR, 0.0929, 0.0047),
            (Operation.SIGN, 0.2517, 0.0136),
            (Operation.VERIFY, 0.1402, 0.0063),
        )
    )
    golden_rows += (
        ReportRow(
            machine="arm-laptop",
            family="ECDSA",
            variant="P-256",
            level=1,
            stage=Stage.SIMULATION,
            model=ChainModel.BITCOIN,
            operation=Operation.VERIFY,
            mean_ms=136.2845,
            std_ms=2.3648,
            n=1000,
        ),
        ReportRow(
            machine="arm-laptop",
            family="ML-DSA",
            variant="ML-DSA-87",
            level=5,
            stage=Stage.SIMULATION,
            model=ChainModel.BITCOIN,
            operation=Operation.VERIFY,
            mean_ms=242.3809,
            std_ms=4.1224,
            n=1000,
        ),
    )
    target = tmp_path / "golden_report.csv"
    write_csv(
        ReportDataset(golden_rows),
        target,
        comments=("regression fixture: fixed dataset, fixed bytes",),
    )
    assert target.read_bytes() == (DATA_DIR / "golden_report.csv").read_bytes()
