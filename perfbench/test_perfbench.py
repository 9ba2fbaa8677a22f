"""Tests for the benchmark's own helpers.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import math
import subprocess
import sys
from pathlib import Path

import pytest

from checks import Expect, check_run, clamped_normal_moments, simulation_oracle
from fixture import HEADER, fixture_rows, fixture_text
from spans import Span, Tracer, self_times, totals

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
VARIANTS = [("ECDSA", "P-256", 1), ("ML-DSA", "ML-DSA-87", 5), ("Falcon", "Falcon-512", 1)]


class TestSelfTimes:
    def test_children_clipped_and_merged(self):
        spans = [
            Span("parent", 0.0, 10.0, -1),
            Span("a", 1.0, 3.0, 0),
            Span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] covers 4
            Span("c", 8.0, 12.0, 0),  # runs past the parent: [8, 10] covers 2
            Span("grandchild", 1.5, 2.5, 1),
        ]
        assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])

    def test_tracer_records_nesting_and_totals(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: (inner(), inner()))
        outer()
        assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
            ("outer", 0.0, 5.0, -1),
            ("inner", 1.0, 2.0, 0),
            ("inner", 3.0, 4.0, 0),
        ]
        assert totals(tracer.spans) == {"outer": (1, 5.0, 3.0), "inner": (2, 2.0, 2.0)}

    def test_installed_restores_the_original(self):
        import statistics as module

        original = module.fmean
        with Tracer().installed([("statistics", "fmean", "fmean", None)]) as tracer:
            assert module.fmean([1.0, 3.0]) == 2.0
        assert module.fmean is original
        assert [span.name for span in tracer.spans] == ["fmean"]


class TestOracle:
    def test_hand_computed_case(self):
        # lam=2, mu=3, sigma=0, 4 blocks, 5 runs: mean 6, var 2*9/20
        mean, sd = simulation_oracle(2.0, 3.0, 0.0, 4, 5)
        assert mean == 6.0
        assert sd == pytest.approx(math.sqrt(0.9))

    def test_bitcoin_defaults_per_run_sd(self):
        # P-256 verify 0.0788 +- 0.0029 ms, 1729 tx/block, 16 blocks, one run:
        # (lam*mu^2 + lam*sigma^2 + lam^2*sigma^2) / 16 = 2.2433..., sd 1.4978
        mean, sd = simulation_oracle(1729.0, 0.0788, 0.0029, 16, 1)
        assert mean == pytest.approx(136.2452)
        assert sd == pytest.approx(1.4978, abs=1e-4)

    def test_clamp_moments_of_a_centred_normal(self):
        m1, m2 = clamped_normal_moments(0.0, 1.0)
        assert m1 == pytest.approx(1 / math.sqrt(2 * math.pi))
        assert m2 == pytest.approx(0.5)


class TestFixture:
    def test_same_seed_same_bytes(self):
        assert fixture_text(VARIANTS, 7) == fixture_text(VARIANTS, 7)
        assert fixture_text(VARIANTS, 7) != fixture_text(VARIANTS, 8)

    def test_full_catalog_shape(self):
        sys.path.insert(0, str(SRC))
        from chainsig.schemes import catalog

        variants = [(d.family, d.variant, d.level) for d in catalog()]
        rows = fixture_rows(variants, 3)
        assert len(rows) == 138
        means = [float(row[7]) for row in rows]
        assert max(means) / min(means) > 5000
        for row in rows:
            assert float(row[8]) == pytest.approx(0.05 * float(row[7]), abs=6e-5)
            assert row[9] == "10000"

    def test_round_trips_through_chainsig_parser(self):
        sys.path.insert(0, str(SRC))
        from chainsig.report import parse_csv

        dataset = parse_csv(io.StringIO(fixture_text(VARIANTS, 11)))
        parsed = sorted(
            (r.machine, r.family, r.variant, str(r.level), r.stage.value, "",
             r.operation.value, f"{r.mean_ms:.4f}", f"{r.std_ms:.4f}", str(r.n))
            for r in dataset.rows
        )
        assert parsed == sorted(fixture_rows(VARIANTS, 11))


def _write(path: Path, comments: list[str], rows: list[tuple[str, ...]]) -> None:
    lines = [f"# {c}" for c in comments] + [",".join(HEADER)]
    lines += [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCheckRun:
    def _outputs(self, tmp_path: Path, sim_mean) -> Expect:
        bench = fixture_rows(VARIANTS[:1], 5)
        mu, sigma = float(bench[2][7]), float(bench[2][8])
        _write(tmp_path / "benchmark.csv", [], bench)
        comments = ["bitcoin.tx_per_block_mean=1729.0", "bitcoin.blocks_per_run=16"]
        sim = [("m", "ECDSA", "P-256", "1", "Simulation", "Bitcoin", "verify",
                f"{sim_mean(mu, sigma):.4f}", "1.0", "1000")]
        _write(tmp_path / "simulation.csv", comments, sim)
        return Expect(variants=1, bench_rows=3, sim_rows=1, fixture=tuple(bench))

    def test_correct_outputs_pass(self, tmp_path):
        expect = self._outputs(
            tmp_path, lambda mu, sigma: simulation_oracle(1729.0, mu, sigma, 16, 1000)[0]
        )
        outcome = check_run(0, tmp_path, expect)
        assert outcome.failures == ()
        assert outcome.bad == 0

    def test_each_failure_is_named(self, tmp_path):
        def off_by_ten_sd(mu, sigma):
            mean, sd = simulation_oracle(1729.0, mu, sigma, 16, 1000)
            return mean + 10 * sd

        expect = self._outputs(tmp_path, off_by_ten_sd)
        outcome = check_run(2, tmp_path, Expect(**{**vars(expect), "sim_rows": 2}))
        assert len(outcome.failures) == 3
        assert outcome.failures[0] == "exit code 2, expected 0"
        assert outcome.failures[1].startswith("rows 3/1")
        assert "sd from the closed form" in outcome.failures[2]

    def test_missing_outputs_count_every_variant(self, tmp_path):
        outcome = check_run(0, tmp_path, Expect(variants=46, bench_rows=138, sim_rows=92))
        assert outcome.missing_variants == 46
        assert outcome.bad == 47


def test_spawn_reports_the_childs_own_peak_and_exit_code():
    ballast = b"\x01" * (160 << 20)  # lift this process's peak RSS above 160 MiB
    del ballast
    command = "import sys; block = b'\\x01' * (64 << 20); sys.exit(3)"
    done = subprocess.run(
        [sys.executable, "-S", str(HERE / "spawn.py"), "30", sys.executable, "-c", command],
        capture_output=True, text=True, check=True,
    )
    code, wall, peak_kib = done.stdout.split()
    assert int(code) == 3
    assert float(wall) > 0
    # the 64 MiB block, but not the 160 MiB peak of the process that spawned it
    assert 64 << 10 < int(peak_kib) < 120 << 10
