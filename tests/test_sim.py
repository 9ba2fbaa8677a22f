"""Block-cost simulator: defaults, determinism, scaling, closed-form moments."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from chainsig.bench import StatSummary
from chainsig.errors import UnknownModel
from chainsig.sim import (
    DEFAULT_BLOCKS_PER_RUN,
    DEFAULT_SEED,
    DEFAULT_SIM_RUNS,
    ChainModel,
    SimulationConfig,
    VerifySampling,
    config_echo,
    default_config,
    simulate_batch,
)

# Published (batch mean ms, per-signature verify mean ms) pairs measured
# on two unrelated hosts. Dividing the first by the second recovers the
# expected transactions per block independently of this implementation,
# pinning the calibration constants below.
BITCOIN_CALIBRATION_CELLS = (
    (136.2845, 0.0788),
    (99.2422, 0.0574),
)
ETHEREUM_CALIBRATION_CELLS = (
    (10.3491, 0.0788),
    (6.9448, 0.0529),
)


def _stat(mean: float, std: float = 0.0, n: int = 10000) -> StatSummary:
    return StatSummary(mean_ms=mean, std_ms=std, n=n)


def _config(model=ChainModel.BITCOIN, **overrides) -> SimulationConfig:
    return replace(default_config(model), **overrides)


class TestDefaults:
    def test_bitcoin_profile(self):
        config = default_config(ChainModel.BITCOIN)
        assert config.tx_per_block_mean == 1729.0
        assert config.block_interval_s == 600.0
        assert config.blocks_per_run == DEFAULT_BLOCKS_PER_RUN == 16
        assert config.runs == DEFAULT_SIM_RUNS == 1000
        assert config.seed == DEFAULT_SEED == 42
        assert config.verify_sampling is VerifySampling.NORMAL_PER_BLOCK

    def test_ethereum_profile(self):
        config = default_config(ChainModel.ETHEREUM)
        assert config.tx_per_block_mean == 131.0
        assert config.block_interval_s == 13.0

    def test_integer_codes(self):
        assert default_config(1).model is ChainModel.BITCOIN
        assert default_config(2).model is ChainModel.ETHEREUM

    @pytest.mark.parametrize("bad", [0, 3, 7, -1])
    def test_unknown_model_rejected(self, bad):
        with pytest.raises(UnknownModel):
            default_config(bad)

    def test_model_labels(self):
        assert ChainModel.BITCOIN.label == "Bitcoin"
        assert ChainModel.ETHEREUM.label == "Ethereum"

    @pytest.mark.parametrize(
        "cells,model",
        [
            (BITCOIN_CALIBRATION_CELLS, ChainModel.BITCOIN),
            (ETHEREUM_CALIBRATION_CELLS, ChainModel.ETHEREUM),
        ],
    )
    def test_tx_per_block_recovered_from_published_cells(self, cells, model):
        # batch mean ~= tx_per_block * per_signature_mean, so each cell
        # pair independently estimates the transactions-per-block constant
        config = default_config(model)
        for batch_mean, per_signature in cells:
            estimate = batch_mean / per_signature
            assert abs(estimate - config.tx_per_block_mean) <= (
                0.02 * config.tx_per_block_mean
            )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"tx_per_block_mean": 0.0},
            {"tx_per_block_mean": -1.0},
            {"blocks_per_run": 0},
            {"block_interval_s": 0.0},
            {"runs": 0},
        ],
    )
    def test_rejects_degenerate_values(self, overrides):
        with pytest.raises(ValueError):
            _config(**overrides)


class TestSimulateRun:
    """One run, simulated as a batch of size one."""

    def test_zero_cost_stat(self):
        result = simulate_batch(_config(runs=1), _stat(0.0))
        assert result.run_means_ms == (0.0,)
        assert result.batch.mean_ms == 0.0

    def test_deterministic_for_equal_seeds(self):
        config = _config(runs=1, seed=7)
        first = simulate_batch(config, _stat(0.05, 0.002))
        second = simulate_batch(config, _stat(0.05, 0.002))
        assert first == second

    def test_mean_only_single_run_near_expectation(self):
        # run mean ~= tx_per_block * m with stderr m * sqrt(tx/blocks)
        config = _config(runs=1, verify_sampling=VerifySampling.MEAN_ONLY)
        mean_ms = 0.0788
        expected = config.tx_per_block_mean * mean_ms
        stderr = mean_ms * math.sqrt(config.tx_per_block_mean / config.blocks_per_run)
        result = simulate_batch(config, _stat(mean_ms))
        assert abs(result.run_means_ms[0] - expected) < 3.0 * stderr

    def test_zero_std_normal_equals_mean_only(self):
        # with std 0 the normal draw degenerates to the mean, so both
        # sampling modes must produce identical costs
        base = _config(runs=5)
        mean_only = replace(base, verify_sampling=VerifySampling.MEAN_ONLY)
        stat = _stat(0.1402, 0.0)
        a = simulate_batch(base, stat)
        b = simulate_batch(mean_only, stat)
        assert a.run_means_ms == b.run_means_ms

    def test_negative_normal_draws_clamped(self):
        # mean ~0 with large std: unclamped, the block costs would cancel
        # around zero; clamped, every block costs at least nothing
        result = simulate_batch(_config(runs=1, seed=3), _stat(0.0001, 50.0))
        assert result.run_means_ms[0] > 0.0


class TestSimulateBatch:
    def test_replay_is_bit_identical(self):
        config = _config(runs=20)
        stat = _stat(0.0529, 0.0021)
        first = simulate_batch(config, stat)
        second = simulate_batch(config, stat)
        assert first == second

    def test_different_seeds_differ(self):
        stat = _stat(0.0529, 0.0021)
        a = simulate_batch(_config(runs=5, seed=1), stat)
        b = simulate_batch(_config(runs=5, seed=2), stat)
        assert a.batch.mean_ms != b.batch.mean_ms

    def test_run_count_respected(self):
        result = simulate_batch(_config(runs=17), _stat(0.05))
        assert len(result.run_means_ms) == 17
        assert result.batch.n == 17

    def test_single_run_batch_std_zero(self):
        result = simulate_batch(_config(runs=1), _stat(0.05))
        assert result.batch.std_ms == 0.0
        assert result.batch.n == 1

    def test_mean_only_linearity(self):
        # doubling the per-signature mean exactly doubles every run mean
        config = _config(runs=10, verify_sampling=VerifySampling.MEAN_ONLY)
        base = simulate_batch(config, _stat(0.07))
        doubled = simulate_batch(config, _stat(0.14))
        for run_a, run_b in zip(base.run_means_ms, doubled.run_means_ms):
            assert math.isclose(run_b, 2.0 * run_a, rel_tol=1e-12)

    def test_mean_only_ordering_preserved(self):
        config = _config(runs=10, verify_sampling=VerifySampling.MEAN_ONLY)
        slow = simulate_batch(config, _stat(0.39))
        fast = simulate_batch(config, _stat(0.065))
        assert fast.batch.mean_ms < slow.batch.mean_ms

    def test_negative_seed_is_masked(self):
        result = simulate_batch(_config(runs=2, seed=-1), _stat(0.05))
        assert result.batch.n == 2

    @pytest.mark.parametrize(
        "model,verify_mean,expected",
        [
            (ChainModel.BITCOIN, 0.0788, 136.2845),
            (ChainModel.ETHEREUM, 0.0529, 6.9448),
        ],
    )
    def test_calibration_within_two_percent(self, model, verify_mean, expected):
        config = replace(
            default_config(model), verify_sampling=VerifySampling.MEAN_ONLY
        )
        result = simulate_batch(config, _stat(verify_mean))
        assert abs(result.batch.mean_ms - expected) / expected <= 0.02


# Per-block cost is tx * c with tx ~ Poisson(lam) and c the per-signature
# draw, independent of tx. With m1 = E[c] and m2 = E[c^2]:
#   E[tx * c] = lam * m1
#   Var[tx * c] = E[tx^2] * m2 - (lam * m1)^2 = lam * m2 + lam^2 * (m2 - m1^2)
# and a run mean over B blocks has a variance B times smaller.
#   mean-only:          c = mu                  m1 = mu,              m2 = mu^2
#   normal, sigma << mu c ~ N(mu, sigma)         m1 = mu,              m2 = mu^2 + sigma^2
#   normal, mu = 0      c = max(N(0, sigma), 0)  m1 = sigma/sqrt(2pi), m2 = sigma^2 / 2
ORACLE_RUNS = 1000
ORACLE_CASES = [
    # model, lam, sampling, mu, sigma, m1, m2
    (ChainModel.BITCOIN, 1729.0, VerifySampling.MEAN_ONLY,
     0.0788, 0.0029, 0.0788, 0.0788**2),
    (ChainModel.BITCOIN, 1729.0, VerifySampling.NORMAL_PER_BLOCK,
     0.0788, 0.0029, 0.0788, 0.0788**2 + 0.0029**2),
    (ChainModel.ETHEREUM, 131.0, VerifySampling.MEAN_ONLY,
     0.0529, 0.0021, 0.0529, 0.0529**2),
    (ChainModel.ETHEREUM, 131.0, VerifySampling.NORMAL_PER_BLOCK,
     0.0529, 0.0021, 0.0529, 0.0529**2 + 0.0021**2),
    (ChainModel.ETHEREUM, 131.0, VerifySampling.NORMAL_PER_BLOCK,
     0.0, 2.0, 2.0 / math.sqrt(2.0 * math.pi), 2.0**2 / 2.0),
]
ORACLE_BLOCKS = 16


def _oracle_moments(lam, blocks, m1, m2) -> tuple[float, float]:
    """Expectation and sd of one run's mean block cost."""
    variance = (lam * m2 + lam**2 * (m2 - m1**2)) / blocks
    return lam * m1, math.sqrt(variance)


class TestClosedFormOracle:
    def test_bitcoin_defaults_per_run_sd(self):
        # the figures quoted for the Bitcoin profile at P-256 verify cost
        _, mean_only_sd = _oracle_moments(1729.0, ORACLE_BLOCKS, 0.0788, 0.0788**2)
        _, normal_sd = _oracle_moments(
            1729.0, ORACLE_BLOCKS, 0.0788, 0.0788**2 + 0.0029**2
        )
        assert round(mean_only_sd, 2) == 0.82
        assert round(normal_sd, 2) == 1.50

    @pytest.mark.parametrize("model,lam,sampling,mu,sigma,m1,m2", ORACLE_CASES)
    def test_batch_matches_closed_form(self, model, lam, sampling, mu, sigma, m1, m2):
        config = SimulationConfig(
            model=model,
            tx_per_block_mean=lam,
            blocks_per_run=ORACLE_BLOCKS,
            block_interval_s=600.0,
            runs=ORACLE_RUNS,
            seed=20251017,
            verify_sampling=sampling,
        )
        expected_mean, expected_sd = _oracle_moments(lam, ORACLE_BLOCKS, m1, m2)
        result = simulate_batch(config, _stat(mu, sigma))
        assert result.batch.n == ORACLE_RUNS
        assert abs(result.batch.mean_ms - expected_mean) <= (
            5.0 * expected_sd / math.sqrt(ORACLE_RUNS)
        )
        # 10% is about 4.5 standard errors of a sample sd at n = 1000
        assert abs(result.batch.std_ms - expected_sd) <= 0.10 * expected_sd


class TestConfigEcho:
    def test_lines_cover_every_knob(self):
        lines = config_echo(default_config(ChainModel.BITCOIN))
        assert lines == (
            "model=Bitcoin",
            "tx_per_block_mean=1729.0",
            "blocks_per_run=16",
            "block_interval_s=600.0",
            "runs=1000",
            "seed=42",
            "verify_sampling=normal-per-block",
        )

    def test_echo_distinguishes_models(self):
        bitcoin = config_echo(default_config(1))
        ethereum = config_echo(default_config(2))
        assert bitcoin != ethereum
        assert "model=Ethereum" in ethereum
