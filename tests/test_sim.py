"""Block-cost simulator: defaults, determinism, scaling, closed-form moments."""

from __future__ import annotations

import math
import random
import statistics
import tracemalloc
from collections import Counter

import pytest

from chainsig import sim
from chainsig.bench import StatSummary, summarize
from chainsig.sim import ChainModel, SimulationConfig, config_echo, simulate_batch

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
    return SimulationConfig(model, **overrides)


def _tx_per_block(model: ChainModel) -> float:
    return sim._MODEL_DEFAULTS[model][0]


class TestDefaults:
    def test_bitcoin_profile(self):
        config = SimulationConfig(ChainModel.BITCOIN)
        assert _tx_per_block(config.model) == 1729.0
        assert "block_interval_s=600.0" in config_echo(config)
        assert config.blocks_per_run == 16
        assert config.runs == 1000
        assert config.seed == 42

    def test_ethereum_profile(self):
        config = SimulationConfig(ChainModel.ETHEREUM)
        assert _tx_per_block(config.model) == 131.0
        assert "block_interval_s=13.0" in config_echo(config)

    def test_integer_codes(self):
        assert ChainModel(1) is ChainModel.BITCOIN
        assert ChainModel(2) is ChainModel.ETHEREUM

    @pytest.mark.parametrize("bad", [0, 3, 7, -1])
    def test_unknown_model_rejected(self, bad):
        with pytest.raises(ValueError):
            ChainModel(bad)

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
        tx_per_block = _tx_per_block(model)
        for batch_mean, per_signature in cells:
            estimate = batch_mean / per_signature
            assert abs(estimate - tx_per_block) <= 0.02 * tx_per_block


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            # the profile values are per-model constants, so a config
            # cannot carry any value for them
            {"tx_per_block_mean": 0.0},
            {"tx_per_block_mean": -1.0},
            {"blocks_per_run": 0},
            {"blocks_per_run": -1},
            {"runs": 0},
            {"runs": -1},
        ],
    )
    def test_rejects_degenerate_values(self, overrides):
        with pytest.raises(ValueError if "runs" in overrides else TypeError):
            _config(**overrides)


class TestSimulateRun:
    """One run, simulated as a batch of size one."""

    def test_zero_cost_stat(self):
        assert simulate_batch(_config(runs=1), _stat(0.0)) == _stat(0.0, n=1)

    def test_deterministic_for_equal_seeds(self):
        config = _config(runs=1, seed=7)
        first = simulate_batch(config, _stat(0.05, 0.002))
        second = simulate_batch(config, _stat(0.05, 0.002))
        assert first == second

    def test_mean_only_single_run_near_expectation(self):
        # run mean ~= tx_per_block * m with stderr m * sqrt(tx/blocks)
        config = _config(runs=1)
        tx_per_block = _tx_per_block(config.model)
        mean_ms = 0.0788
        expected = tx_per_block * mean_ms
        stderr = mean_ms * math.sqrt(tx_per_block / config.blocks_per_run)
        result = simulate_batch(config, _stat(mean_ms))
        assert abs(result.mean_ms - expected) < 3.0 * stderr

    def test_zero_std_normal_equals_mean_only(self):
        # with std 0 the normal draw degenerates to the mean, so the costs
        # equal those of a reference that draws no normals at all
        config = _config(runs=5)
        stat = _stat(0.1402, 0.0)
        expected = summarize(_fresh_generator_run_means(config, stat))
        _assert_close(simulate_batch(config, stat), expected)

    def test_negative_normal_draws_clamped(self):
        # mean ~0 with large std: unclamped, the block costs would cancel
        # around zero; clamped, every block costs at least nothing
        result = simulate_batch(_config(runs=1, seed=3), _stat(0.0001, 50.0))
        assert result.mean_ms > 0.0


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
        assert a.mean_ms != b.mean_ms

    def test_run_count_respected(self):
        assert simulate_batch(_config(runs=17), _stat(0.05)).n == 17

    def test_single_run_batch_std_zero(self):
        result = simulate_batch(_config(runs=1), _stat(0.05))
        assert result.std_ms == 0.0
        assert result.n == 1

    def test_mean_only_linearity(self):
        # doubling the per-signature mean exactly doubles every run mean,
        # and so the batch mean and sd
        config = _config(runs=10)
        base = simulate_batch(config, _stat(0.07))
        doubled = simulate_batch(config, _stat(0.14))
        assert math.isclose(doubled.mean_ms, 2.0 * base.mean_ms, rel_tol=1e-12)
        assert math.isclose(doubled.std_ms, 2.0 * base.std_ms, rel_tol=1e-12)

    def test_mean_only_ordering_preserved(self):
        config = _config(runs=10)
        slow = simulate_batch(config, _stat(0.39))
        fast = simulate_batch(config, _stat(0.065))
        assert fast.mean_ms < slow.mean_ms

    def test_negative_seed_is_masked(self):
        assert simulate_batch(_config(runs=2, seed=-1), _stat(0.05)).n == 2

    @pytest.mark.parametrize(
        ("mean", "std", "field"),
        [
            pytest.param(0.01, -0.02, "std_ms", id="-0.02"),
            pytest.param(0.01, math.nan, "std_ms", id="nan"),
            pytest.param(0.01, math.inf, "std_ms", id="std-inf"),
            pytest.param(-1.0, 0.01, "mean_ms", id="mean--1.0"),
            pytest.param(math.nan, 0.01, "mean_ms", id="mean-nan"),
            pytest.param(math.inf, 0.01, "mean_ms", id="mean-inf"),
        ],
    )
    def test_rejects_a_std_that_is_not_non_negative(self, mean, std, field):
        # the per-run shortcut reads only the smallest z, which is the
        # draw that clamps first only when std >= 0; a mean or std that
        # is not a finite time has no block cost at all
        with pytest.raises(ValueError, match=f"^verify {field} must be finite and >= 0, got "):
            simulate_batch(_config(runs=2), _stat(mean, std))

    @pytest.mark.parametrize(
        "model,verify_mean,expected",
        [
            (ChainModel.BITCOIN, 0.0788, 136.2845),
            (ChainModel.ETHEREUM, 0.0529, 6.9448),
        ],
    )
    def test_calibration_within_two_percent(self, model, verify_mean, expected):
        result = simulate_batch(SimulationConfig(model), _stat(verify_mean))
        assert abs(result.mean_ms - expected) / expected <= 0.02


# Per-block cost is tx * c with tx ~ Poisson(lam) and c the per-signature
# draw, independent of tx. With m1 = E[c] and m2 = E[c^2]:
#   E[tx * c] = lam * m1
#   Var[tx * c] = E[tx^2] * m2 - (lam * m1)^2 = lam * m2 + lam^2 * (m2 - m1^2)
# and a run mean over B blocks has a variance B times smaller.
#   sigma = 0:          c = mu                  m1 = mu,              m2 = mu^2
#   sigma << mu         c ~ N(mu, sigma)         m1 = mu,              m2 = mu^2 + sigma^2
#   mu = 0              c = max(N(0, sigma), 0)  m1 = sigma/sqrt(2pi), m2 = sigma^2 / 2
ORACLE_RUNS = 1000
ORACLE_CASES = [
    # model, lam, mu, sigma, m1, m2
    (ChainModel.BITCOIN, 1729.0, 0.0788, 0.0, 0.0788, 0.0788**2),
    (ChainModel.BITCOIN, 1729.0, 0.0788, 0.0029, 0.0788, 0.0788**2 + 0.0029**2),
    (ChainModel.ETHEREUM, 131.0, 0.0529, 0.0, 0.0529, 0.0529**2),
    (ChainModel.ETHEREUM, 131.0, 0.0529, 0.0021, 0.0529, 0.0529**2 + 0.0021**2),
    (ChainModel.ETHEREUM, 131.0, 0.0, 2.0, 2.0 / math.sqrt(2.0 * math.pi), 2.0**2 / 2.0),
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

    @pytest.mark.parametrize("model,lam,mu,sigma,m1,m2", ORACLE_CASES)
    def test_batch_matches_closed_form(self, model, lam, mu, sigma, m1, m2):
        config = SimulationConfig(model, runs=ORACLE_RUNS, seed=20251017)
        # the oracle's profile is the one the model simulates
        assert f"tx_per_block_mean={lam!r}" in config_echo(config)
        assert config.blocks_per_run == ORACLE_BLOCKS
        expected_mean, expected_sd = _oracle_moments(lam, ORACLE_BLOCKS, m1, m2)
        result = simulate_batch(config, _stat(mu, sigma))
        assert result.n == ORACLE_RUNS
        assert abs(result.mean_ms - expected_mean) <= (
            5.0 * expected_sd / math.sqrt(ORACLE_RUNS)
        )
        # 10% is about 4.5 standard errors of a sample sd at n = 1000
        assert abs(result.std_ms - expected_sd) <= 0.10 * expected_sd


def _fresh_generator_run_means(config: SimulationConfig, stat: StatSummary) -> list:
    """Reference: one new generator per batch, every block's cost computed on its own.

    The counts come first, from sim._poisson (TestPoissonSampler checks
    it against the pmf), then one Box-Muller pair per two blocks, in
    run-major order; a block costs tx * max(mean + std * z, 0).
    """
    rng = random.Random(config.seed & ((1 << 64) - 1))
    size = config.runs * config.blocks_per_run
    tx_counts = sim._poisson(rng.random, _tx_per_block(config.model), size)
    z = []
    for _ in range(size // 2):
        radius = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        angle = 2.0 * math.pi * rng.random()
        z += [radius * math.cos(angle), radius * math.sin(angle)]
    costs = [tx * max(stat.mean_ms + stat.std_ms * zi, 0.0) for tx, zi in zip(tx_counts, z)]
    blocks = config.blocks_per_run
    return [math.fsum(costs[i : i + blocks]) / blocks for i in range(0, size, blocks)]


def _assert_close(actual: StatSummary, expected: StatSummary) -> None:
    # the shortcut sums each run in another order than the reference, so
    # the two round differently, far below the CSV's 4 decimals
    assert actual.n == expected.n
    assert math.isclose(actual.mean_ms, expected.mean_ms, rel_tol=1e-12)
    assert math.isclose(actual.std_ms, expected.std_ms, rel_tol=1e-12)


class TestSharedDraws:
    # the last stat draws many negative costs, so the clamp is exercised;
    # at the one before it only some runs clamp, so both branches run in
    # one batch
    STATS = (
        _stat(0.0788, 0.0029),
        _stat(1.5, 0.4),
        _stat(3.0, 0.0),
        _stat(1.0, 0.45),
        _stat(0.01, 0.02),
        _stat(0.0, 1.0),
    )

    def test_some_runs_clamp_and_some_do_not(self):
        config = SimulationConfig(ChainModel.ETHEREUM, runs=50, seed=0)
        stat = self.STATS[3]
        clamped = [stat.mean_ms + stat.std_ms * z < 0.0 for z in sim._draws(config).z_min]
        assert any(clamped) and not all(clamped)

    @pytest.mark.parametrize("std", ["measured", "zero"])
    @pytest.mark.parametrize("seed", [0, -3, 2**70])
    def test_equals_fresh_generator_per_batch(self, std, seed):
        sim._draws.cache_clear()
        configs = [SimulationConfig(model, runs=50, seed=seed) for model in ChainModel]
        stats = self.STATS
        if std == "zero":
            stats = tuple(stat._replace(std_ms=0.0) for stat in stats)
        # stats share each config, and the two models interleave
        for stat in stats:
            for config in configs:
                _assert_close(
                    simulate_batch(config, stat),
                    summarize(_fresh_generator_run_means(config, stat)),
                )

    def test_cached_draws_are_read_only(self):
        config = _config(ChainModel.ETHEREUM, runs=5)
        draws = sim._draws(config)
        before = [column.tolist() for column in draws]
        assert len(draws.tx_total) == 5 and len(draws.tx) == 5 * config.blocks_per_run
        for column in draws:
            with pytest.raises(TypeError):
                column[0] = column[0]
        assert [column.tolist() for column in sim._draws(config)] == before

    def test_draws_hold_no_python_object_per_block(self):
        # 32 bytes a block leaves room for the 16 the two per-block
        # columns take; a Python int and float per block take about 86
        config = _config(ChainModel.BITCOIN, runs=1000, seed=7)
        sim._draws.cache_clear()
        # under -X tracemalloc, measure from here and leave tracing on
        tracing = tracemalloc.is_tracing()
        if tracing:
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            sim._draws(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - before < 32 * config.runs * config.blocks_per_run


def _pearson_chi_square(draws: list[int], lam: float) -> tuple[float, int]:
    """(statistic, degrees of freedom) against Poisson(lam).

    Neighbouring counts are merged until each bin expects at least 5
    draws; the first bin takes the left tail and the last the right.
    """
    n = len(draws)
    observed = Counter(draws)
    top = int(lam + 20.0 * math.sqrt(lam))
    assert max(draws) < top
    bins = []
    seen = expected = 0.0
    for k in range(top):
        seen += observed[k]
        expected += n * math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
        if expected >= 5.0:
            bins.append((seen, expected))
            seen = expected = 0.0
    last_seen, last_expected = bins.pop()
    # the right tail beyond top expects far less than one draw
    bins.append((last_seen + seen, last_expected + expected))
    statistic = sum((o - e) ** 2 / e for o, e in bins)
    return statistic, len(bins) - 1


def _chi_square_quantile(p: float, df: int) -> float:
    """Wilson-Hilferty approximation to the chi-square p quantile."""
    z = statistics.NormalDist().inv_cdf(p)
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


class TestPoissonSampler:
    # 20,000 draws missed a sampler that accepted every draw in the
    # squeeze region; this many catch it
    DRAWS = 200_000

    @pytest.mark.parametrize("lam", [131.0, 1729.0])
    def test_matches_the_poisson_distribution(self, lam):
        draws = sim._poisson(random.Random(20261019).random, lam, self.DRAWS)
        assert len(draws) == self.DRAWS
        assert all(type(k) is int for k in draws)
        mean = statistics.fmean(draws)
        assert abs(mean - lam) <= 5.0 * math.sqrt(lam / self.DRAWS)
        # the sample variance's standard error is about lam * sqrt(2 / n), ~0.3%
        assert abs(statistics.variance(draws) - lam) <= 0.05 * lam
        statistic, df = _pearson_chi_square(draws, lam)
        assert df > 20
        assert statistic < _chi_square_quantile(0.999, df)

    @pytest.mark.parametrize("lam", [9.99, 1.0, 0.0, -5.0])
    def test_small_lambda_refused(self, lam):
        with pytest.raises(ValueError, match="lam >= 10"):
            sim._poisson(random.Random(0).random, lam, 1)


class TestConfigEcho:
    def test_lines_cover_every_knob(self):
        lines = config_echo(SimulationConfig(ChainModel.BITCOIN))
        assert lines == (
            "model=Bitcoin",
            "tx_per_block_mean=1729.0",
            "blocks_per_run=16",
            "block_interval_s=600.0",
            "runs=1000",
            "seed=42",
            "verify_sampling=normal-per-block",
            "generator=python-random-ptrs-box-muller",
        )

    def test_echo_distinguishes_models(self):
        bitcoin = config_echo(SimulationConfig(ChainModel(1)))
        ethereum = config_echo(SimulationConfig(ChainModel(2)))
        assert bitcoin != ethereum
        assert "model=Ethereum" in ethereum
