"""Seeded model of block verification cost.

Each block carries a Poisson-distributed number of transactions, and
verifying one transaction signature costs a per-scheme time taken from
the measured verify statistic. The reported metric is the mean
per-block verification cost over a run, aggregated over many
independent runs.

The model can be read as a discrete-event schedule: blocks arrive at
exponentially spaced instants and are verified on arrival. Verification
never delays the creation of the next block, though, so the order of
events cannot change any block's cost, and the schedule reduces to
independent per-block draws. block_interval_s is kept in the config and
echoed into the CSV headers as a description of the network profile; it
does not change the result.

Network propagation, forks and incentives are out of scope: block
production is a fixed schedule and verification cost is the only
quantity modeled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bench import StatSummary, summarize
from .errors import UnknownModel

_SEED_MASK = (1 << 64) - 1


class ChainModel(enum.Enum):
    """Supported network profiles; values match the CLI encoding."""

    BITCOIN = 1
    ETHEREUM = 2

    @property
    def label(self) -> str:
        return self.name.capitalize()


class VerifySampling(enum.Enum):
    """Per-block signature-verify cost draw.

    MEAN_ONLY uses the measured mean exactly (calibration mode);
    NORMAL_PER_BLOCK draws Normal(mean, std) once per block, clamped at
    zero.
    """

    MEAN_ONLY = "mean-only"
    NORMAL_PER_BLOCK = "normal-per-block"


@dataclass(frozen=True)
class SimulationConfig:
    model: ChainModel
    tx_per_block_mean: float
    blocks_per_run: int
    block_interval_s: float
    runs: int
    seed: int
    verify_sampling: VerifySampling

    def __post_init__(self) -> None:
        if self.tx_per_block_mean <= 0:
            raise ValueError("tx_per_block_mean must be > 0")
        if self.blocks_per_run < 1:
            raise ValueError("blocks_per_run must be >= 1")
        if self.block_interval_s <= 0:
            raise ValueError("block_interval_s must be > 0")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")


@dataclass(frozen=True)
class SimulationResult:
    run_means_ms: tuple[float, ...]
    batch: StatSummary


# network profiles: expected transactions per block and mean block spacing
_MODEL_DEFAULTS = {
    ChainModel.BITCOIN: (1729.0, 600.0),
    ChainModel.ETHEREUM: (131.0, 13.0),
}

DEFAULT_BLOCKS_PER_RUN = 16
DEFAULT_SIM_RUNS = 1000
DEFAULT_SEED = 42


def default_config(model: ChainModel | int) -> SimulationConfig:
    """Baseline configuration for a chain model (CLI values 1 and 2)."""
    try:
        resolved = model if isinstance(model, ChainModel) else ChainModel(model)
    except ValueError:
        raise UnknownModel(f"unknown chain model: {model!r}") from None
    tx_mean, interval = _MODEL_DEFAULTS[resolved]
    return SimulationConfig(
        model=resolved,
        tx_per_block_mean=tx_mean,
        blocks_per_run=DEFAULT_BLOCKS_PER_RUN,
        block_interval_s=interval,
        runs=DEFAULT_SIM_RUNS,
        seed=DEFAULT_SEED,
        verify_sampling=VerifySampling.NORMAL_PER_BLOCK,
    )


def simulate_batch(
    config: SimulationConfig, verify_stat: StatSummary
) -> SimulationResult:
    """config.runs independent runs; batch stats over per-run means.

    All draws come from one generator seeded with config.seed, as arrays
    of shape (runs, blocks_per_run): transaction counts first, then the
    per-signature costs.
    """
    sequence = np.random.SeedSequence(config.seed & _SEED_MASK)
    rng = np.random.Generator(np.random.PCG64(sequence))
    shape = (config.runs, config.blocks_per_run)
    tx_counts = rng.poisson(config.tx_per_block_mean, shape)
    if config.verify_sampling is VerifySampling.MEAN_ONLY:
        per_signature_ms = verify_stat.mean_ms
    else:
        per_signature_ms = np.maximum(
            rng.normal(verify_stat.mean_ms, verify_stat.std_ms, shape), 0.0
        )
    run_means = tuple((tx_counts * per_signature_ms).mean(axis=1).tolist())
    return SimulationResult(run_means_ms=run_means, batch=summarize(run_means))


def config_echo(config: SimulationConfig) -> tuple[str, ...]:
    """Flat key=value lines describing a config, for CSV comment headers."""
    return (
        f"model={config.model.label}",
        f"tx_per_block_mean={config.tx_per_block_mean!r}",
        f"blocks_per_run={config.blocks_per_run}",
        f"block_interval_s={config.block_interval_s!r}",
        f"runs={config.runs}",
        f"seed={config.seed}",
        f"verify_sampling={config.verify_sampling.value}",
    )
