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
independent per-block draws. The mean block interval is therefore a
per-model constant, not a config field: config_echo writes it into the
CSV headers as a description of the network profile, and it does not
change the result.

The draws depend on the config alone, not on the verify statistic: every
variant simulated under one config sees the same transaction counts and
the same standard-normal draws (common random numbers), so differences
between variants are not sampling noise.

Network propagation, forks and incentives are out of scope: block
production is a fixed schedule and verification cost is the only
quantity modeled.
"""

from __future__ import annotations

import enum
import functools
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
    runs: int
    seed: int
    verify_sampling: VerifySampling

    def __post_init__(self) -> None:
        if self.tx_per_block_mean <= 0:
            raise ValueError("tx_per_block_mean must be > 0")
        if self.blocks_per_run < 1:
            raise ValueError("blocks_per_run must be >= 1")
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
    return SimulationConfig(
        model=resolved,
        tx_per_block_mean=_MODEL_DEFAULTS[resolved][0],
        blocks_per_run=DEFAULT_BLOCKS_PER_RUN,
        runs=DEFAULT_SIM_RUNS,
        seed=DEFAULT_SEED,
        verify_sampling=VerifySampling.NORMAL_PER_BLOCK,
    )


@functools.lru_cache(maxsize=len(ChainModel))
def _draws(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """(transaction counts, standard normals) for config, drawn once and read-only.

    Both arrays have shape (runs, blocks_per_run) and come from one
    generator seeded with config.seed, the counts first. The normals are
    None in mean-only mode. A run simulates every verify row under the
    same config, so the cache holds one entry per chain model.
    """
    sequence = np.random.SeedSequence(config.seed & _SEED_MASK)
    rng = np.random.Generator(np.random.PCG64(sequence))
    shape = (config.runs, config.blocks_per_run)
    tx_counts = rng.poisson(config.tx_per_block_mean, shape)
    tx_counts.flags.writeable = False
    if config.verify_sampling is VerifySampling.MEAN_ONLY:
        return tx_counts, None
    z = rng.standard_normal(shape)
    z.flags.writeable = False
    return tx_counts, z


def simulate_batch(
    config: SimulationConfig, verify_stat: StatSummary
) -> SimulationResult:
    """config.runs independent runs; batch stats over per-run means.

    Every call with an equal config reuses the same transaction counts
    and standard normals (common random numbers); a per-signature cost is
    max(mean + std * z, 0), which equals the clamped Normal(mean, std) draw
    from the same generator bit for bit.
    """
    tx_counts, z = _draws(config)
    if z is None:
        per_signature_ms = verify_stat.mean_ms
    else:
        per_signature_ms = np.maximum(verify_stat.mean_ms + verify_stat.std_ms * z, 0.0)
    run_means = tuple((tx_counts * per_signature_ms).mean(axis=1).tolist())
    return SimulationResult(run_means_ms=run_means, batch=summarize(run_means))


def config_echo(config: SimulationConfig) -> tuple[str, ...]:
    """Flat key=value lines describing a config, for CSV comment headers."""
    return (
        f"model={config.model.label}",
        f"tx_per_block_mean={config.tx_per_block_mean!r}",
        f"blocks_per_run={config.blocks_per_run}",
        f"block_interval_s={_MODEL_DEFAULTS[config.model][1]!r}",
        f"runs={config.runs}",
        f"seed={config.seed}",
        f"verify_sampling={config.verify_sampling.value}",
    )
