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

A per-signature cost is drawn from Normal(mean, std) once per block,
clamped at zero. Calibration against published per-block means uses the
measured mean alone: pass a verify statistic with std_ms = 0, and every
signature costs exactly the mean.

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
from typing import TYPE_CHECKING, ClassVar

from .bench import StatSummary, summarize

# numpy is imported where a simulation first needs it, so a process that
# only measures signatures never loads it
if TYPE_CHECKING:
    import numpy as np

_SEED_MASK = (1 << 64) - 1


class ChainModel(enum.Enum):
    """Supported network profiles; values match the CLI encoding."""

    BITCOIN = 1
    ETHEREUM = 2

    @property
    def label(self) -> str:
        return self.name.capitalize()


@dataclass(frozen=True)
class SimulationConfig:
    """The values a run sets; the network profile follows from model."""

    model: ChainModel
    runs: int = 1000
    seed: int = 42

    blocks_per_run: ClassVar[int] = 16

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")


# network profiles: expected transactions per block and mean block spacing
_MODEL_DEFAULTS = {
    ChainModel.BITCOIN: (1729.0, 600.0),
    ChainModel.ETHEREUM: (131.0, 13.0),
}


@functools.lru_cache(maxsize=len(ChainModel))
def _draws(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """(transaction counts, standard normals) for config, drawn once and read-only.

    Both arrays have shape (runs, blocks_per_run) and come from one
    generator seeded with config.seed, the counts first. A run simulates
    every verify row under the same config, so the cache holds one entry
    per chain model.
    """
    import numpy as np

    sequence = np.random.SeedSequence(config.seed & _SEED_MASK)
    rng = np.random.Generator(np.random.PCG64(sequence))
    shape = (config.runs, config.blocks_per_run)
    tx_counts = rng.poisson(_MODEL_DEFAULTS[config.model][0], shape)
    tx_counts.flags.writeable = False
    z = rng.standard_normal(shape)
    z.flags.writeable = False
    return tx_counts, z


def simulate_batch(config: SimulationConfig, verify_stat: StatSummary) -> StatSummary:
    """config.runs independent runs; batch stats over per-run means.

    Every call with an equal config reuses the same transaction counts
    and standard normals (common random numbers); a per-signature cost is
    max(mean + std * z, 0), which equals the clamped Normal(mean, std) draw
    from the same generator bit for bit.
    """
    import numpy as np

    tx_counts, z = _draws(config)
    per_signature_ms = np.maximum(verify_stat.mean_ms + verify_stat.std_ms * z, 0.0)
    return summarize((tx_counts * per_signature_ms).mean(axis=1).tolist())


def config_echo(config: SimulationConfig) -> tuple[str, ...]:
    """Flat key=value lines describing a config, for CSV comment headers."""
    tx_per_block_mean, block_interval_s = _MODEL_DEFAULTS[config.model]
    return (
        f"model={config.model.label}",
        f"tx_per_block_mean={tx_per_block_mean!r}",
        f"blocks_per_run={config.blocks_per_run}",
        f"block_interval_s={block_interval_s!r}",
        f"runs={config.runs}",
        f"seed={config.seed}",
        "verify_sampling=normal-per-block",
    )
