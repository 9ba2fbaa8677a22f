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
between variants are not sampling noise. A config's draws are made once
and cached as flat columns of 8-byte values: a count and a normal per
block, and each run's sum of counts, count-weighted sum of normals and
smallest normal. The cache therefore grows by 16 bytes per block, not
by a Python object per value.

The draws come from the standard library's random.Random, seeded with
the config's seed: transaction counts by Hormann's PTRS transformed
rejection and standard normals by Box-Muller. Both are built from
random() alone, the one output whose sequence Python promises to keep
across versions, so a seed gives the same draws on every Python. It
does not give the values of chainsig versions that drew with numpy.

Network propagation, forks and incentives are out of scope: block
production is a fixed schedule and verification cost is the only
quantity modeled.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import random
from collections.abc import Callable, Iterator
from typing import ClassVar, NamedTuple

from .bench import StatSummary, summarize
from .records import Validated

_SEED_MASK = (1 << 64) - 1


class ChainModel(enum.Enum):
    """Supported network profiles; values match the CLI encoding."""

    BITCOIN = 1
    ETHEREUM = 2

    @property
    def label(self) -> str:
        return self.name.capitalize()


class _SimulationConfig(NamedTuple):
    model: ChainModel
    runs: int = 1000
    seed: int = 42


class SimulationConfig(Validated, _SimulationConfig):
    """The values a run sets; the network profile follows from model."""

    __slots__ = ()

    blocks_per_run: ClassVar[int] = 16

    def _check(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")


# network profiles: expected transactions per block and mean block spacing
_MODEL_DEFAULTS = {
    ChainModel.BITCOIN: (1729.0, 600.0),
    ChainModel.ETHEREUM: (131.0, 13.0),
}


def _column(code: str, count: int) -> memoryview:
    """count zeroed 8-byte values of struct format code, in one bytearray."""
    return memoryview(bytearray(8 * count)).cast(code)


def _poisson(random: Callable[[], float], lam: float, count: int) -> memoryview:
    """count Poisson(lam) draws by Hormann's PTRS transformed rejection (1993).

    Every variate is built from random() alone; the squeeze and the log
    test follow the paper's constants, which are valid for lam >= 10.
    """
    if lam < 10.0:
        raise ValueError(f"PTRS needs lam >= 10, got {lam!r}")
    log_lam = math.log(lam)
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    log_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    draws = _column("q", count)
    drawn = 0
    while drawn < count:
        u = random() - 0.5
        v = 1.0 - random()
        us = 0.5 - abs(u)
        # rejected before k is formed, so us == 0 never divides
        if us < 0.013 and v > us:
            continue
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if (us >= 0.07 and v <= v_r) or (
            k >= 0
            and math.log(v) + log_alpha - math.log(a / (us * us) + b)
            <= k * log_lam - lam - math.lgamma(k + 1)
        ):
            draws[drawn] = k
            drawn += 1
    return draws


def _standard_normals(random: Callable[[], float], count: int) -> memoryview:
    """count standard normals by Box-Muller, two per pair of random() calls."""
    normals = _column("d", count + count % 2)
    for i in range(0, count, 2):
        # 1 - random() lies in (0, 1], so the log is finite
        radius = math.sqrt(-2.0 * math.log(1.0 - random()))
        angle = math.tau * random()
        normals[i] = radius * math.cos(angle)
        normals[i + 1] = radius * math.sin(angle)
    return normals[:count]


class _Draws(NamedTuple):
    """One config's draws: three per-run columns and two per-block ones.

    Run r owns blocks r * blocks_per_run up to (r + 1) * blocks_per_run
    of tx and z.
    """

    tx_total: memoryview  # per run: sum tx
    tx_z: memoryview  # per run: fsum tx * z
    z_min: memoryview  # per run: min z
    tx: memoryview  # per block: transaction count
    z: memoryview  # per block: standard normal


def _by_run(column: memoryview, blocks: int) -> Iterator[memoryview]:
    """A per-block column cut into consecutive runs of blocks values."""
    return (column[start : start + blocks] for start in range(0, len(column), blocks))


@functools.lru_cache(maxsize=len(ChainModel))
def _draws(config: SimulationConfig) -> _Draws:
    """The draws of config, made once.

    Counts and normals come from one generator seeded with config.seed,
    every count before the first normal, in run-major order. A run
    simulates every verify row under the same config, so the cache holds
    one entry per chain model. Each column is a flat bytearray of 8-byte
    values, not a Python object per value, and the cache hands out
    read-only views of it.
    """
    rng = random.Random(config.seed & _SEED_MASK)
    runs, blocks = config.runs, config.blocks_per_run
    tx = _poisson(rng.random, _MODEL_DEFAULTS[config.model][0], runs * blocks)
    z = _standard_normals(rng.random, runs * blocks)
    tx_total, tx_z, z_min = _column("q", runs), _column("d", runs), _column("d", runs)
    for run, (tx_run, z_run) in enumerate(zip(_by_run(tx, blocks), _by_run(z, blocks))):
        tx_total[run] = sum(tx_run)
        tx_z[run] = math.fsum(map(operator.mul, tx_run, z_run))
        z_min[run] = min(z_run)
    return _Draws(*(column.toreadonly() for column in (tx_total, tx_z, z_min, tx, z)))


def simulate_batch(config: SimulationConfig, verify_stat: StatSummary) -> StatSummary:
    """config.runs independent runs; batch stats over per-run means.

    Every call with an equal config reuses the same transaction counts
    and standard normals (common random numbers). A block's per-signature
    cost is max(mean + std * z, 0). A run whose smallest z keeps that cost
    non-negative costs (mean * sum tx + std * sum tx*z) / blocks without a
    pass over its blocks; any other run sums its blocks one by one. That
    test reads only the smallest z, so a negative std is refused, and so
    is a mean or std that is not a finite time.
    """
    mean, std = verify_stat.mean_ms, verify_stat.std_ms
    for name, value in (("mean_ms", mean), ("std_ms", std)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"verify {name} must be finite and >= 0, got {value!r}")
    blocks = config.blocks_per_run
    draws = _draws(config)
    run_means = []
    starts = range(0, len(draws.tx), blocks)
    for start, tx_total, tx_z, z_min in zip(starts, draws.tx_total, draws.tx_z, draws.z_min):
        if mean + std * z_min >= 0.0:
            run_means.append((mean * tx_total + std * tx_z) / blocks)
        else:
            tx, z = draws.tx[start : start + blocks], draws.z[start : start + blocks]
            costs = (max(mean + std * z_i, 0.0) for z_i in z)
            run_means.append(math.fsum(map(operator.mul, tx, costs)) / blocks)
    return summarize(run_means)


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
        "generator=python-random-ptrs-box-muller",
    )
