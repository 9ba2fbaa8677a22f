"""Seeded replay fixture: a benchmark CSV that `chainsig --replay-benchmarks` reads.

Every catalog variant gets keypair, sign and verify rows. The 138 means
are a fixed log-spaced grid from 0.01 ms to 100 ms (four decades); the
seed decides which row gets which grid point and adds a small
multiplicative jitter. Permuting a fixed grid keeps the median row and
the total simulated work nearly constant across seeds, so the figures of
different seeds stay comparable, while the jitter keeps them from being
identical. The std is 5% of the mean, so the simulator's clamp of
negative per-block draws at zero never matters, and n is the paper's
10000 measured runs.

The fixture is written here with the csv module, not with chainsig's
writer, so the round trip through `report.parse_csv` checks the parser
against an independent writer.
"""

from __future__ import annotations

import csv
import io
import math
import random
from typing import Sequence

HEADER = ("machine", "family", "variant", "level", "stage", "model",
          "operation", "mean_ms", "std_ms", "n")
OPERATIONS = ("keypair", "sign", "verify")
MACHINE = "replay-fixture"
LOW_MS, HIGH_MS = 0.01, 100.0
JITTER = 0.02
STD_SHARE = 0.05
SAMPLES = 10000


def fixture_rows(
    variants: Sequence[tuple[str, str, int]], seed: int
) -> list[tuple[str, ...]]:
    """CSV rows (as written) for (family, variant, level) triples.

    Means and stds are rendered with the 4 fractional digits chainsig
    writes, so a replay must reproduce every field byte for byte.
    """
    count = len(variants) * len(OPERATIONS)
    rng = random.Random(seed)
    span = math.log10(HIGH_MS / LOW_MS)
    grid = [LOW_MS * 10 ** (span * i / max(count - 1, 1)) for i in range(count)]
    rng.shuffle(grid)
    rows = []
    cells = [(v, op) for v in variants for op in OPERATIONS]
    for point, ((family, variant, level), operation) in zip(grid, cells):
        mean = round(point * math.exp(rng.uniform(-JITTER, JITTER)), 4)
        std = round(mean * STD_SHARE, 4)
        rows.append((MACHINE, family, variant, str(level), "Benchmark", "",
                     operation, f"{mean:.4f}", f"{std:.4f}", str(SAMPLES)))
    return rows


def fixture_text(variants: Sequence[tuple[str, str, int]], seed: int) -> str:
    """The whole fixture file: one comment line, the header, the rows."""
    buffer = io.StringIO()
    buffer.write(f"# replay fixture seed={seed}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(fixture_rows(variants, seed))
    return buffer.getvalue()
