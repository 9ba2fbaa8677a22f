"""Output checks for one chainsig run, and the closed-form simulation oracle.

The oracle is independent of `chainsig.sim`: a simulated block holds
Poisson(lam) transactions, each block draws one per-signature cost
c = max(Normal(mu, sigma), 0), and the reported mean averages B blocks
per run over R runs. So the mean is lam*E[c] and its standard error is
sqrt((lam*E[c^2] + lam^2*Var[c]) / (B*R)). Without the clamp this is
sqrt((lam*mu^2 + lam*sigma^2 + lam^2*sigma^2) / (B*R)).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

from fixture import HEADER

#: transactions per block of each chain model, as the paper gives them
TX_PER_BLOCK = {"Bitcoin": 1729.0, "Ethereum": 131.0}
#: half the last digit of the 4-decimal milliseconds chainsig writes
CSV_QUANTUM_MS = 5e-5
#: a simulation mean further than this many standard errors from the
#: closed form fails its check
SIM_SIGMAS = 5.0


def read_csv(path: Path) -> tuple[dict[str, str], list[tuple[str, ...]]]:
    """The `# key=value` comments and the data rows of a chainsig CSV.

    A missing file reads as no rows, so a stage that wrote nothing shows
    up as a row-count failure rather than an exception.
    """
    if not path.exists():
        return {}, []
    comments: dict[str, str] = {}
    lines = path.read_text(encoding="utf-8").split("\n")
    while lines and lines[0].startswith("#"):
        key, _, value = lines.pop(0)[1:].strip().partition("=")
        comments[key] = value
    reader = csv.reader(io.StringIO("\n".join(lines)))
    if tuple(next(reader, ())) != HEADER:
        raise ValueError(f"{path}: missing or malformed header")
    return comments, [tuple(row) for row in reader if row]


def clamped_normal_moments(mu: float, sigma: float) -> tuple[float, float]:
    """E[c] and E[c^2] for c = max(X, 0), X ~ Normal(mu, sigma)."""
    if sigma == 0:
        c = max(mu, 0.0)
        return c, c * c
    a = mu / sigma
    cdf = 0.5 * math.erfc(-a / math.sqrt(2))
    pdf = math.exp(-a * a / 2) / math.sqrt(2 * math.pi)
    return mu * cdf + sigma * pdf, (mu * mu + sigma * sigma) * cdf + mu * sigma * pdf


def simulation_oracle(
    lam: float, mu: float, sigma: float, blocks: int, runs: int
) -> tuple[float, float]:
    """Expected reported mean and its standard error, in the units of mu."""
    m1, m2 = clamped_normal_moments(mu, sigma)
    block_var = lam * m2 + lam * lam * (m2 - m1 * m1)
    return lam * m1, math.sqrt(block_var / (blocks * runs))


@dataclass(frozen=True)
class Expect:
    """What a correct run of one workload writes."""

    variants: int
    bench_rows: int
    sim_rows: int
    #: the n every measured row carries; None when rows are replayed
    runs: int | None = None
    #: rows benchmark.csv must equal, in any order
    fixture: tuple[tuple[str, ...], ...] | None = None


@dataclass(frozen=True)
class Outcome:
    failures: tuple[str, ...]
    missing_variants: int
    row_means_ms: tuple[float, ...]

    @property
    def bad(self) -> int:
        return self.missing_variants + len(self.failures)


def check_run(exit_code: int, out_dir: Path, expect: Expect) -> Outcome:
    """Check one run's exit code and CSVs; each failure is one line."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}, expected 0")
    try:
        _, bench = read_csv(out_dir / "benchmark.csv")
        sim_comments, sim = read_csv(out_dir / "simulation.csv")
    except (OSError, ValueError) as exc:
        return Outcome((f"unreadable output: {exc}",), expect.variants, ())
    if (len(bench), len(sim)) != (expect.bench_rows, expect.sim_rows):
        failures.append(
            f"rows {len(bench)}/{len(sim)} (benchmark/simulation),"
            f" expected {expect.bench_rows}/{expect.sim_rows}"
        )
    if expect.fixture is not None and sorted(bench) != sorted(expect.fixture):
        failures.append("replayed benchmark rows differ from the fixture")
    if expect.runs is not None:
        wrong_n = [row[2] for row in bench if row[9] != str(expect.runs)]
        if wrong_n:
            failures.append(f"n differs from --runs {expect.runs} for {wrong_n[0]}")
    verify = {row[2]: (float(row[7]), float(row[8])) for row in bench
              if row[6] == "verify"}
    for row in sim:
        failure = _check_simulation_row(row, sim_comments, verify)
        if failure:
            failures.append(failure)
    missing = max(expect.variants - len({row[2] for row in bench}), 0)
    means = tuple(float(row[7]) for row in bench)
    return Outcome(tuple(failures), missing, means)


def _check_simulation_row(
    row: tuple[str, ...],
    comments: dict[str, str],
    verify: dict[str, tuple[float, float]],
) -> str | None:
    variant, model = row[2], row[5]
    where = f"simulation {variant}/{model}"
    lam = TX_PER_BLOCK.get(model)
    if lam is None or variant not in verify:
        return f"{where}: no model or verify row to check against"
    prefix = model.lower()
    if float(comments.get(f"{prefix}.tx_per_block_mean", "nan")) != lam:
        return f"{where}: tx_per_block_mean is not the paper's {lam}"
    blocks = int(comments.get(f"{prefix}.blocks_per_run", "0"))
    if blocks < 1:
        return f"{where}: blocks_per_run missing from the comments"
    mu, sigma = verify[variant]
    expected, sd = simulation_oracle(lam, mu, sigma, blocks, int(row[9]))
    # the verify mean reached the CSV rounded, and so did this mean
    tolerance = SIM_SIGMAS * sd + (lam + 1) * CSV_QUANTUM_MS
    deviation = float(row[7]) - expected
    if abs(deviation) > tolerance:
        return (
            f"{where}: mean {row[7]} is {deviation / sd:+.1f} sd from the"
            f" closed form {expected:.4f}"
        )
    return None
