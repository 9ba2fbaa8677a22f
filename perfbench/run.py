"""chainsig benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-replay --seed 7 --seconds 40 --trace 0

With `--trace 0` the chainsig CLI runs as a child process, one at a time
(closed loop, one client), pinned to one CPU, until `--seconds` have
passed and at least `MIN_RUNS` runs are done. Each run's outputs are
checked. The end-to-end metrics are medians over the runs; timings are
scaled to a nominal host speed measured around each run (speed.py).
With `--trace 1` the same pipeline runs inside this process, alternately
untraced and with spans around chainsig's public functions (see
`TARGETS`), next to the layer floor microbenchmarks; the per-layer
metrics are medians over the traced runs. Every metric is printed by
name with its unit, then provenance, and the last line of stdout is the
JSON result. Outputs and span dumps go to `.bench_work/` in the
repository root.

The program is taken from `src/` as it stands; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import speed
from checks import Expect, Outcome, check_run
from fixture import fixture_rows, fixture_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PROVIDER_ENV = "CHAINSIG_PROVIDER"

#: fewest CLI runs behind a median
MIN_RUNS = 5
CHILD_TIMEOUT_S = 120
SPAWN = Path(__file__).resolve().parent / "spawn.py"


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    expect: Expect
    #: the speed.REFERENCES entry that scales row_median_us; None when
    #: the rows are replayed, not measured
    row_reference: str | None = "python"
    #: forced onto every variant through CHAINSIG_PROVIDER
    provider: str | None = None
    replay: bool = False


# Why these three: ecdsa-live is the only real signing this host can
# measure; stub-harness makes the primitive nearly free so the harness
# (timing loop, guard, instantiation, reporting) dominates and the
# simulator does nothing; catalog-replay measures nothing and spends its
# time in the simulator. Each of the last two bypasses what the other
# stresses.
WORKLOADS = {
    "ecdsa-live": Workload(
        args=("--families", "ECDSA", "--runs", "500", "--warm-up", "50",
              "--runs-simulator", "200"),
        expect=Expect(variants=3, bench_rows=9, sim_rows=6, runs=500),
        row_reference="openssl",
    ),
    "stub-harness": Workload(
        args=("--skip-simulation", "--runs", "2000", "--warm-up", "200"),
        expect=Expect(variants=46, bench_rows=138, sim_rows=0, runs=2000),
        provider="stub",
    ),
    "catalog-replay": Workload(
        args=("--runs-simulator", "200"),
        expect=Expect(variants=46, bench_rows=138, sim_rows=92),
        row_reference=None,
        replay=True,
    ),
}


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in declared[key]}
                 for key in ("end_to_end", "per_layer"))


def _wrote(tracer, span, result, args):
    tracer.counters["report.bytes"] += result


def _timed(tracer, span, result, args):
    tracer.counters["bench.timed_samples"] += len(result)
    tracer.counters["bench.timed_ms"] += sum(result)


def _simulated(tracer, span, result, args):
    config = args[0]
    tracer.counters["sim.blocks"] += config.runs * config.blocks_per_run
    tracer.samples["sim.batch_ms"].append((span.end - span.start) * 1000.0)


#: (module, attribute, span name, hook): every public function the
#: pipeline calls, wrapped where the caller looks it up
TARGETS = (
    ("chainsig.cli", "run_pipeline", "cli.run_pipeline", None),
    ("chainsig.cli", "probe_environment", "bench.probe_environment", None),
    ("chainsig.cli", "instantiate", "schemes.instantiate", None),
    ("chainsig.cli", "benchmark_variant", "bench.benchmark_variant", None),
    ("chainsig.bench", "time_operation", "bench.time_operation", _timed),
    ("chainsig.bench", "summarize", "bench.summarize", None),
    ("chainsig.sim", "summarize", "bench.summarize", None),
    ("chainsig.cli", "simulate_batch", "sim.simulate_batch", _simulated),
    ("chainsig.cli", "parse_csv", "report.parse_csv", None),
    ("chainsig.cli", "write_csv", "report.write_csv", _wrote),
    ("chainsig.cli", "render_bar_chart", "report.render_bar_chart", _wrote),
)


@dataclass(frozen=True)
class Child:
    exit_code: int
    wall_s: float
    peak_rss_mib: float


def run_child(argv: list[str], env: dict[str, str], log: Path) -> Child:
    """Run one child to completion through spawn.py, its output to log."""
    launcher = [sys.executable, "-S", str(SPAWN), str(CHILD_TIMEOUT_S), *argv]
    with open(log, "wb") as log_file:
        done = subprocess.run(launcher, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=log_file,
                              timeout=CHILD_TIMEOUT_S + 30, check=True)
    code, wall, peak_kib = done.stdout.split()
    return Child(int(code), float(wall), int(peak_kib) / 1024.0)


def child_env(provider: str | None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    env.pop(PROVIDER_ENV, None)
    if provider is not None:
        env[PROVIDER_ENV] = provider
    return env


def cli_args(workload: Workload, seed: int, out_dir: Path, fixture: Path | None):
    args = [*workload.args, "--seed", str(seed), "--output-dir", str(out_dir)]
    if fixture is not None:
        args += ["--replay-benchmarks", str(fixture)]
    return args


def prepare_fixture(workload: Workload, seed: int, failures: list[str]):
    """Write the replay fixture; returns (path, rows) or (None, None)."""
    if not workload.replay:
        return None, None
    from chainsig.report import parse_csv
    from chainsig.schemes import catalog

    variants = [(d.family, d.variant, d.level) for d in catalog()]
    path = WORK / f"fixture-seed{seed}.csv"
    path.write_text(fixture_text(variants, seed), encoding="utf-8")
    rows = tuple(fixture_rows(variants, seed))
    parsed = [
        (r.machine, r.family, r.variant, str(r.level), r.stage.value,
         r.model.label if r.model else "", r.operation.value,
         f"{r.mean_ms:.4f}", f"{r.std_ms:.4f}", str(r.n))
        for r in parse_csv(path).rows
    ]
    if sorted(parsed) != sorted(rows):
        failures.append("fixture does not round-trip through report.parse_csv")
    return path, rows


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"median of n={len(values)}; q1 {q1:.6g}, q3 {q3:.6g},"
            f" min {min(values):.6g}, max {max(values):.6g}")


def measure_end_to_end(name: str, workload: Workload, seed: int, seconds: int,
                       failures: list[str]) -> tuple[dict, int, int, dict]:
    fixture, rows = prepare_fixture(workload, seed, failures)
    expect = replace(workload.expect, fixture=rows)
    env = child_env(workload.provider)
    log = WORK / f"{name}.log"

    # A setup probe precedes each run. The host's slowdowns are taken
    # just before the probe and just after the run, and each timing is
    # divided by the geometric mean of the matching pair (see speed.py).
    probe = [sys.executable, "-c", "import chainsig.cli"]
    out_dir = WORK / name
    argv = [sys.executable, "-m", "chainsig.cli", *cli_args(workload, seed, out_dir, fixture)]
    run_child(probe, env, log)  # fills the bytecode cache; not timed
    probes: list[float] = []
    factors: list[dict[str, float]] = []
    children: list[Child] = []
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    while len(children) < MIN_RUNS or (
        time.perf_counter() - start + _median([c.wall_s for c in children]) <= seconds
    ):
        before = speed.slowdowns()
        probed = run_child(probe, env, log)
        if probed.exit_code != 0:
            failures.append(f"setup probe: exit code {probed.exit_code}")
        shutil.rmtree(out_dir, ignore_errors=True)
        child = run_child(argv, env, log)
        after = speed.slowdowns()
        factors.append({k: math.sqrt(before[k] * after[k]) for k in before})
        probes.append(probed.wall_s)
        children.append(child)
        outcomes.append(check_run(child.exit_code, out_dir, expect))
        failures.extend(f"run {len(children)}: {f}" for f in outcomes[-1].failures)

    walls = [c.wall_s for c in children]
    rows_us = [_median(o.row_means_ms) * 1000.0 for o in outcomes]

    def scaled(values: list[float], reference: str | None) -> list[float]:
        if reference is None:
            return values
        return [value / factor[reference] for value, factor in zip(values, factors)]

    samples = {
        "wall_s": scaled(walls, "python"),
        "setup_s": scaled(probes, "python"),
        "peak_rss_mib": [c.peak_rss_mib for c in children],
        "row_median_us": scaled(rows_us, workload.row_reference),
    }
    metrics = {key: _median(values) for key, values in samples.items()}
    bad = sum(o.bad for o in outcomes)
    selected = workload.expect.variants * len(outcomes)
    metrics["ok_ratio"] = max(0.0, 1.0 - bad / selected)
    spreads = {key: _spread(values) for key, values in samples.items()}
    spreads["ok_ratio"] = f"{bad} bad of {selected} variant runs"
    failed = sum(1 for o in outcomes if o.failures or o.missing_variants)
    raw = {**samples, "spreads": spreads, "slowdowns": factors, "unscaled_wall_s": walls,
           "unscaled_setup_s": probes, "unscaled_row_median_us": rows_us}
    return metrics, len(children), failed, raw


def run_in_process(workload: Workload, seed: int, out_dir: Path,
                   fixture: Path | None) -> tuple[int, float]:
    from chainsig import cli
    from chainsig.errors import ChainsigError

    config = cli.parse_args(cli_args(workload, seed, out_dir, fixture))
    saved = os.environ.pop(PROVIDER_ENV, None)
    if workload.provider is not None:
        os.environ[PROVIDER_ENV] = workload.provider
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        code = cli.run_pipeline(config)
    except ChainsigError:
        code = 1
    finally:
        wall = time.perf_counter() - start
        os.environ.pop(PROVIDER_ENV, None)
        if saved is not None:
            os.environ[PROVIDER_ENV] = saved
    return code, wall


def layer_metrics(tracer) -> dict[str, float]:
    from spans import self_times, totals

    table = totals(tracer.spans)

    def busy(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> float:
        return float(table.get(name, (0, 0.0, 0.0))[0])

    pipeline = [s for s, span in zip(self_times(tracer.spans), tracer.spans)
                if span.name == "cli.run_pipeline"]
    counters = tracer.counters
    timed_s = busy("bench.time_operation")
    sim_s = busy("sim.simulate_batch")
    return {
        "cli.run_pipeline_s": busy("cli.run_pipeline"),
        "cli.self_s": sum(pipeline),
        "trace.spans": float(len(tracer.spans)),
        "bench.probe_environment_s": busy("bench.probe_environment"),
        "bench.benchmark_variant_s": busy("bench.benchmark_variant"),
        "bench.time_operation_s": timed_s,
        "bench.timed_samples": counters["bench.timed_samples"],
        "bench.timed_share": counters["bench.timed_ms"] / 1000.0 / timed_s if timed_s else 0.0,
        "bench.summarize_s": busy("bench.summarize"),
        "schemes.instantiate_s": busy("schemes.instantiate"),
        "schemes.instantiate_calls": calls("schemes.instantiate"),
        "sim.simulate_batch_s": sim_s,
        "sim.batches": calls("sim.simulate_batch"),
        "sim.blocks": counters["sim.blocks"],
        "sim.blocks_per_s": counters["sim.blocks"] / sim_s if sim_s else 0.0,
        "sim.batch_ms.p50": _median(tracer.samples["sim.batch_ms"]),
        "report.parse_csv_s": busy("report.parse_csv"),
        "report.write_csv_s": busy("report.write_csv"),
        "report.render_bar_chart_s": busy("report.render_bar_chart"),
        "report.charts": calls("report.render_bar_chart"),
        "report.bytes": counters["report.bytes"],
    }


def measure_layers(name: str, workload: Workload, seed: int, seconds: int,
                   failures: list[str]) -> tuple[dict, int, int, dict]:
    from floors import measure_floors
    from spans import Tracer

    start = time.perf_counter()
    fixture, rows = prepare_fixture(workload, seed, failures)
    expect = replace(workload.expect, fixture=rows)
    floors = measure_floors()
    out_dir = WORK / name
    run_in_process(workload, seed, out_dir, fixture)  # first-call costs; not timed
    untraced, traced, per_run, dumps = [], [], [], []
    attempted = failed = 0

    def check(code: int) -> None:
        nonlocal attempted, failed
        outcome = check_run(code, out_dir, expect)
        attempted += 1
        failed += bool(outcome.failures or outcome.missing_variants)
        failures.extend(f"in-process run {attempted}: {f}" for f in outcome.failures)

    while not traced or time.perf_counter() - start < seconds:
        code, wall = run_in_process(workload, seed, out_dir, fixture)
        untraced.append(wall)
        check(code)
        tracer = Tracer()
        with tracer.installed(TARGETS):
            code, wall = run_in_process(workload, seed, out_dir, fixture)
        traced.append(wall)
        per_run.append(layer_metrics(tracer))
        dumps.append(tracer.dump())
        check(code)

    metrics = {key: _median([run[key] for run in per_run]) for key in per_run[0]}
    metrics.update(floors)
    metrics["trace.overhead_s"] = _median(traced) - _median(untraced)
    _report_premises(name, metrics)
    raw = {"traced_wall_s": traced, "untraced_wall_s": untraced, "spans": dumps}
    return metrics, attempted, failed, raw


def _report_premises(name: str, metrics: dict[str, float]) -> None:
    """Print whether the traced run matches why the workload was chosen."""
    pipeline = metrics["cli.run_pipeline_s"] or 1.0
    sim_share = metrics["sim.simulate_batch_s"] / pipeline
    timed_share = metrics["bench.time_operation_s"] / pipeline
    if name == "catalog-replay":
        print(f"premise: simulate_batch is {sim_share:.1%} of run_pipeline (want >= 90%)")
    elif name == "stub-harness":
        print(f"premise: {metrics['sim.batches']:.0f} simulation batches (want 0);"
              f" time_operation is {timed_share:.1%} of run_pipeline")
    else:
        print(f"premise: time_operation {timed_share:.1%},"
              f" simulate_batch {sim_share:.1%} of run_pipeline")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "chainsig" / "cli.py").is_file():
        print(f"perfbench: no chainsig sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    speed.pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    failures: list[str] = []
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, attempted, failed, raw = measure(
        args.workload, workload, args.seed, args.seconds, failures
    )
    if failures and not failed:
        failed = 1  # the fixture or a setup probe failed, which spoils every run

    import provenance

    units = declared_units()[args.trace]
    spreads = raw.get("spreads", {})
    for key, unit in units.items():
        note = f"  ({spreads[key]})" if key in spreads else ""
        print(f"{args.workload} {key} = {metrics[key]:.6g} {unit}{note}")
    for failure in failures:
        print(f"check failed: {failure}")
    source = provenance.collect(ROOT, args.seed, workload.provider)
    print("provenance: " + json.dumps(source, sort_keys=True))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }
    dump = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps({**result, "provenance": source, "failures": failures,
                                "raw": raw}) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
