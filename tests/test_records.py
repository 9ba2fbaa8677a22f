"""chainsig's records: immutable named tuples that validate on every construction path."""

from __future__ import annotations

import pytest

from chainsig.bench import BenchmarkRecord, EnvironmentInfo, RunPlan, StatSummary
from chainsig.cli import CliConfig
from chainsig.errors import DuplicateRow
from chainsig.report import Operation, ReportDataset, ReportRow, Stage
from chainsig.schemes import by_variant
from chainsig.sim import ChainModel, SimulationConfig

STAT = StatSummary(mean_ms=0.1, std_ms=0.01, n=10)
ROW = ReportRow("host", "ECDSA", "P-256", 1, Stage.BENCHMARK, None, Operation.VERIFY, 0.1, 0.01, 10)

#: one instance of every record chainsig defines
RECORDS = [
    STAT,
    RunPlan(),
    EnvironmentInfo("cpu", 1 << 30, "Linux", 20.0),
    BenchmarkRecord(STAT, STAT, STAT),
    CliConfig(),
    SimulationConfig(ChainModel.BITCOIN),
    by_variant()["P-256"],
    ROW,
    ReportDataset((ROW,)),
]

#: a validating record, and a field change that its check refuses
REFUSED = [
    (RunPlan(), {"runs": 0}, ValueError),
    (RunPlan(), {"warmup": -1}, ValueError),
    (RunPlan(), {"message_len": 0}, ValueError),
    (SimulationConfig(ChainModel.ETHEREUM), {"runs": 0}, ValueError),
    (ROW, {"mean_ms": float("nan")}, ValueError),
    (ROW, {"level": 4}, ValueError),
    (ROW, {"stage": Stage.SIMULATION}, ValueError),
    (ROW, {"machine": "a\rb"}, ValueError),
    (ReportDataset((ROW,)), {"rows": (ROW, ROW)}, DuplicateRow),
]


@pytest.mark.parametrize("record,change,error", REFUSED)
def test_replace_checks_as_the_constructor_does(record, change, error):
    values = {**record._asdict(), **change}
    with pytest.raises(error):
        type(record)(**values)
    with pytest.raises(error):
        record._replace(**change)
    with pytest.raises(error):
        type(record)._make(values.values())


@pytest.mark.parametrize("record,change,_error", REFUSED)
def test_replace_keeps_the_record_type(record, change, _error):
    # the unchanged values pass the check, so only the type is at stake
    same = record._replace(**{name: getattr(record, name) for name in change})
    assert type(same) is type(record)
    assert same == record


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_refuse_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    with pytest.raises(AttributeError):
        record.note = "not a field"


def test_blocks_per_run_is_a_class_constant():
    assert SimulationConfig.blocks_per_run == 16
    assert SimulationConfig(ChainModel.BITCOIN, runs=3).blocks_per_run == 16
    assert "blocks_per_run" not in SimulationConfig._fields

