"""The committed benchmark trajectory: every BENCH_*.json holds a full, correct perfbench result."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRAJECTORY = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_has_a_point():
    assert TRAJECTORY


@pytest.mark.parametrize("path", TRAJECTORY, ids=[path.name for path in TRAJECTORY])
def test_point_holds_every_workload_and_end_to_end_metric(path):
    point = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{point['label']}.json"
    assert re.fullmatch(r"\d{4}-\d\d-\d\d", point["date"])
    workloads = [workload["name"] for workload in DECLARED["workloads"]]
    assert sorted(point["results"]) == sorted(workloads)
    assert len(point["commands"]) == len(workloads)
    for name in workloads:
        result = point["results"][name]
        assert any(f"--workload {name} " in command for command in point["commands"])
        assert result["correct"] is True, name
        assert re.fullmatch(r"[0-9a-f]{40}", result["provenance"]["commit"]), name
        for metric in DECLARED["end_to_end"]:
            measured = result["metrics"][metric["name"]]
            assert measured["unit"] == metric["unit"], (name, metric["name"])
            assert math.isfinite(measured["value"]), (name, metric["name"])
