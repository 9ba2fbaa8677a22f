"""The pytest settings in pyproject.toml let a failing test leave the session running."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(value):
    assert value < 10


def test_passes():
    pass
"""


def test_a_failing_property_test_leaves_the_next_test_running(tmp_path):
    # hypothesis's failure report imports libcst, whose DeprecationWarning
    # the "error" filter would raise as an INTERNALERROR that ends the session
    (tmp_path / "test_two.py").write_text(_TWO_TESTS, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
