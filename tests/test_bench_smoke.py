"""The benchmark runner still drives the library: a tiny run of every workload.

The runner wraps public functions by module attribute and patches
gammaprod.survey.survey_row, so a refactor that renames, inlines or stops
importing one of them breaks it; this catches that in the test suite.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    pytest.importorskip("sympy")
    result = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
