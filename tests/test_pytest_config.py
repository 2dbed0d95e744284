"""The pytest configuration: every warning is an error, except one import
warning that would otherwise end the session when a property test fails.

Each test runs pytest in a subprocess on a temporary test file, under
the repository's own pyproject.toml.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_a_property_that_fails(n):
    assert n != n


def test_b_runs_after_it():
    assert True
'''

OVERFLOW_IN_SRC = '''
import numpy as np

from twonorm.grids import lip_norm_values


def test_overflow_warning_from_src_fails():
    lip_norm_values(np.array([1e308, -1e308]), 1.0)
'''


def _pytest_on(tmp_path, source):
    (tmp_path / "test_case.py").write_text(source)
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_case.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    return run.stdout + run.stderr


def test_failing_property_test_reports_and_the_session_goes_on(tmp_path):
    out = _pytest_on(tmp_path, FAILING_PROPERTY_THEN_PASSING)
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_runtime_warning_from_src_still_fails_its_test(tmp_path):
    out = _pytest_on(tmp_path, OVERFLOW_IN_SRC)
    assert "1 failed" in out
    assert "RuntimeWarning" in out and "overflow" in out
