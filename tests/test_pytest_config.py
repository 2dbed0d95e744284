"""The pytest configuration: every warning is an error, except one import
warning that would otherwise end the session when a property test fails,
and a test that runs past the per-test time bound fails.

Each test runs pytest in a subprocess on a temporary test file, under
the repository's own pyproject.toml.
"""

import os
import re
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

# each of the first three runs 10 s unless the bound ends it; the third
# first arms and zeroes ITIMER_REAL, as SpeedProbe (perfbench/calibrate.py) does
HANGS_THEN_PASSING = '''
import signal
import time


def test_a_sleeps():
    time.sleep(10)


def test_b_spins():
    end = time.monotonic() + 10
    while time.monotonic() < end:
        pass


def test_c_zeroes_the_interval_timer_then_sleeps():
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: None)
    signal.setitimer(signal.ITIMER_REAL, 0.01)
    time.sleep(0.05)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
    time.sleep(10)


def test_d_runs_after_them():
    assert True
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


def test_a_test_past_the_time_bound_fails_and_the_session_goes_on(tmp_path):
    conftest = (REPO / "conftest.py").read_text()
    assert conftest.count("TEST_TIME_BOUND_S = 60") == 1
    (tmp_path / "conftest.py").write_text(
        conftest.replace("TEST_TIME_BOUND_S = 60", "TEST_TIME_BOUND_S = 1"))
    out = _pytest_on(tmp_path, HANGS_THEN_PASSING)
    assert "3 failed, 1 passed" in out
    # one traceback line each; the summary lines may be cut to the terminal's width
    raised = re.findall(r"^E .*TimeBoundExceeded: test ran past the 1 s per-test bound$",
                        out, re.MULTILINE)
    assert len(raised) == 3
