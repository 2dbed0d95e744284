"""A per-test time bound for the benchmark harness's tests under perfbench/.

tests/conftest.py ends a test under tests/ that runs past its bound with
SIGALRM. That cannot bound a perfbench test: SpeedProbe
(perfbench/calibrate.py) arms ITIMER_REAL, the timer signal.alarm uses,
and zeroes it when it stops. Here a faulthandler watchdog thread bounds
each perfbench test instead: a test still running after
PERFBENCH_TIME_BOUND_S seconds dumps every thread's traceback to the
run's stderr and ends the process, so a hang stops the test run with its
stack instead of stalling it.
"""

import faulthandler
import os
import sys
from pathlib import Path

import pytest

PERFBENCH_TIME_BOUND_S = 60
PERFBENCH = Path(__file__).resolve().parent / "perfbench"

# the stderr the run started with: while a test runs, fd 2 may be pytest's
# capture file, whose contents a process ended by the watchdog never prints
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _perfbench_time_bound(request):
    if PERFBENCH not in request.node.path.parents:
        yield
        return
    faulthandler.dump_traceback_later(PERFBENCH_TIME_BOUND_S, exit=True,
                                      file=request.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
