"""A per-test time bound and the Hypothesis profile for tests/ and perfbench/.

A test still running after TEST_TIME_BOUND_S (the slowest takes a few
seconds) is a hang: it fails naming the bound, and the session goes on.
A timer thread sends the main thread SIGUSR1, leaving SIGALRM and
ITIMER_REAL to SpeedProbe (perfbench/calibrate.py). The handler raises a
BaseException, which Hypothesis does not take for a failing example to
re-run into the same hang. A hang inside one C call is not ended.

Hypothesis has no per-example deadline, since the bound ends a hang, and
runs every default phase except explain, which on a property with many
arguments can alone outlast the bound (about 50 s for one with seven).
The bound can still end a long shrink phase before its report.
"""

import signal
import threading

import pytest
from hypothesis import Phase, settings

TEST_TIME_BOUND_S = 60

settings.register_profile(
    "tier1", deadline=None,
    phases=[p for p in settings.default.phases if p is not Phase.explain])
settings.load_profile("tier1")


class TimeBoundExceeded(BaseException):
    """A test ran past TEST_TIME_BOUND_S."""


def _on_bound(signum, frame):
    raise TimeBoundExceeded(f"test ran past the {TEST_TIME_BOUND_S} s per-test bound")


@pytest.fixture(autouse=True)
def _time_bound():
    signal.signal(signal.SIGUSR1, _on_bound)
    timer = threading.Timer(TEST_TIME_BOUND_S, signal.pthread_kill,
                            (threading.main_thread().ident, signal.SIGUSR1))
    timer.daemon = True
    timer.start()
    yield
    timer.cancel()
    timer.join()  # a signal sent as the test ends is raised here, in its teardown
