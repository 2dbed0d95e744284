"""A per-test time bound: a test that runs past TEST_TIME_BOUND_S fails.

The slowest test takes a few seconds, so a test still running after a
minute is a hang (a retry loop that never ends, say), and it fails with
a message naming the bound instead of stalling the test run. The alarm
raises a BaseException subclass: Hypothesis catches Exception and
pytest's Failed as a failing example and re-runs it to shrink, which
would run into the same hang with no alarm left to end it.
"""

import signal

import pytest

TEST_TIME_BOUND_S = 60


class TimeBoundExceeded(BaseException):
    """A test ran past TEST_TIME_BOUND_S."""


@pytest.fixture(autouse=True)
def _time_bound():
    def on_alarm(signum, frame):
        raise TimeBoundExceeded(f"test ran past the {TEST_TIME_BOUND_S} s per-test bound")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_TIME_BOUND_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
