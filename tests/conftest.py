"""A per-test time bound: a test that runs past TEST_TIME_BOUND_S fails.

The slowest test takes a few seconds, so a test still running after a
minute is a hang (a retry loop that never ends, say), and it fails with
a message naming the bound instead of stalling the test run. The alarm
raises a BaseException subclass: Hypothesis catches Exception and
pytest's Failed as a failing example and re-runs it to shrink, which
would run into the same hang with no alarm left to end it.

Hypothesis runs every default phase except explain. The explain phase
varies each argument of a failing draw to say which ones matter, and on
a property with many arguments it alone can outlast the bound (about
50 s for one with seven); without it a failure reports its falsifying
example within a few seconds. The alarm can still end a long shrink
phase before the report.
"""

import signal

import pytest
from hypothesis import Phase, settings

TEST_TIME_BOUND_S = 60

settings.register_profile(
    "no-explain", phases=[p for p in settings.default.phases if p is not Phase.explain])
settings.load_profile("no-explain")


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
