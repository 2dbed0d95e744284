"""Speed sampling: a fixed reference task that measures how fast the host runs.

The benchmark runs on a shared host whose speed drifts by tens of percent
over seconds to minutes (other tenants on the same cores, frequency
changes), in CPU time as much as in wall time. So while a timed region
runs, a SIGALRM handler runs a short pass of this task every INTERVAL_S
of wall time, and one pass runs just before and just after the region.
The region's time, with the passes taken out, is scaled by the pass's
nominal time over its mean measured time: the drift that the region and
its passes share cancels. The task is the benchmark's own code and does not depend on the
program, so a change to the program moves the normalized time exactly as
it moves the wall time.

Work of different kinds slows by different amounts when the host gets
busy (interpreted code about twice as much as a stream over a large
array), so there are two passes, and each workload uses the one whose
slow-down matches its own (see workloads.REFERENCE_KIND):

- "interpreted": interpreted Python (a loop with object creation,
  attribute and dict access, calls) and numpy calls on arrays of 256 to
  16384 samples (gathers, arithmetic, reductions), about half each;
- "array": the same, plus streams over a 4 MiB array and its 4 MiB
  result (past any core's L2 cache), about a third each.

The arrays are kept small because they count in the benchmark process's
peak resident set, which peak_rss_mb reports.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

INTERVAL_S = 0.1   # wall time between passes inside a timed region

_PY_ITERATIONS = 8_000
_NP_ROUNDS = 5     # gathers of 16384 points per array size

_rng = np.random.default_rng(12345)
_ARRAYS = [(_rng.random(n), _rng.integers(0, n, n), _rng.random(n)) for n in (256, 1024, 16384)]
_LARGE = _rng.random(1 << 19)
_STREAMS = 4


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


def _python_part(n: int = _PY_ITERATIONS) -> float:
    table = {i: i * 0.5 for i in range(64)}
    acc = 0.0
    for i in range(n):
        p = _Point(i * 1e-3, table[i & 63])
        acc += p.x * p.y - abs(p.y - 1.0)
    return acc


def _numpy_part(rounds: int = _NP_ROUNDS) -> float:
    acc = 0.0
    for samples, idx, frac in _ARRAYS:
        size = samples.size
        nxt = (idx + 1) % size
        for _ in range(rounds * 16384 // size):
            g = samples[idx]
            v = g + frac * (samples[nxt] - g)
            acc += float(np.max(np.abs(v)))
    return acc


def _stream_part() -> float:
    return sum(float((_LARGE * 0.5 + 1.0).max()) for _ in range(_STREAMS))


# kind -> (nominal pass time, parts). A normalized time reads as seconds on
# a host where a pass takes exactly the nominal time, about what one takes
# on an idle Intel Xeon core with Python 3.11 and numpy 2.4.
PASSES = {
    "interpreted": (0.005, (_python_part, _numpy_part)),
    "array": (0.008, (_python_part, _numpy_part, _stream_part)),
}


def normalize(seconds: float, passes: list[float], reference_s: float) -> float:
    """Scale a time to reference speed, given the passes measured with it."""
    return seconds * reference_s * len(passes) / sum(passes)


class SpeedProbe:
    """Samples the host's speed around and during timed regions.

    clock() is perf_counter() minus the time spent in passes, so a region
    timed with it (and any span a tracer records with it) leaves them out.
    """

    def __init__(self, kind: str, warm_up: int = 3):
        self.reference_s, self._parts = PASSES[kind]
        self.passes: list[float] = []  # every pass, in order
        self._spent = 0.0
        for _ in range(warm_up):       # first calls are slower; not recorded
            self._pass()

    def _pass(self) -> float:
        t0 = time.perf_counter()
        for part in self._parts:
            part()
        return time.perf_counter() - t0

    def normalize(self, seconds: float, passes: list[float]) -> float:
        return normalize(seconds, passes, self.reference_s)

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def sample(self, count: int = 1) -> list[float]:
        t0 = time.perf_counter()
        new = [self._pass() for _ in range(count)]
        self.passes.extend(new)
        self._spent += time.perf_counter() - t0
        return new

    def _on_alarm(self, signum, frame) -> None:
        self._taken.extend(self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextlib.contextmanager
    def region(self):
        """Sample during the block; yields the list the block's passes go to.

        The list holds a pass from just before, every pass during and a pass
        from just after the block, once the block has ended.
        """
        self._taken = self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self._taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._taken.extend(self.sample())
