"""The continuation controller under scripted failures.

A fake instance plays a drawn script, one action per window attempt: it
either accepts, with a drawn strong-norm profile under the attempt's
cap, or raises a drawn WindowFailure subclass whose t is None, the
window's start, a time inside it or its end. Once the script runs out
its tail action repeats. The fake plans with drawn analytic bounds,
which can fail from a drawn round on, or with none.

The properties read the attempt log, as _attempts in
test_engine_properties.py does, and check the controller's rules: a
round makes a bounded number of attempts (the fake fails the draw past
that bound, so a looping controller fails fast instead of hanging),
each retry lies between window_shrink times the failed attempt (and
min_window) and that attempt, a blow-up by collapse comes only right
after a failed attempt of at most min_window, the accepted windows tile
[0, t_c], and every run ends in one of the four verdicts without raising.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from twonorm import core
from twonorm.core import (
    CapExceeded,
    ContractionFailureError,
    IterBudgetExceeded,
    NoContractionWindow,
    NonFiniteState,
    NormedPairElement,
    SolverConfig,
    SolverError,
    StabilityBounds,
    Termination,
    TrajectorySegment,
    WindowFailure,
    continuation_solve,
)
from twonorm.instances import InstanceBounds, ProblemInstance

FAILURES = (CapExceeded, ContractionFailureError, IterBudgetExceeded, NonFiniteState)
ACCEPT_FLAT = ("accept", 0.0, 1.0)


def _attempt_bound(first: float, cfg: SolverConfig) -> int:
    """Most attempts a round whose first attempt is first long may make.

    A retry is at most max(window_shrink, 0.9) times the failed attempt (0.9
    where the failure names the window's end), so after
    ceil(log(first / min_window) / log(1 / q)) attempts the next one is the
    min_window attempt; one more allows for float jitter.
    """
    q = max(cfg.window_shrink, 0.9)
    return max(0, math.ceil(math.log(first / cfg.min_window) / math.log(1.0 / q))) + 2


class ScriptedInstance:
    """A fake instance whose step plays one script action per window attempt.

    An action is ("accept", u, p): strong norms r0 + u (k/m)^p (cap - r0)
    over the rows k = 0..m for u > 0 and r0 (1 + u (k/m)^p) otherwise, with
    the start's state and weak norm in every row, so the first iterate is
    the fixed point; or ("fail", cls, where, frac): raise cls with t None
    (where None), the window's start, its start plus frac of its length
    ("inside") or its end. bounds, when given, is (g, beta, gamma,
    fail_round, fail_kind): a-priori bound r + g t M and sensitivities
    b = beta t R, c = gamma t R, except that from fail_round accepted
    windows on (never when it is None), fail_kind breaks planning:
    "apriori" leaves a window of length 0, "b" keeps b(t, R) / R at 1 and
    "c" keeps c(t, R) / R at 1. An attempt past its round's
    _attempt_bound fails the draw with an AssertionError.
    """

    def __init__(self, script, tail, cfg, bounds=None):
        self.actions, self.tail, self.cfg = list(script), tail, cfg
        self.accepted = 0
        self.round_start, self.round_attempts, self.round_bound = None, 0, 0
        self.plan = bounds
        self.instance = ProblemInstance(
            name="scripted", step=self.step, weak_norm=lambda s: 1.0,
            strong_norm=lambda s: 1.0,
            weak_dist=lambda a, b: float(np.max(np.abs(np.asarray(a) - np.asarray(b)))),
            bounds=None if bounds is None else InstanceBounds(
                apriori=self._apriori, stability=StabilityBounds(b=self._b, c=self._c)))

    def _broken(self, kind):
        _, _, _, fail_round, fail_kind = self.plan
        return fail_kind == kind and fail_round is not None and self.accepted >= fail_round

    def _apriori(self, t, r, m):
        if self._broken("apriori"):
            return r if t == 0.0 else math.inf
        return r + self.plan[0] * t * m

    def _b(self, t, r):
        return r if self._broken("b") else self.plan[1] * t * r

    def _c(self, t, r):
        return r if self._broken("c") else self.plan[2] * t * r

    def step(self, y, x0, *, substeps, cap=None, coupled=False):
        t0, t1 = y.t_start, y.t_end
        if t0 != self.round_start:  # a new round: its first attempt
            self.round_start, self.round_attempts = t0, 0
            self.round_bound = _attempt_bound(t1 - t0, self.cfg)
        self.round_attempts += 1
        assert self.round_attempts <= self.round_bound, (
            f"round at t={t0} made {self.round_attempts} attempts, over its bound "
            f"{self.round_bound}")
        action = self.actions.pop(0) if self.actions else self.tail
        if action[0] == "fail":
            _, cls, where, frac = action
            t = {None: None, "start": t0, "inside": t0 + frac * (t1 - t0), "end": t1}[where]
            raise cls("scripted failure", t=t)
        _, u, p = action
        r0 = x0.strong_norm
        rise = np.linspace(0.0, 1.0, substeps + 1) ** p
        strong = r0 + u * rise * ((cap - r0) if u > 0 else r0)
        rows = np.broadcast_to(np.asarray(x0.state), (substeps + 1,) + np.shape(x0.state))
        self.accepted += 1
        return TrajectorySegment(y.times, rows, np.full(substeps + 1, x0.weak_norm), strong, x0)


def _attempts(fake, x0, t_max, cfg):
    """Run a solve and list its attempts as (t_start, t_end, segment or SolverError)."""
    attempts = []
    picard_window = core.picard_window

    def recorded(instance, x, plan, config):
        try:
            out = picard_window(instance, x, plan, config)
        except SolverError as exc:
            attempts.append((plan.t_start, plan.t_end, exc))
            raise
        attempts.append((plan.t_start, plan.t_end, out[0]))
        return out

    with mock.patch.object(core, "picard_window", recorded):
        segments, report = continuation_solve(fake.instance, x0, t_max, cfg)
    return attempts, segments, report


def _check_controller(fake, x0, t_max, cfg):
    """Solve with the fake and check the attempt log against the controller's rules."""
    attempts, segments, report = _attempts(fake, x0, t_max, cfg)
    kind = report.termination
    assert isinstance(kind, Termination)
    tol = 4.0 * float(np.spacing(t_max))  # a length read back as t_end - t_start
    shrink, min_window = cfg.window_shrink, cfg.min_window

    def at_most_min_window(t0, e0):
        # an attempt within float jitter of the horizon ends on it, past its plan
        return e0 - t0 <= min_window + tol or (
            e0 == t_max and (e0 - t0) * (1.0 - 1e-9) <= min_window)

    for (t0, e0, out), (t1, e1, _) in zip(attempts, attempts[1:]):
        a, length = e0 - t0, e1 - t1
        if isinstance(out, TrajectorySegment):  # the next round starts where it ended
            assert t1 == e0
            continue
        # a failed attempt is retried from the same start, and only a
        # failure of an attempt longer than min_window is retried
        assert isinstance(out, WindowFailure) and t1 == t0
        assert a > min_window - tol
        assert max(shrink * a, min_window) - 2.0 * tol <= length <= a + tol
        assert length < a or at_most_min_window(t1, e1)  # or the one min_window attempt
        if out.t is not None and out.t > t0:
            assert length >= 0.9 * (out.t - t0) - 2.0 * tol

    # the accepted windows tile [0, t_c]; a window over the blow-up
    # threshold is cut at its first stored time over it
    accepted = [(t0, e0) for t0, e0, out in attempts if isinstance(out, TrajectorySegment)]
    assert [w.t_start for w in report.windows] == [t0 for t0, _ in accepted]
    assert [w.t_end for w in report.windows[:-1]] == [e0 for _, e0 in accepted[:-1]]
    assert [(s.t_start, s.t_end) for s in segments] == [
        (w.t_start, w.t_end) for w in report.windows]
    t_c = report.windows[-1].t_end if report.windows else 0.0
    if segments:
        assert segments[0].t_start == 0.0 and segments[0].start is x0

    last = attempts[-1] if attempts else None
    if kind is Termination.HORIZON_REACHED:
        assert t_c == t_max
    elif kind is Termination.BUDGET_EXHAUSTED:
        assert len(report.windows) == cfg.max_windows and t_c < t_max
        assert isinstance(last[2], TrajectorySegment)
    elif kind is Termination.BLOW_UP_DETECTED:
        assert report.t_c_estimate == t_c
        if isinstance(last[2], TrajectorySegment):  # over the threshold
            threshold = cfg.strong_norm_cap
            if threshold is None:
                threshold = core.BLOWUP_FACTOR * max(x0.strong_norm, core._R0_FLOOR)
            assert segments[-1].strong[-1] > threshold
        else:  # by collapse: right after a failed attempt of at most min_window
            assert isinstance(last[2], WindowFailure) and at_most_min_window(*last[:2])
    else:  # CONTRACTION_FAILURE: no window could be planned or run
        if last is not None and isinstance(last[2], NoContractionWindow):
            pass  # an attempt too short for its grid
        elif last is not None and isinstance(last[2], WindowFailure):
            # its retry, within a float spacing of its start, would end there
            t0, e0, out = last
            since = 0.0 if out.t is None else out.t - t0
            assert max(shrink * (e0 - t0), 0.9 * since, min_window) <= np.spacing(t0)
        else:  # the round's analytic planning failed
            assert fake.plan is not None and not cfg.empirical_mode
            assert fake.plan[3] is not None and fake.accepted >= fake.plan[3]
    if last is not None and isinstance(last[2], SolverError):
        assert kind in (Termination.BLOW_UP_DETECTED, Termination.CONTRACTION_FAILURE)
    return attempts, report


failures = st.tuples(st.just("fail"), st.sampled_from(FAILURES),
                     st.sampled_from([None, "start", "inside", "end"]),
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
actions = st.one_of(st.tuples(st.just("accept"), st.floats(-0.9, 0.99), st.floats(0.5, 4.0)),
                    failures)
plans = st.one_of(st.none(), st.tuples(
    st.floats(0.5, 50.0), st.one_of(st.just(0.0), st.floats(0.0, 2.0)), st.floats(0.1, 10.0),
    st.integers(0, 6), st.sampled_from(["apriori", "b", "c"])))
configs = st.builds(
    SolverConfig, kappa=st.floats(1.5, 4.0), substeps_per_window=st.integers(2, 16),
    max_windows=st.integers(1, 12), window_shrink=st.floats(0.05, 0.9),
    min_window=st.sampled_from([1e-2, 1e-4, 1e-15]), empirical_mode=st.booleans())


def _solve(script, tail, plan, cfg, t_max, r0=1.0, threshold=None):
    if threshold is not None:
        cfg = replace(cfg, strong_norm_cap=threshold * r0)
    fake = ScriptedInstance(script, tail, cfg, plan)
    x0 = NormedPairElement(np.array([1.0]), 1.0, r0)
    return _check_controller(fake, x0, t_max, cfg)


@settings(max_examples=150, deadline=None)
@given(st.lists(actions, max_size=30), st.one_of(st.just(ACCEPT_FLAT), failures), plans,
       configs, st.floats(0.05, 3.0), st.floats(0.5, 2.0),
       st.one_of(st.none(), st.floats(2.0, 30.0)))
# every attempt fails: the min_window attempt ends the run by collapse
@example([], ("fail", CapExceeded, None, 0.5), None, SolverConfig(empirical_mode=True), 1.0,
         1.0, None)
# a remaining horizon just over min_window: the attempt ends on the
# horizon, and its min_window retry ends there again
@example([], ("fail", CapExceeded, None, 0.5), None,
         SolverConfig(empirical_mode=True), 1e-4 * (1.0 + 1e-10), 1.0, None)
# a window to t = 0.25, then retries of 1/8 each, exact powers of 2: one
# of 2^-53 holds 3 distinct grid times there, and one of 2^-56 ends where
# it starts
@example([("fail", CapExceeded, None, 0.5), ACCEPT_FLAT], ("fail", CapExceeded, "start", 0.5),
         None, SolverConfig(substeps_per_window=2, window_shrink=0.125, min_window=1e-17,
                            empirical_mode=True), 2.0, 1.0, None)
# failures at the window's end, at t = 2.25 where a float spacing is
# 4.4e-16: t_end - t_start rounds past an attempt of about 1e-15, and a
# retry at 0.9 x that length would not be shorter than the attempt
@example([("fail", CapExceeded, None, 0.5), ACCEPT_FLAT], ("fail", CapExceeded, "end", 0.5),
         None, SolverConfig(kappa=2.0, substeps_per_window=2, max_windows=2,
                            window_shrink=0.75, min_window=1e-15), 3.0, 1.0, None)
def test_controller_keeps_its_retry_and_verdict_rules(script, tail, plan, cfg, t_max, r0,
                                                      threshold):
    attempts, report = _solve(script, tail, plan, cfg, t_max, r0, threshold)
    event(report.termination.value)
    for _, _, out in attempts:
        if isinstance(out, SolverError):
            event(type(out).__name__ + (" naming no time" if getattr(out, "t", 0) is None else ""))


GOOD_PLAN = (1.0, 0.5, 1.0, None, "apriori")  # planned windows of 0.25 at kappa 2
EMPIRICAL = SolverConfig(empirical_mode=True)
HALF_WAY = ("fail", CapExceeded, "inside", 0.5)  # an empirical first window of 2 retried at 1


@pytest.mark.parametrize("script,tail,plan,cfg,termination", [
    # a failure that names no time: retried at window_shrink x the attempt
    ([("fail", CapExceeded, None, 0.5)], ACCEPT_FLAT, None, EMPIRICAL,
     Termination.HORIZON_REACHED),
    ([("fail", ContractionFailureError, "inside", 0.3)], ACCEPT_FLAT, GOOD_PLAN,
     SolverConfig(), Termination.HORIZON_REACHED),
    ([("fail", IterBudgetExceeded, "end", 0.5)], ACCEPT_FLAT, None, EMPIRICAL,
     Termination.HORIZON_REACHED),
    ([], ("fail", NonFiniteState, "start", 0.5), GOOD_PLAN, SolverConfig(),
     Termination.BLOW_UP_DETECTED),
    ([], ACCEPT_FLAT, GOOD_PLAN, SolverConfig(max_windows=2), Termination.BUDGET_EXHAUSTED),
    ([], ACCEPT_FLAT, (1.0, 0.5, 1.0, 1, "apriori"), SolverConfig(),
     Termination.CONTRACTION_FAILURE),
    ([], ACCEPT_FLAT, (1.0, 0.5, 1.0, 1, "b"), SolverConfig(), Termination.CONTRACTION_FAILURE),
    ([], ACCEPT_FLAT, (1.0, 0.5, 1.0, 0, "c"), SolverConfig(), Termination.CONTRACTION_FAILURE),
    # after a window to t = 1, failures halve the attempt until its 65 grid times repeat
    ([HALF_WAY, ACCEPT_FLAT], ("fail", CapExceeded, None, 0.5), None,
     replace(EMPIRICAL, min_window=1e-17), Termination.CONTRACTION_FAILURE),
    # as in the property's example, a retry that ends where it starts
    ([("fail", CapExceeded, None, 0.5), ACCEPT_FLAT], ("fail", CapExceeded, "start", 0.5), None,
     replace(EMPIRICAL, min_window=1e-17, substeps_per_window=2, window_shrink=0.125),
     Termination.CONTRACTION_FAILURE),
], ids=["no-time-retry", "contraction-failure-retry", "iter-budget-retry", "collapse",
        "budget", "apriori-window-0", "b-not-below-1", "no-contraction-window",
        "too-short-for-its-grid", "retry-that-does-not-advance"])
def test_each_failure_route_ends_in_its_verdict(script, tail, plan, cfg, termination):
    attempts, report = _solve(script, tail, plan, cfg, t_max=2.0)
    assert report.termination is termination
    if script and script[0][0] == "fail":
        assert type(attempts[0][2]) is script[0][1]
