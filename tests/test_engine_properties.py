"""Engine invariants of continuation_solve on random problems.

Every solve, whatever its termination, must return windows that tile
[0, t_end] without gaps, share each junction state by identity and its
row bitwise, store read-only arrays, keep
each accepted window under the strong-norm cap planned from its first
state, end exactly at t_max when it reaches the horizon, report a
blow-up at the end of its last window (a window over the blow-up
threshold is cut at its first stored time over it), and reproduce its
report exactly when run again. In empirical mode every retry after a
failed attempt is shorter than it and at least window_shrink times it.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twonorm import core
from twonorm.core import _R0_FLOOR, SolverConfig, Termination, WindowFailure, continuation_solve
from twonorm.grids import from_callable
from twonorm.instances import (
    make_advect_instance,
    make_burgers_instance,
    make_element,
    make_linear_ode_instance,
    make_riccati_instance,
)

TWO_PI = 2.0 * math.pi


def _check_invariants(inst, x0, t_max, cfg, threshold):
    if threshold is not None and x0.strong_norm > 0:  # a blow-up threshold within reach
        cfg = replace(cfg, strong_norm_cap=threshold * x0.strong_norm)
    segments, report = continuation_solve(inst, x0, t_max, cfg)
    assert len(segments) == len(report.windows)
    if segments:
        assert segments[0].states[0] is x0
        assert segments[0].t_start == 0.0
    for a, b in zip(segments, segments[1:]):
        assert b.t_start == a.t_end
        assert b.states[0] is a.states[-1]
        assert b.values[0].tobytes() == a.values[-1].tobytes()
    for seg, rec in zip(segments, report.windows):
        assert not any(arr.flags.writeable for arr in (seg.values, seg.weak, seg.strong))
        assert (rec.t_start, rec.t_end) == (seg.t_start, seg.t_end)
        r0 = seg.states[0].strong_norm
        assert float(np.max(seg.strong)) <= cfg.kappa * max(r0, _R0_FLOOR) * (1.0 + 1e-9)
    if report.termination is Termination.HORIZON_REACHED:
        assert segments[-1].t_end == t_max
    if report.termination is Termination.BLOW_UP_DETECTED:  # t_c ends the last window
        assert report.t_c_estimate == (report.windows[-1].t_end if report.windows else 0.0)
    blowup_cap = cfg.strong_norm_cap
    if blowup_cap is None:
        blowup_cap = 1e6 * max(x0.strong_norm, _R0_FLOOR)
    if segments and segments[-1].strong[-1] > blowup_cap:  # cut at the first crossing
        assert report.termination is Termination.BLOW_UP_DETECTED
        assert np.all(segments[-1].strong[1:-1] <= blowup_cap)
        assert report.windows[-1].end_strong_norm == segments[-1].strong[-1]
    _, again = continuation_solve(inst, x0, t_max, cfg)
    assert again.to_dict() == report.to_dict()


solver_configs = st.builds(
    SolverConfig,
    kappa=st.floats(1.5, 4.0),
    substeps_per_window=st.integers(2, 16),
    max_windows=st.integers(1, 24),
    empirical_mode=st.booleans(),
)
thresholds = st.one_of(st.none(), st.floats(2.0, 20.0))  # times the initial strong norm


# long horizons put the window ends where floats are far apart and make the
# analytic a-priori bound overflow to +inf, which must not warn
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0),
       st.integers(1, 3), st.integers(0, 2**31 - 1),
       st.one_of(st.floats(0.05, 3.0), st.floats(1e3, 1e6)), solver_configs, thresholds)
# a bisection form of the cap-crossing fit reached the end of its bracket
# on this draw and divided by zero there
@example(0.0, -0.875, -0.5, 1, 3599, 1875.0,
         SolverConfig(kappa=1.5, substeps_per_window=4, max_windows=7, empirical_mode=True), None)
def test_linear_ode_solves_keep_engine_invariants(a, b, forcing, dimension, seed, t_max, cfg,
                                                  threshold):
    inst = make_linear_ode_instance(a, b, forcing, dimension)
    x0 = make_element(inst, np.random.default_rng(seed).uniform(-2.0, 2.0, dimension))
    _check_invariants(inst, x0, t_max, cfg, threshold)


@settings(max_examples=60)
@given(st.sampled_from([make_advect_instance, make_burgers_instance]), st.integers(16, 48),
       st.sampled_from(["linear", "cubic"]), st.floats(-1.5, 1.5), st.floats(0.05, 3.0),
       solver_configs, thresholds)
def test_small_transport_solves_keep_engine_invariants(make, n, scheme, amplitude, t_max, cfg,
                                                       threshold):
    inst = make(n, interpolation=scheme)
    x0 = make_element(inst, from_callable(lambda x: amplitude * np.sin(x), n, TWO_PI))
    _check_invariants(inst, x0, t_max, cfg, threshold)


def _attempts(inst, x0, t_max, cfg):
    """Run a solve and list its window attempts as (t_start, t_end, failure or segment)."""
    attempts = []
    picard_window = core.picard_window

    def recorded(instance, x, plan, config):
        try:
            out = picard_window(instance, x, plan, config)
        except WindowFailure as exc:
            attempts.append((plan.t_start, plan.t_end, exc))
            raise
        attempts.append((plan.t_start, plan.t_end, out[0]))
        return out

    with mock.patch.object(core, "picard_window", recorded):
        _, report = continuation_solve(inst, x0, t_max, cfg)
    return attempts, report


@settings(max_examples=60)
@given(st.one_of(
           st.tuples(st.just("linear"), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                     st.floats(-1.0, 1.0), st.floats(-2.0, 2.0), st.floats(0.05, 3.0)),
           st.tuples(st.just("riccati"), st.floats(0.25, 4.0))),
       st.floats(1.5, 4.0), st.integers(2, 16), st.floats(0.1, 0.9))
def test_empirical_retries_land_between_shrink_and_the_failed_attempt(problem, kappa, substeps,
                                                                     shrink):
    # a failed attempt is retried at max(shrink x it, 0.9 x its way to the
    # crossing), always shorter than it; after an accepted window the next
    # round proposes min(2 x it, 0.9 x the fitted time to the next cap
    # crossing), held at min_window or more, or without a fit its length
    # again after a retry and twice it otherwise
    if problem[0] == "linear":
        _, a, b, forcing, x, t_max = problem
        inst = make_linear_ode_instance(a, b, forcing)
    else:  # x' = x^2 blows up at 1 / x
        _, x = problem
        inst, t_max = make_riccati_instance(), 2.0 / x
    cfg = SolverConfig(kappa=kappa, substeps_per_window=substeps, window_shrink=shrink,
                       empirical_mode=True)
    attempts, report = _attempts(inst, make_element(inst, np.array([x])), t_max, cfg)
    assert isinstance(report.termination, Termination)
    retried = False
    for (t0, t_end, out), (t1, t1_end, _) in zip(attempts, attempts[1:]):
        prev, length = t_end - t0, t1_end - t1
        if isinstance(out, WindowFailure):
            assert t1 == t0
            assert shrink * prev * (1.0 - 1e-9) <= length < prev
            if isinstance(out, core.CapExceeded):
                assert t0 < out.t <= t_end and out.value > out.limit
            retried = True
        else:
            assert t1 == t_end
            reach = core._cap_crossing_time(out.times, out.strong, kappa)
            if reach is None:
                proposal = (1.0 if retried else 2.0) * prev
            else:
                proposal = max(cfg.min_window, min(2.0 * prev, 0.9 * reach))
            assert length == pytest.approx(min(t_max - t1, proposal), rel=1e-9)
            retried = False
