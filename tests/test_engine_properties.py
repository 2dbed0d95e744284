"""Engine invariants of continuation_solve on random problems.

Every solve, whatever its termination, must return windows that tile
[0, t_end] without gaps, share each junction state by identity, keep
each accepted window under the strong-norm cap planned from its first
state, end exactly at t_max when it reaches the horizon, and reproduce
its report exactly when run again.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm.core import _R0_FLOOR, SolverConfig, Termination, continuation_solve
from twonorm.grids import from_callable
from twonorm.instances import (
    make_advect_instance,
    make_burgers_instance,
    make_element,
    make_linear_ode_instance,
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
    for seg, rec in zip(segments, report.windows):
        assert (rec.t_start, rec.t_end) == (seg.t_start, seg.t_end)
        r0 = seg.states[0].strong_norm
        assert seg.sup_strong() <= cfg.kappa * max(r0, _R0_FLOOR) * (1.0 + 1e-9)
    if report.termination is Termination.HORIZON_REACHED:
        assert segments[-1].t_end == t_max
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
@settings(max_examples=60, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0),
       st.integers(1, 3), st.integers(0, 2**31 - 1),
       st.one_of(st.floats(0.05, 3.0), st.floats(1e3, 1e6)), solver_configs, thresholds)
def test_linear_ode_solves_keep_engine_invariants(a, b, forcing, dimension, seed, t_max, cfg,
                                                  threshold):
    inst = make_linear_ode_instance(a, b, forcing, dimension)
    x0 = make_element(inst, np.random.default_rng(seed).uniform(-2.0, 2.0, dimension))
    _check_invariants(inst, x0, t_max, cfg, threshold)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([make_advect_instance, make_burgers_instance]), st.integers(16, 48),
       st.sampled_from(["linear", "cubic"]), st.floats(-1.5, 1.5), st.floats(0.05, 3.0),
       solver_configs, thresholds)
def test_small_transport_solves_keep_engine_invariants(make, n, scheme, amplitude, t_max, cfg,
                                                       threshold):
    inst = make(n, interpolation=scheme)
    x0 = make_element(inst, from_callable(lambda x: amplitude * np.sin(x), n, TWO_PI))
    _check_invariants(inst, x0, t_max, cfg, threshold)
