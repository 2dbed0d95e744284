"""End-to-end solves against exact solutions.

Each property runs continuation_solve with the default SolverConfig (or
only its mode switched) and compares the result with a closed form or an
independent oracle: Riccati's blow-up time 1/x0, the Burgers profile from
oracles.burgers_profile_at, and the forced linear ODE's exponential.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twonorm.core import SolverConfig, Termination, continuation_solve
from twonorm.grids import from_callable
from twonorm.instances import (
    make_burgers_instance,
    make_element,
    make_linear_ode_instance,
    make_riccati_instance,
)
from twonorm.oracles import burgers_profile_at, sine_profile

TWO_PI = 2.0 * math.pi


@settings(max_examples=40, deadline=None)
@given(st.floats(0.25, 8.0))
def test_riccati_blow_up_is_detected_just_before_one_over_x0(x0):
    # x' = x^2 from x0 blows up at 1/x0; detection stops at the last
    # accepted window, which ends a little early (by at most 1.4e-3
    # relative over 42 draws)
    inst = make_riccati_instance()
    _, report = continuation_solve(inst, make_element(inst, np.array([x0])), 3.0 / x0,
                                   SolverConfig())
    assert report.termination is Termination.BLOW_UP_DETECTED
    assert (1.0 / x0) * (1.0 - 2e-3) <= report.t_c_estimate <= 1.0 / x0


@settings(max_examples=20, deadline=None)
@given(st.floats(0.5, 2.0))
def test_burgers_matches_the_characteristic_solution_before_the_shock(amplitude):
    # the sine of this amplitude steepens into a shock at t = 1/amplitude;
    # at half that time the n = 256 solve is within about 4.2e-5 x amplitude
    # of it
    n, t_max = 256, 0.5 / amplitude
    profile = sine_profile().scaled(amplitude)
    inst = make_burgers_instance(n)
    segments, report = continuation_solve(
        inst, make_element(inst, from_callable(profile.value, n, TWO_PI)), t_max, SolverConfig())
    assert report.termination is Termination.HORIZON_REACHED
    final = segments[-1].states[-1].state
    oracle = burgers_profile_at(profile, t_max, final.nodes())
    assert float(np.max(np.abs(final.values - oracle))) <= 2e-4


def _forced_linear_exact(a, b, c, x0, t):
    """x(t) of x' = (a + b) x + c from x0: (x0 + c/lam) e^(lam t) - c/lam, lam = a + b.

    Below |lam| = 1e-15 it is x0 + c t: c expm1(lam t) / lam loses its
    digits at a subnormal lam, and the terms dropped stay under 6e-15
    for |x0| <= 2, |c| <= 1 and t <= 2.
    """
    lam = a + b
    if abs(lam) < 1e-15:
        return x0 + c * t
    return x0 * np.exp(lam * t) + c * np.expm1(lam * t) / lam


@settings(max_examples=60, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0),
       st.sampled_from([-1.0, 1.0]), st.floats(0.5, 2.0), st.booleans())
# a subnormal a + b, where the closed form's expm1(lam t) / lam read 0.5
# (empirical) and 0.167 (analytic) relative error against an exact solve
@example(0.0, 5e-324, 1.0, -1.0, 1.0, True)
@example(5e-324, 0.0, 1.0, 1.0, 1.0, False)
def test_forced_linear_ode_matches_its_closed_form(a, b, c, sign, size, empirical):
    # the fixed point of x' = a y + b x + c is x' = (a + b) x + c
    x0, t_max = sign * size, 2.0
    if not empirical:
        # Excluded: a solution that crosses zero. In analytic mode the cap
        # radius shrinks with the strong norm, so a run whose norm falls
        # towards 0 ends CONTRACTION_FAILURE there (ROADMAP item 8, the
        # small end). The solution is monotone, so it keeps x0's sign on
        # [0, t_max] exactly when it has that sign at t_max.
        assume(_forced_linear_exact(a, b, c, x0, t_max) * x0 > 0.0)
    inst = make_linear_ode_instance(a, b, c)
    segments, report = continuation_solve(inst, make_element(inst, np.array([x0])), t_max,
                                          SolverConfig(empirical_mode=empirical))
    assert report.termination is Termination.HORIZON_REACHED
    times = np.concatenate([seg.times for seg in segments])
    exact = _forced_linear_exact(a, b, c, x0, times)
    values = np.concatenate([seg.values[:, 0] for seg in segments])
    rel_err = np.max(np.abs(values - exact)) / np.max(np.abs(exact))
    # worst over 300 random draws and the corners of the box: 1.1e-6
    # (empirical, one window of 64 substeps at a + b = -4) and 1.0e-9 (analytic)
    assert rel_err <= (3e-6 if empirical else 1e-8)
