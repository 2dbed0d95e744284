import dataclasses
import math

import numpy as np
import pytest

from twonorm.core import (
    AprioriBound,
    InvalidCap,
    NoContractionWindow,
    NonMonotone,
    NormedPairElement,
    SolveReport,
    SolverConfig,
    StabilityBounds,
    Termination,
    TrajectorySegment,
    WindowPlan,
    WindowRecord,
    estimate_theta_empirical,
    select_contraction_window,
    select_window,
)
from twonorm.instances import make_decay_instance


# -- select_window -------------------------------------------------------------

def test_select_window_linear_growth():
    a = AprioriBound(eval=lambda t, r, m: r + t * m)
    t1 = select_window(a, 1.0, 2.0, 10.0, tol_t=1e-10)
    assert t1 == pytest.approx(0.5, abs=1e-10)
    assert a.eval(t1, 1.0, 2.0) <= 2.0
    assert a.eval(t1 + 1e-10, 1.0, 2.0) > 2.0


def test_select_window_exponential_growth():
    a = AprioriBound(eval=lambda t, r, m: r * math.exp(m * t))
    t1 = select_window(a, 1.0, math.e, 10.0)
    assert t1 == pytest.approx(1.0 / math.e, abs=1e-8)


def test_select_window_bound_never_binds():
    a = AprioriBound(eval=lambda t, r, m: r)
    assert select_window(a, 1.0, 2.0, 10.0) == 10.0


def test_select_window_stops_when_no_float_is_left_to_bisect():
    # x' = -1e-9 x with cap 2: the bound crosses near t = 6.9e8, where
    # adjacent floats lie about 1.2e-7 apart, wider than tol_t
    inner = make_decay_instance(rate=1e-9).bounds.apriori
    calls = 0

    def counted(t, r, m):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise RuntimeError("bisection did not terminate")
        return inner(t, r, m)

    t1 = select_window(AprioriBound(eval=counted), 1.0, 2.0, 1e9)
    assert 0.0 < t1 < 1e9
    assert inner(t1, 1.0, 2.0) <= 2.0


def test_select_window_invalid_cap():
    a = AprioriBound(eval=lambda t, r, m: r + t * m)
    with pytest.raises(InvalidCap):
        select_window(a, 1.0, 1.0, 10.0)
    with pytest.raises(InvalidCap):
        select_window(a, 2.0, 1.5, 10.0)


def test_select_window_detects_decreasing_bound():
    a = AprioriBound(eval=lambda t, r, m: r + (10.0 - t) * m)
    with pytest.raises(NonMonotone):
        select_window(a, 1.0, 20.0, 10.0)


# -- select_contraction_window ---------------------------------------------------

def test_contraction_window_symmetric_bounds():
    bounds = StabilityBounds(b=lambda t, r: t * r, c=lambda t, r: t * r)
    t2 = select_contraction_window(bounds, 1.0, 1.0, 10.0, 0.5)
    assert t2 == pytest.approx(0.25, abs=1e-9)
    # the returned window satisfies both sampled conditions with theta1 = 0.5
    radii = np.geomspace(2e-6, 2.0, 32)
    assert max(bounds.b(t2, r) / r for r in radii) <= 0.5 + 1e-9
    radii = np.geomspace(1e-6, 1.0, 32)
    assert max(bounds.c(t2, r) / (r * 0.5) for r in radii) <= 0.5 + 1e-9


def test_contraction_window_vanishing_b():
    bounds = StabilityBounds(b=lambda t, r: 0.0, c=lambda t, r: t * r)
    t2 = select_contraction_window(bounds, 1.0, 1.0, 10.0, 0.9)
    assert t2 == pytest.approx(0.9, abs=1e-9)


def test_contraction_window_time_independent_b():
    bounds = StabilityBounds(b=lambda t, r: 0.5 * r, c=lambda t, r: t * r)
    t2 = select_contraction_window(bounds, 1.0, 1.0, 10.0, 0.5)
    assert t2 == pytest.approx(0.25, abs=1e-9)


def test_contraction_window_capped_by_t1():
    bounds = StabilityBounds(b=lambda t, r: 0.0, c=lambda t, r: t * r)
    t2 = select_contraction_window(bounds, 1.0, 1.0, 0.3, 0.9)
    assert t2 == 0.3


def test_contraction_window_swap_roles_symmetric_identical():
    bounds = StabilityBounds(b=lambda t, r: t * r, c=lambda t, r: t * r)
    plain = select_contraction_window(bounds, 1.0, 1.0, 10.0, 0.5)
    swapped = select_contraction_window(bounds, 1.0, 1.0, 10.0, 0.5, swap_roles=True)
    assert plain == swapped


def test_contraction_window_swap_equals_manual_exchange():
    bounds = StabilityBounds(b=lambda t, r: 0.3 * t * r, c=lambda t, r: 2.0 * t * r)
    exchanged = StabilityBounds(b=bounds.c, c=bounds.b)
    swapped = select_contraction_window(bounds, 1.5, 1.0, 10.0, 0.4, swap_roles=True)
    manual = select_contraction_window(exchanged, 1.5, 1.0, 10.0, 0.4)
    assert swapped == manual  # exact equality, same code path


def test_contraction_window_infeasible_bounds_raise():
    # c/R does not vanish for small t: no window can exist
    bounds = StabilityBounds(b=lambda t, r: 0.0, c=lambda t, r: r)
    with pytest.raises(NoContractionWindow):
        select_contraction_window(bounds, 1.0, 1.0, 10.0, 0.5)


def test_contraction_window_b_above_one_raises():
    bounds = StabilityBounds(b=lambda t, r: 1.5 * r, c=lambda t, r: t * r)
    with pytest.raises(NoContractionWindow):
        select_contraction_window(bounds, 1.0, 1.0, 10.0, 0.5)


def test_contraction_window_strong_b_level_still_works():
    # b sits at 0.8 R: theta1 must rise above the target to make room
    bounds = StabilityBounds(b=lambda t, r: 0.8 * r, c=lambda t, r: t * r)
    t2 = select_contraction_window(bounds, 1.0, 1.0, 10.0, 0.5)
    assert 0.0 < t2 <= 10.0
    # conditions hold with theta1 = 0.8
    assert t2 / (1.0 - 0.8) <= 0.5 + 1e-9


# -- estimate_theta_empirical ----------------------------------------------------

def test_theta_empirical_takes_max_of_last_three():
    assert estimate_theta_empirical([0.4, 0.3, 0.25]) == 0.4
    assert estimate_theta_empirical([0.9, 0.2, 0.8, 0.7]) == 0.8


def test_theta_empirical_floor_binds():
    assert estimate_theta_empirical([0.05]) == 0.1


def test_theta_empirical_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        estimate_theta_empirical([])
    with pytest.raises(ValueError):
        estimate_theta_empirical([-0.1])


# -- domain type validation ------------------------------------------------------

def test_normed_pair_element_validation():
    NormedPairElement("anything", 1.0, math.inf)  # inf strong norm is legal
    with pytest.raises(ValueError):
        NormedPairElement("x", -1.0, 1.0)
    with pytest.raises(ValueError):
        NormedPairElement("x", math.inf, 1.0)
    with pytest.raises(ValueError):
        NormedPairElement("x", 0.0, -2.0)


def test_trajectory_segment_validation():
    e = NormedPairElement(0.0, 0.0, 0.0)
    TrajectorySegment(times=np.linspace(0, 1, 5), states=(e,) * 5)
    TrajectorySegment(times=np.array([0.0, 1.0, 1.5]), states=(e,) * 3)  # non-uniform
    with pytest.raises(ValueError):
        TrajectorySegment(times=np.array([0.0, 1.0, 0.5]), states=(e,) * 3)
    with pytest.raises(ValueError):
        TrajectorySegment(times=np.linspace(0, 1, 5), states=(e,) * 4)
    with pytest.raises(ValueError):
        TrajectorySegment(times=np.array([1.0]), states=(e,))


def test_short_window_late_in_time_counts_as_uniform():
    # the last 4.3e-6 of a horizon at 1.7e5: adjacent floats there are 2.9e-11
    # apart, so linspace's spacings differ by far more than 1e-6 relative
    e = NormedPairElement(0.0, 0.0, 0.0)
    times = np.linspace(169999.99999571446, 170000.0, 65)
    assert TrajectorySegment(times=times, states=(e,) * 65).t_end == 170000.0


def test_window_plan_validation():
    assert [f.name for f in dataclasses.fields(WindowPlan)] == ["K", "t_start", "t_end"]
    WindowPlan(K=2.0, t_start=0.0, t_end=0.5)
    WindowPlan(K=2.0, t_start=np.nextafter(6e4, 0.0), t_end=6e4)  # one float apart
    for t_start, t_end in ((0.5, 0.5), (1.0, 0.5), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="t_start < t_end"):
            WindowPlan(K=2.0, t_start=t_start, t_end=t_end)
    with pytest.raises(ValueError):
        WindowPlan(K=0.0, t_start=0.0, t_end=0.5)


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(kappa=1.0)
    with pytest.raises(ValueError):
        SolverConfig(theta_target=0.0)
    with pytest.raises(ValueError):
        SolverConfig(window_shrink=1.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_windows=0)
    with pytest.raises(ValueError):
        SolverConfig(strong_norm_cap=-1.0)


def test_solve_report_round_trip():
    rep = SolveReport(
        windows=(
            WindowRecord(0.0, 0.5, 3, (0.2, 0.1), 1.5),
            WindowRecord(0.5, 0.75, 4, (0.3,), 2.5),
        ),
        termination=Termination.BLOW_UP_DETECTED,
        t_c_estimate=0.75,
    )
    assert SolveReport.from_dict(rep.to_dict()) == rep

    rep2 = SolveReport(windows=(), termination=Termination.HORIZON_REACHED)
    assert SolveReport.from_dict(rep2.to_dict()) == rep2


def test_solve_report_blowup_needs_t_c():
    with pytest.raises(ValueError):
        SolveReport(windows=(), termination=Termination.BLOW_UP_DETECTED)
    with pytest.raises(ValueError):
        SolveReport(
            windows=(WindowRecord(0.0, 1.0, 2, (), 1.0),),
            termination=Termination.BLOW_UP_DETECTED,
            t_c_estimate=0.5,  # precedes the last window end
        )
