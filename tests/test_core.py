import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm.core import (
    _RADIUS_SAMPLES,
    AprioriBound,
    CapExceeded,
    InvalidCap,
    NoContractionWindow,
    NonFiniteState,
    NonMonotone,
    NormedPairElement,
    SolveReport,
    SolverConfig,
    StabilityBounds,
    Termination,
    TrajectorySegment,
    WindowPlan,
    WindowRecord,
    _bisect,
    continuation_solve,
    estimate_theta_empirical,
    reject_rows,
    select_contraction_window,
    select_window,
)
from twonorm.instances import make_decay_instance, make_element


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


@pytest.mark.parametrize("call,match", [
    (lambda: select_window(AprioriBound(eval=lambda t, r, m: r + t * m), 1.0, 2.0, 0.0),
     "t_max must be positive"),
    (lambda: select_contraction_window(
        StabilityBounds(b=lambda t, r: t * r, c=lambda t, r: t * r), 1.0, 0.0, 0.5),
     "t1 must be positive"),
    (lambda: continuation_solve(make_decay_instance(),
                                NormedPairElement(np.array([1.0]), 1.0, math.inf), 1.0,
                                SolverConfig()),
     "initial state must have a finite strong norm"),
], ids=["select_window-t_max-0", "select_contraction_window-t1-0", "solve-from-inf-strong-norm"])
def test_engine_entry_points_reject_degenerate_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# -- select_contraction_window ---------------------------------------------------

def test_contraction_window_symmetric_bounds():
    bounds = StabilityBounds(b=lambda t, r: t * r, c=lambda t, r: t * r)
    t2 = select_contraction_window(bounds, 1.0, 10.0, 0.5)
    assert t2 == pytest.approx(0.25, abs=1e-9)
    # the returned window satisfies both sampled conditions with theta1 = 0.5
    radii = np.geomspace(2e-6, 2.0, 32)
    assert max(bounds.b(t2, r) / r for r in radii) <= 0.5 + 1e-9
    radii = np.geomspace(1e-6, 1.0, 32)
    assert max(bounds.c(t2, r) / (r * 0.5) for r in radii) <= 0.5 + 1e-9


def test_contraction_window_vanishing_b():
    bounds = StabilityBounds(b=lambda t, r: 0.0, c=lambda t, r: t * r)
    t2 = select_contraction_window(bounds, 1.0, 10.0, 0.9)
    assert t2 == pytest.approx(0.9, abs=1e-9)


def test_contraction_window_time_independent_b():
    bounds = StabilityBounds(b=lambda t, r: 0.5 * r, c=lambda t, r: t * r)
    t2 = select_contraction_window(bounds, 1.0, 10.0, 0.5)
    assert t2 == pytest.approx(0.25, abs=1e-9)


def test_contraction_window_capped_by_t1():
    bounds = StabilityBounds(b=lambda t, r: 0.0, c=lambda t, r: t * r)
    t2 = select_contraction_window(bounds, 1.0, 0.3, 0.9)
    assert t2 == 0.3


def test_contraction_window_swap_roles_symmetric_identical():
    bounds = StabilityBounds(b=lambda t, r: t * r, c=lambda t, r: t * r)
    plain = select_contraction_window(bounds, 1.0, 10.0, 0.5)
    swapped = select_contraction_window(bounds, 1.0, 10.0, 0.5, swap_roles=True)
    assert plain == swapped


def test_contraction_window_swap_equals_manual_exchange():
    bounds = StabilityBounds(b=lambda t, r: 0.3 * t * r, c=lambda t, r: 2.0 * t * r)
    exchanged = StabilityBounds(b=bounds.c, c=bounds.b)
    swapped = select_contraction_window(bounds, 1.5, 10.0, 0.4, swap_roles=True)
    manual = select_contraction_window(exchanged, 1.5, 10.0, 0.4)
    assert swapped == manual  # exact equality, same code path


def test_contraction_window_infeasible_bounds_raise():
    # c/R does not vanish for small t: no window can exist
    bounds = StabilityBounds(b=lambda t, r: 0.0, c=lambda t, r: r)
    with pytest.raises(NoContractionWindow):
        select_contraction_window(bounds, 1.0, 10.0, 0.5)


def test_contraction_window_b_above_one_raises():
    bounds = StabilityBounds(b=lambda t, r: 1.5 * r, c=lambda t, r: t * r)
    with pytest.raises(NoContractionWindow):
        select_contraction_window(bounds, 1.0, 10.0, 0.5)


def test_contraction_window_strong_b_level_still_works():
    # b sits at 0.8 R: theta1 must rise above the target to make room
    bounds = StabilityBounds(b=lambda t, r: 0.8 * r, c=lambda t, r: t * r)
    t2 = select_contraction_window(bounds, 1.0, 10.0, 0.5)
    assert 0.0 < t2 <= 10.0
    # conditions hold with theta1 = 0.8
    assert t2 / (1.0 - 0.8) <= 0.5 + 1e-9


def _full_max_contraction_window(bounds, k_cap, t1, theta_target, swap_roles, min_t):
    """The contraction-window rule with full maxima, the reference for the early-exit
    b-check: every feasibility probe takes the max over all radii of both bounds."""
    b_fn, c_fn = (bounds.c, bounds.b) if swap_roles else (bounds.b, bounds.c)
    radii_b = np.geomspace(2.0 * k_cap * 1e-6, 2.0 * k_cap, _RADIUS_SAMPLES)
    radii_c = np.geomspace(k_cap * 1e-6, k_cap, _RADIUS_SAMPLES)

    def sup_ratio(fn, t, radii):
        return max(fn(t, float(r)) / float(r) for r in radii)

    t_tiny = t1 * 1e-9
    probe_ts = np.linspace(t_tiny, t1, 9)
    b_vanishes = all(b_fn(float(t), float(r)) == 0.0 for t in probe_ts for r in radii_b)
    beta_tiny = 0.0 if b_vanishes else sup_ratio(b_fn, t_tiny, radii_b)
    if b_vanishes:
        theta1_candidates = [0.0]
    else:
        first = max(theta_target, beta_tiny)
        theta1_candidates = [first] if first < 1.0 else []
        blend = 0.5 * (max(theta_target, beta_tiny) + 1.0)
        if blend < 1.0:
            theta1_candidates.append(blend)
    if not theta1_candidates:
        raise NoContractionWindow("b")
    for theta1 in theta1_candidates:
        def feasible(t):
            if sup_ratio(b_fn, t, radii_b) > theta1:
                return False
            return sup_ratio(c_fn, t, radii_c) <= theta_target * (1.0 - theta1)

        if feasible(t1):
            return t1
        floor = max(min_t, t1 * 1e-12)
        if not feasible(floor):
            continue
        return _bisect(feasible, floor, t1, t1 * 1e-12)
    raise NoContractionWindow("window")


@st.composite
def power_law_bounds(draw):
    """g(t, R) = a t^p R^q, made nan, +inf or -inf on the radii below or above a cut."""
    a = draw(st.sampled_from([0.0, 0.05, 0.5, 0.8, 1.0, 1.5]) | st.floats(0.0, 3.0))
    p = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0))
    q = draw(st.sampled_from([1.0]) | st.floats(0.5, 1.5))
    bad = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    cut = draw(st.floats(1e-7, 3.0))
    below = draw(st.booleans())

    def g(t, r):
        if bad is not None and (r < cut) == below:
            return bad
        return a * t ** p * r ** q
    return g


@settings(max_examples=300, deadline=None)
@given(b=power_law_bounds(), c=power_law_bounds(), k_cap=st.floats(1e-3, 1e3),
       t1=st.floats(1e-3, 50.0), theta_target=st.floats(0.05, 0.95),
       swap_roles=st.booleans(), min_t=st.sampled_from([0.0, 1e-4]))
def test_contraction_window_equals_the_full_max_rule(b, c, k_cap, t1, theta_target,
                                                     swap_roles, min_t):
    bounds = StabilityBounds(b=b, c=c)

    def outcome(select):
        try:
            return select(bounds, k_cap, t1, theta_target, swap_roles, min_t=min_t).hex()
        except NoContractionWindow:
            return "NoContractionWindow"
    assert outcome(select_contraction_window) == outcome(_full_max_contraction_window)


def test_contraction_window_b_check_stops_at_the_first_radius_over():
    calls = collections.Counter()

    def b(t, r):
        calls[t] += 1
        return t * r
    t2 = select_contraction_window(StabilityBounds(b=b, c=lambda t, r: 0.0), 1.0, 10.0, 0.5)
    assert t2 == pytest.approx(0.5, abs=1e-9)
    # b/R = t at every radius: a probe over theta1 = 0.5 stops after one radius,
    # a probe under it reads all of them
    over = [t for t in calls if t > 0.5 * (1.0 + 1e-9)]
    assert len(over) > 5 and all(calls[t] == 1 for t in over)
    assert all(calls[t] == _RADIUS_SAMPLES for t in calls if 1e-6 < t < 0.5 * (1.0 - 1e-9))


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


# -- reject_rows -----------------------------------------------------------------

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("weak,strong,cap,error,row", [
    ([1.0, 1.0, 1.0], [1.0, 2.0, 1.0], 2.0, None, None),
    ([1.0, INF, NAN], [9.0, 9.0, 9.0], None, NonFiniteState, 1),
    ([1.0, 1.0, NAN], [1.0, NAN, 1.0], 2.0, CapExceeded, 1),
    ([1.0, 1.0, NAN], [1.0, 3.0, NAN], 2.0, CapExceeded, 1),
    ([1.0, NAN, 1.0], [1.0, 3.0, 3.0], 2.0, NonFiniteState, 1),
    ([1.0, 1.0, INF], [1.0, 1.0, 1.0], 2.0, NonFiniteState, 2),
    ([1.0, 1.0, NAN], [1.0, 1.0, 1.0], 2.0, NonFiniteState, 2),
], ids=["at-the-cap", "no-cap", "nan-strong", "earliest-row", "both", "inf-weak", "nan-weak"])
def test_reject_rows_raises_for_the_earliest_bad_row(weak, strong, cap, error, row):
    times = np.array([0.0, 0.25, 0.5])
    if error is None:
        reject_rows(times, np.array(weak), np.array(strong), cap)
        return
    with pytest.raises(error) as exc:
        reject_rows(times, np.array(weak), np.array(strong), cap)
    assert str(exc.value).endswith(f"t={times[row]}")


@pytest.mark.parametrize("weak,strong,cap,error,message,fields", [
    ([1.0, 1.0, INF], [1.0, 1.0, 1.0], 2.0, NonFiniteState,
     "state overflowed at t=0.5", (0.5, INF, None)),
    ([1.0, -INF, 1.0], [1.0, 1.0, 1.0], None, NonFiniteState,
     "state overflowed at t=0.25", (0.25, -INF, None)),
    ([1.0, 1.0, NAN], [1.0, 1.0, 1.0], 2.0, NonFiniteState,
     "state is not a number at t=0.5", (0.5, NAN, None)),
    ([1.0, 1.0, 1.0], [1.0, 3.0, 4.0], 2.0, CapExceeded,
     "strong norm 3.0 exceeds cap 2.0 by t=0.25", (0.25, 3.0, 2.0)),
    ([1.0, 1.0, 1.0], [1.0, NAN, 1.0], 2.0, CapExceeded,
     "strong norm nan exceeds cap 2.0 by t=0.25", (0.25, NAN, 2.0)),
], ids=["inf-weak", "minus-inf-weak", "nan-weak", "over-cap", "nan-strong"])
def test_reject_rows_failure_names_the_row_in_words_and_fields(weak, strong, cap, error,
                                                              message, fields):
    times = np.array([0.0, 0.25, 0.5])
    with pytest.raises(error) as exc:
        reject_rows(times, np.array(weak), np.array(strong), cap)
    assert str(exc.value) == message
    got = (exc.value.t, exc.value.value, exc.value.limit)
    assert [repr(v) for v in got] == [repr(v) for v in fields]  # repr: nan equals nan


# -- domain type validation ------------------------------------------------------

def test_normed_pair_element_validation():
    NormedPairElement("anything", 1.0, math.inf)  # inf strong norm is legal
    with pytest.raises(ValueError):
        NormedPairElement("x", -1.0, 1.0)
    with pytest.raises(ValueError):
        NormedPairElement("x", math.inf, 1.0)
    with pytest.raises(ValueError):
        NormedPairElement("x", 0.0, -2.0)


def _zero_segment(times, rows=None):
    """A segment of zero states on times, with rows stored states (default: one per time)."""
    rows = len(times) if rows is None else rows
    e = NormedPairElement(np.zeros(1), 0.0, 0.0)
    return TrajectorySegment(times, np.zeros((rows, 1)), np.zeros(rows), np.zeros(rows), e)


def test_trajectory_segment_validation():
    _zero_segment(np.linspace(0, 1, 5))
    _zero_segment(np.array([0.0, 1.0, 1.5]))  # non-uniform
    with pytest.raises(ValueError):
        _zero_segment(np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        _zero_segment(np.linspace(0, 1, 5), rows=4)
    with pytest.raises(ValueError):
        _zero_segment(np.array([1.0]))
    e = NormedPairElement(np.zeros(1), 0.0, 0.0)
    with pytest.raises(ValueError, match="length mismatch"):  # one norm short
        TrajectorySegment(np.linspace(0, 1, 3), np.zeros((3, 1)), np.zeros(3), np.zeros(2), e)


def test_short_window_late_in_time_counts_as_uniform():
    # the last 4.3e-6 of a horizon at 1.7e5: adjacent floats there are 2.9e-11
    # apart, so linspace's spacings differ by far more than 1e-6 relative
    times = np.linspace(169999.99999571446, 170000.0, 65)
    assert _zero_segment(times).t_end == 170000.0


def test_segment_end_is_the_last_state_and_built_alone():
    e = NormedPairElement(np.zeros(1), 0.0, 0.0)
    seg = TrajectorySegment(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [2.0], [-3.0]]),
                            np.array([0.0, 2.0, 3.0]), np.array([0.0, 2.0, 3.0]), e)
    end = seg.end
    assert "states" not in vars(seg)
    assert (end.state.tolist(), end.weak_norm, end.strong_norm) == ([-3.0], 3.0, 3.0)
    assert type(end.weak_norm) is float and type(end.strong_norm) is float
    assert seg.end is end and seg.states[-1] is end and seg.states[0] is e
    assert [s.strong_norm for s in seg.states] == [0.0, 2.0, 3.0]
    two = TrajectorySegment(np.array([0.0, 1.0]), np.zeros((2, 1)), np.zeros(2), np.zeros(2), e)
    assert two.states == (e, two.end) and two.states[1] is two.end


def test_decay_solve_builds_only_end_elements_and_junctions_share_them():
    inst = make_decay_instance()
    segs, rep = continuation_solve(inst, make_element(inst, np.array([1.0])), 6.0,
                                   SolverConfig())
    assert rep.termination is Termination.HORIZON_REACHED and len(segs) >= 3
    # continuation reads only each window's end; building every row's element
    # per accepted window is the overhead this guards against
    assert not any("states" in vars(seg) for seg in segs)
    for a, b in zip(segs, segs[1:]):
        assert b.start is a.end
    assert segs[-1].states[-1] is segs[-1].end


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


def test_solve_report_blowup_needs_t_c():
    with pytest.raises(ValueError):
        SolveReport(windows=(), termination=Termination.BLOW_UP_DETECTED)
    with pytest.raises(ValueError):
        SolveReport(
            windows=(WindowRecord(0.0, 1.0, 2, (), 1.0),),
            termination=Termination.BLOW_UP_DETECTED,
            t_c_estimate=0.5,  # precedes the last window end
        )
