import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from twonorm import core
from twonorm.core import (
    AprioriBound,
    CapExceeded,
    SolverConfig,
    StabilityBounds,
    Termination,
    continuation_solve,
)
from twonorm.grids import from_callable
from twonorm.instances import (
    InstanceBounds,
    ProblemInstance,
    make_advect_instance,
    make_burgers_instance,
    make_decay_instance,
    make_element,
    make_linear_ode_instance,
    make_riccati_instance,
)
from twonorm.oracles import sine_profile

TWO_PI = 2.0 * math.pi


def _scalar(inst, x):
    return make_element(inst, np.array([float(x)]))


def test_decay_reaches_horizon():
    inst = make_decay_instance()
    segs, rep = continuation_solve(inst, _scalar(inst, 1.0), 5.0, SolverConfig())
    assert rep.termination is Termination.HORIZON_REACHED
    assert segs[-1].t_end == 5.0
    xf = segs[-1].states[-1].state[0]
    assert xf == pytest.approx(math.exp(-5.0), rel=1e-6)


def test_riccati_blows_up_near_one():
    inst = make_riccati_instance()
    t0 = time.perf_counter()
    segs, rep = continuation_solve(inst, _scalar(inst, 1.0), 2.0, SolverConfig())
    elapsed = time.perf_counter() - t0
    assert rep.termination is Termination.BLOW_UP_DETECTED
    assert 0.85 <= rep.t_c_estimate <= 1.0
    assert elapsed < 1.0


def test_riccati_from_the_largest_float_blows_up_at_once_without_warnings():
    # every attempt overflows, frozen-input midpoints included
    inst = make_riccati_instance()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rep = continuation_solve(inst, _scalar(inst, 1e308), 1.0, SolverConfig())
    assert rep.termination is Termination.BLOW_UP_DETECTED
    assert rep.t_c_estimate == 0.0


def test_attempts_and_plans_go_through_the_core_globals(monkeypatch):
    # the benchmark counts attempts and plan calls by swapping these globals
    calls = dict.fromkeys(["picard_window", "select_window", "select_contraction_window"], 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(core, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(core, name, counted)

    inst = make_decay_instance()
    _, rep = continuation_solve(inst, _scalar(inst, 1.0), 5.0, SolverConfig())
    windows = len(rep.windows)
    assert calls == {"picard_window": windows, "select_window": windows,
                     "select_contraction_window": windows}

    calls.update(dict.fromkeys(calls, 0))
    inst = make_riccati_instance()
    _, rep = continuation_solve(inst, _scalar(inst, 1.0), 2.0, SolverConfig())
    assert calls["picard_window"] > len(rep.windows) > 0
    assert calls["select_window"] == calls["select_contraction_window"] == 0


def test_window_junctions_share_state_handles():
    inst = make_decay_instance()
    segs, _ = continuation_solve(inst, _scalar(inst, 1.0), 3.0, SolverConfig())
    assert len(segs) >= 2
    for a, b in zip(segs, segs[1:]):
        assert b.states[0] is a.states[-1]
        assert inst.weak_dist(b.states[0].state, a.states[-1].state) == 0.0


def test_windows_contiguous_non_overlapping():
    inst = make_riccati_instance()
    _, rep = continuation_solve(inst, _scalar(inst, 1.0), 2.0, SolverConfig())
    for a, b in zip(rep.windows, rep.windows[1:]):
        assert b.t_start == a.t_end
        assert b.t_end > b.t_start
    assert rep.t_c_estimate >= rep.windows[-1].t_end - 1e-12


def test_budget_exhaustion_reported():
    inst = make_decay_instance()
    _, rep = continuation_solve(inst, _scalar(inst, 1.0), 50.0,
                                SolverConfig(max_windows=3))
    assert rep.termination is Termination.BUDGET_EXHAUSTED
    assert len(rep.windows) == 3


def test_strong_norm_cap_triggers_blowup_verdict():
    inst = make_riccati_instance()
    _, rep = continuation_solve(inst, _scalar(inst, 1.0), 2.0,
                                SolverConfig(strong_norm_cap=50.0))
    assert rep.termination is Termination.BLOW_UP_DETECTED
    # 1/(1-t) crosses 50 at t = 0.98
    assert 0.9 <= rep.t_c_estimate <= 1.0


def test_strong_norm_cap_below_the_initial_norm_is_blowup_at_zero():
    inst = make_decay_instance()
    segs, rep = continuation_solve(inst, _scalar(inst, 1.0), 2.0,
                                   SolverConfig(strong_norm_cap=0.5))
    assert rep.termination is Termination.BLOW_UP_DETECTED
    assert rep.t_c_estimate == 0.0
    assert segs == [] and rep.windows == ()


def test_determinism_identical_reports():
    inst = make_riccati_instance()
    _, rep1 = continuation_solve(inst, _scalar(inst, 1.0), 2.0, SolverConfig())
    _, rep2 = continuation_solve(inst, _scalar(inst, 1.0), 2.0, SolverConfig())
    assert rep1 == rep2


def test_contraction_evidence_on_analytic_instances():
    # ratios bounded by the planned factor plus slack, and the distance
    # chain decays at least geometrically
    for inst in (make_decay_instance(), make_linear_ode_instance(1.0, 1.0)):
        _, rep = continuation_solve(inst, _scalar(inst, 1.0), 2.0, SolverConfig())
        assert rep.termination is Termination.HORIZON_REACHED
        theta = SolverConfig().theta_target
        for w in rep.windows:
            for r in w.observed_ratios:
                assert r <= theta + 0.05
            prod = 1.0
            for n, r in enumerate(w.observed_ratios, start=2):
                prod *= r  # prod = d_n / d_1
                assert prod <= theta ** (n - 1) * 1.1


def test_empirical_mode_flag_matches_unbounded_behavior():
    # decay run ignoring its analytic bounds still reaches the horizon
    inst = make_decay_instance()
    segs, rep = continuation_solve(inst, _scalar(inst, 1.0), 2.0,
                                   SolverConfig(empirical_mode=True))
    assert rep.termination is Termination.HORIZON_REACHED
    assert segs[-1].states[-1].state[0] == pytest.approx(math.exp(-2.0), rel=1e-6)


def test_planning_failure_gives_contraction_failure_verdict():
    # stability bounds violating the vanishing condition: c(t,R)/R = 1
    base = make_decay_instance()
    broken = ProblemInstance(
        name="ode.broken",
        step=base.step,
        weak_norm=base.weak_norm,
        strong_norm=base.strong_norm,
        weak_dist=base.weak_dist,
        bounds=InstanceBounds(
            apriori=AprioriBound(eval=lambda t, r, m: r),
            stability=StabilityBounds(b=lambda t, r: 0.0, c=lambda t, r: r),
        ),
    )
    _, rep = continuation_solve(broken, _scalar(base, 1.0), 1.0, SolverConfig())
    assert rep.termination is Termination.CONTRACTION_FAILURE
    assert rep.windows == ()


def test_uniqueness_surrogate_ode_substep_halving():
    finals = []
    for substeps in (8, 16, 32):
        inst = make_decay_instance()
        segs, _ = continuation_solve(inst, _scalar(inst, 1.0), 5.0,
                                     SolverConfig(substeps_per_window=substeps))
        finals.append(segs[-1].states[-1].state[0])
    d1 = abs(finals[0] - finals[1])
    d2 = abs(finals[1] - finals[2])
    assert d1 / d2 >= 12.0


def test_uniqueness_surrogate_transport_joint_refinement():
    # the transport discretization refines grid and substeps together
    # (fixed ratio), matching its second-order overall accuracy
    prof = sine_profile()
    finals = []
    for n, substeps in ((128, 50), (256, 100), (512, 200)):
        inst = make_advect_instance(n)
        x0 = make_element(inst, from_callable(prof.value, n, TWO_PI))
        segs, rep = continuation_solve(inst, x0, 0.5,
                                       SolverConfig(substeps_per_window=substeps))
        assert rep.termination is Termination.HORIZON_REACHED
        finals.append(segs[-1].states[-1].state.values)
    d1 = float(np.max(np.abs(finals[0] - finals[1][::2])))
    d2 = float(np.max(np.abs(finals[1] - finals[2][::2])))
    assert d1 / d2 >= 3.5


def test_burgers_strong_norm_grows_through_final_windows():
    n, length = 1024, TWO_PI
    prof = sine_profile()
    inst = make_burgers_instance(n)
    x0 = make_element(inst, from_callable(prof.value, n, length))
    cap = 0.5 * n / length  # half the grid-representable slope
    segs, rep = continuation_solve(inst, x0, 2.0,
                                   SolverConfig(strong_norm_cap=cap))
    assert rep.termination is Termination.BLOW_UP_DETECTED
    assert abs(rep.t_c_estimate - 1.0) <= 0.15
    tail = [w.end_strong_norm for w in rep.windows[-5:]]
    assert all(a < b for a, b in zip(tail, tail[1:]))


def test_zero_initial_data_is_global():
    inst = make_burgers_instance(64)
    u0 = from_callable(lambda x: np.zeros_like(x), 64, TWO_PI)
    segs, rep = continuation_solve(inst, make_element(inst, u0), 4.0, SolverConfig())
    assert rep.termination is Termination.HORIZON_REACHED
    assert all(np.all(s.state.values == 0.0) for seg in segs for s in seg.states)


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
def test_non_finite_t_max_rejected(t_max):
    inst = make_decay_instance()
    with pytest.raises(ValueError, match="t_max"):
        continuation_solve(inst, make_element(inst, np.array([1.0])), t_max, SolverConfig())


def test_decay_to_a_late_horizon_ends_on_a_short_last_window():
    # the last window is 4.3e-6 long at t = 1.7e5; its grid used to fail the
    # uniform-spacing check with a ValueError
    inst = make_decay_instance(rate=1e-3)
    segs, rep = continuation_solve(inst, _scalar(inst, 1.0), 1.7e5,
                                   SolverConfig(max_windows=500))
    assert rep.termination is Termination.HORIZON_REACHED
    assert segs[-1].t_end == 1.7e5


def test_long_forced_horizon_ends_exactly_at_t_max():
    # t_cur + (t_max - t_cur) rounds 7.3e-12 past t_max, one float spacing at
    # 6e4: the last window's grid must still count as covering that window
    inst = make_linear_ode_instance(0.0, 0.0, forcing=1.0)
    t_max = 60722.396169771724
    segs, rep = continuation_solve(inst, _scalar(inst, 5.163863287948772), t_max,
                                   SolverConfig(kappa=3.2459373508722873))
    assert rep.termination is Termination.HORIZON_REACHED
    assert segs[-1].t_end == t_max


def test_zero_length_analytic_window_is_a_planning_failure():
    # x' = -1 from 0.5: the a-priori bound shrinks the window with the strong
    # norm, which reaches 0 at t = 0.5; the planned window there is 0 (it used
    # to raise "t1 must be positive")
    inst = make_linear_ode_instance(0.0, 0.0, forcing=-1.0)
    _, rep = continuation_solve(inst, _scalar(inst, 0.5), 1.0, SolverConfig())
    assert rep.termination is Termination.CONTRACTION_FAILURE
    assert rep.windows[-1].t_end == 0.5


def test_analytic_windows_below_min_window_still_reach_the_horizon():
    # rate 1e4 plans windows of ln(2)/1e4 = 6.9e-5, below the default
    # min_window of 1e-4; only the shrink loop treats min_window as a floor
    inst = make_decay_instance(rate=1e4)
    segs, rep = continuation_solve(inst, _scalar(inst, 1.0), 1e-3, SolverConfig())
    assert rep.termination is Termination.HORIZON_REACHED
    assert segs[-1].t_end == 1e-3
    assert min(w.t_end - w.t_start for w in rep.windows) < SolverConfig().min_window


@pytest.mark.parametrize("empirical", [False, True])
def test_forced_zero_crossing_at_a_late_time_ends_without_an_exception(empirical):
    # x' = -1.145 from 9.3e4: analytic windows shrink with the strong norm
    # until the m + 1 grid times of a window are no longer distinct floats;
    # that used to escape as "ValueError: times must be strictly increasing"
    inst = make_linear_ode_instance(0.0, 0.0, forcing=-1.1452242316012757)
    x0 = 92972.81636387811
    cfg = SolverConfig(kappa=1.7339569268753046, substeps_per_window=13,
                       empirical_mode=empirical)
    segs, rep = continuation_solve(inst, _scalar(inst, x0), 3.0 * x0, cfg)
    if empirical:
        assert rep.termination is Termination.HORIZON_REACHED
        assert segs[-1].t_end == 3.0 * x0
    else:
        assert rep.termination is Termination.CONTRACTION_FAILURE
        assert 0.0 < rep.windows[-1].t_end < 3.0 * x0


def test_empirical_window_too_short_for_distinct_times_is_a_contraction_failure():
    # every attempt past t = 1e6 fails, so the empirical window halves until
    # its 17 grid times repeat (1e-9 at 1e6), long before min_window = 1e-12
    inst = make_decay_instance()

    def step(y, x0, window, substeps, t_start=0.0, cap=None):
        if t_start + window > 1e6:
            raise CapExceeded("refused past t = 1e6")
        return inst.step(y, x0, window, substeps, t_start, cap)

    cfg = SolverConfig(substeps_per_window=16, min_window=1e-12, empirical_mode=True)
    segs, rep = continuation_solve(replace(inst, step=step), _scalar(inst, 0.0), 2e6, cfg)
    assert rep.termination is Termination.CONTRACTION_FAILURE
    assert segs[-1].t_end == 1e6


def test_forced_linear_sweep_raises_nothing():
    # x' = forcing drives the strong norm through 0 whenever the signs of x0
    # and forcing differ, which shrinks analytic windows towards the float
    # spacing at late times; 6 of these draws used to raise a ValueError
    for seed in range(400):
        rng = np.random.default_rng(seed)
        forcing = rng.uniform(-2.0, 2.0)
        x0 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 6.0)
        cfg = SolverConfig(kappa=rng.uniform(1.1, 4.0),
                           substeps_per_window=int(rng.integers(2, 17)),
                           empirical_mode=bool(rng.random() < 0.5))
        inst = make_linear_ode_instance(0.0, 0.0, forcing)
        segs, rep = continuation_solve(inst, _scalar(inst, x0), 3.0 * abs(x0), cfg)
        if rep.termination is Termination.HORIZON_REACHED:
            assert segs[-1].t_end == 3.0 * abs(x0)
