import math
import time

import numpy as np
import pytest

from twonorm.core import (
    AprioriBound,
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
