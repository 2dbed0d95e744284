import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm.core import (
    CapExceeded,
    ContractionFailureError,
    InvalidCap,
    IterBudgetExceeded,
    NoContractionWindow,
    NonFiniteState,
    NormedPairElement,
    SolverConfig,
    SolverError,
    WindowPlan,
    estimate_theta_empirical,
    picard_window,
    reject_rows,
)
from twonorm.grids import from_callable
from twonorm.instances import (
    OdeSpec,
    make_burgers_instance,
    make_decay_instance,
    make_element,
    make_linear_ode_instance,
    make_ode_instance,
    make_riccati_instance,
)
from twonorm.oracles import burgers_profile_at, sine_profile

TWO_PI = 2.0 * math.pi


def _scalar_element(x):
    return NormedPairElement(np.array([x]), abs(x), abs(x))


def _constant_start(instance):
    """instance whose step drops the coupled hint, so iteration starts from the constant one."""

    def step(*args, coupled=False, **kwargs):
        return instance.step(*args, **kwargs)

    return dataclasses.replace(instance, step=step)


def test_decay_window_reaches_exponential():
    # frozen slot unused, so the first corrected iterate is already exact
    inst = make_decay_instance()
    plan = WindowPlan(K=2.0, t_start=0.0, t_end=0.5)
    cfg = SolverConfig(substeps_per_window=500)
    seg, rec = picard_window(inst, _scalar_element(1.0), plan, cfg)
    assert seg.states[-1].state[0] == pytest.approx(math.exp(-0.5), abs=1e-10)
    assert rec.picard_iters == 2
    assert rec.observed_ratios == (0.0,)


def test_riccati_window_fixed_point():
    # fixed point of the frozen map solves x' = x^2: x(t) = 1/(1-t);
    # the cap needs headroom above sup|x| = 2 for the discretization error
    inst = make_riccati_instance()
    plan = WindowPlan(K=2.5, t_start=0.0, t_end=0.5)
    cfg = SolverConfig(substeps_per_window=500)
    seg, rec = picard_window(inst, _scalar_element(1.0), plan, cfg)
    assert seg.states[-1].state[0] == pytest.approx(2.0, rel=1e-6)
    mid = seg.states[250].state[0]
    assert mid == pytest.approx(1.0 / (1.0 - 0.25), rel=1e-6)


def test_cap_preserved_on_accepted_window():
    inst = make_linear_ode_instance(a=1.0, b=1.0)
    plan = WindowPlan(K=2.0, t_start=0.0, t_end=0.25)
    seg, _ = picard_window(inst, _scalar_element(1.0), plan, SolverConfig())
    assert float(np.max(seg.strong)) <= plan.K * (1.0 + 1e-9)


def test_initial_state_handle_reused():
    inst = make_decay_instance()
    x0 = _scalar_element(1.0)
    plan = WindowPlan(K=2.0, t_start=0.0, t_end=0.5)
    seg, _ = picard_window(inst, x0, plan, SolverConfig())
    assert seg.states[0] is x0


def test_precondition_rejects_oversized_initial_norm():
    inst = make_decay_instance()
    plan = WindowPlan(K=2.0, t_start=0.0, t_end=0.5)
    with pytest.raises(InvalidCap):
        picard_window(inst, _scalar_element(1.5), plan, SolverConfig())


def test_a_window_too_short_for_its_grid_is_named():
    # 64 substeps over one float step of 6e4 cannot give 65 distinct times,
    # and picard_window, which builds the grid, names the window
    t_end = math.nextafter(6e4, math.inf)
    plan = WindowPlan(K=2.0, t_start=6e4, t_end=t_end)
    with pytest.raises(NoContractionWindow) as err:
        picard_window(make_decay_instance(), _scalar_element(1.0), plan,
                      SolverConfig(substeps_per_window=64))
    assert str(err.value) == f"window [60000.0, {t_end}] is too short for 65 distinct grid times"


def _expander():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: 2.0 * y,
                   lipschitz_y=2.0, lipschitz_x=0.0, f00=0.0)
    return make_ode_instance("ode.expander", spec)


def test_contraction_failure_on_expanding_map():
    # f = 2y integrates the frozen input; over a window of length 2 the
    # map expands from the constant start and successive ratios stay above 1
    plan = WindowPlan(K=1e9, t_start=0.0, t_end=2.0)
    with pytest.raises(ContractionFailureError):
        picard_window(_constant_start(_expander()), _scalar_element(1.0), plan,
                      SolverConfig(substeps_per_window=16, empirical_mode=True))


def test_coupled_start_converges_on_expanding_map():
    # the coupled start is RK4 of x' = 2x, close to the fixed point, so the
    # map's expanding transient never shows and every ratio stays below 1
    plan = WindowPlan(K=1e9, t_start=0.0, t_end=2.0)
    seg, rec = picard_window(_expander(), _scalar_element(1.0), plan,
                             SolverConfig(substeps_per_window=16, empirical_mode=True, tol=1e-9))
    assert rec.picard_iters == 17
    assert all(r < 1.0 for r in rec.observed_ratios)


def test_default_tol_stops_the_expanding_map_at_a_tenth_of_its_first_correction():
    # with the default tol the window stops once the bound falls under
    # 0.1 d_2, the distance between the coupled start and its frozen correction
    inst, x0 = _expander(), _scalar_element(1.0)
    plan = WindowPlan(K=1e9, t_start=0.0, t_end=2.0)
    seg, rec = picard_window(inst, x0, plan,
                             SolverConfig(substeps_per_window=16, empirical_mode=True))
    assert rec.picard_iters == 3
    assert all(r < 1.0 for r in rec.observed_ratios)
    first = inst.step(seg, x0, substeps=16, coupled=True)
    d_2 = inst.weak_dist(inst.step(first, x0, substeps=16).values, first.values)
    assert rec.tol == 0.1 * d_2 > 1e-9


def test_iteration_budget_enforced():
    inst = make_decay_instance()
    plan = WindowPlan(K=2.0, t_start=0.0, t_end=0.5)
    with pytest.raises(IterBudgetExceeded):
        picard_window(inst, _scalar_element(1.0), plan,
                      SolverConfig(max_picard_iters=1))


def _residual_check(inst, K, t_end, empirical):
    """Solve [0, t_end] from 1; return iterations, the drift of one more frozen solve, its bound.

    The bound is rec.tol (1+theta)/(1-theta), with the tolerance and theta
    the stopping rule used.
    """
    x0 = _scalar_element(1.0)
    cfg = SolverConfig(empirical_mode=empirical)
    seg, rec = picard_window(inst, x0, WindowPlan(K=K, t_start=0.0, t_end=t_end), cfg)
    theta = estimate_theta_empirical(rec.observed_ratios) if empirical else cfg.theta_target
    extra = inst.step(seg, x0, substeps=cfg.substeps_per_window)
    drift = inst.weak_dist(extra.values, seg.values)
    return rec.picard_iters, drift, rec.tol * (1.0 + theta) / (1.0 - theta)


def test_fixed_point_residual_bound():
    # one extra application of the frozen solve moves the converged
    # trajectory by at most tol (1+theta)/(1-theta)
    _, drift, bound = _residual_check(make_linear_ode_instance(a=1.0, b=0.5), 2.0, 0.25, False)
    assert drift <= bound


@pytest.mark.parametrize("inst,K,t_end", [
    (make_riccati_instance(), 2.5, 0.05),
    (make_riccati_instance(), 2.5, 0.4),
    (make_linear_ode_instance(a=1.0, b=0.5), 2.0, 0.25),
], ids=["riccati-0.05", "riccati-0.4", "linear"])
def test_coupled_start_keeps_the_residual_bound_in_empirical_mode(inst, K, t_end):
    # the coupled first iterate lies close to the fixed point, so d_1 is small
    # and the empirical theta rests on few ratios (Riccati on [0, 0.05] stops
    # after 2 iterations); one more frozen solve must still stay under the bound
    picard_iters, drift, bound = _residual_check(inst, K, t_end, True)
    assert drift <= bound
    assert picard_iters == 2 or t_end != 0.05


def _burgers_element(inst, n):
    return make_element(inst, from_callable(sine_profile().value, n, TWO_PI))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["riccati", "linear", "linear-empirical", "burgers"]),
       st.floats(0.02, 0.45), st.sampled_from([4, 8, 16, 32, 64]), st.sampled_from([64, 256]))
def test_default_tol_keeps_the_residual_bound_of_the_tol_each_window_used(kind, t_end,
                                                                          substeps, n):
    # one more frozen solve moves the converged trajectory by at most
    # rec.tol (1+theta)/(1-theta), with theta as the stopping rule used it
    if kind == "burgers":
        inst = make_burgers_instance(n)
        x0, K, t_end = _burgers_element(inst, n), 4.0, min(t_end, 0.3)
    elif kind == "riccati":
        inst, x0, K = make_riccati_instance(), _scalar_element(1.0), 2.5
    else:
        inst, x0, K = make_linear_ode_instance(a=1.0, b=0.5), _scalar_element(1.0), 2.0
        t_end = min(t_end, 0.3)
    cfg = SolverConfig(substeps_per_window=substeps, empirical_mode=kind != "linear")
    seg, rec = picard_window(inst, x0, WindowPlan(K=K, t_start=0.0, t_end=t_end), cfg)
    theta = cfg.theta_target if kind == "linear" else estimate_theta_empirical(
        rec.observed_ratios)
    drift = inst.weak_dist(inst.step(seg, x0, substeps=substeps).values, seg.values)
    assert drift <= rec.tol * (1.0 + theta) / (1.0 - theta)
    assert rec.tol >= 1e-9


def test_one_weak_distance_per_returned_step():
    # Riccati in empirical mode: this step stops early, raising from its own
    # reject_rows against the cap hint when an iterate fails it, and every
    # step that returns gets exactly one weak_dist
    base = make_riccati_instance()
    counts = {"steps": 0, "weak_dist": 0}

    def step(*args, **kwargs):
        seg = base.step(*args, **kwargs)
        reject_rows(seg.times, seg.weak, seg.strong, kwargs["cap"])
        counts["steps"] += 1
        return seg

    def weak_dist(a, b):
        counts["weak_dist"] += 1
        return base.weak_dist(a, b)

    inst = dataclasses.replace(base, step=step, weak_dist=weak_dist)
    seg, rec = picard_window(inst, _scalar_element(1.0), WindowPlan(K=2.5, t_start=0.0, t_end=0.4),
                             SolverConfig(substeps_per_window=16))
    assert counts == {"steps": rec.picard_iters, "weak_dist": rec.picard_iters}
    with pytest.raises(CapExceeded):  # x = 1/(1-t) passes 2.5 at t = 0.6
        picard_window(_constant_start(inst), _scalar_element(1.0),
                      WindowPlan(K=2.5, t_start=0.0, t_end=0.9),
                      SolverConfig(substeps_per_window=16))
    assert counts["weak_dist"] == counts["steps"] > rec.picard_iters


def test_coupled_start_raises_at_the_riccati_crossing_in_its_first_step_call():
    # the first iterate is RK4 of x' = x^2, whose x = 1/(1-t) passes 2.5 at
    # t = 0.6, so its first grid row past the crossing, 0.61875, is named
    base = make_riccati_instance()
    hints = []

    def step(*args, **kwargs):
        hints.append(kwargs["coupled"])
        return base.step(*args, **kwargs)

    with pytest.raises(CapExceeded) as exc:
        picard_window(dataclasses.replace(base, step=step), _scalar_element(1.0),
                      WindowPlan(K=2.5, t_start=0.0, t_end=0.9),
                      SolverConfig(substeps_per_window=16))
    assert hints == [True]
    assert exc.value.t == 0.61875


def test_coupled_burgers_start_raises_at_the_first_row_over_the_cap():
    # the coupled first iterate follows u_t + u u_x = 0, whose strong norm
    # 1 + 1/(1-t) passes K = 4 at t = 2/3; the frozen solve from the constant
    # start stays under 3.5 on [0, 0.9], so only a coupled first call raises
    n = 256
    base = make_burgers_instance(n)
    x0 = _burgers_element(base, n)
    hints = []

    def step(*args, **kwargs):
        hints.append(kwargs["coupled"])
        return base.step(*args, **kwargs)

    with pytest.raises(CapExceeded) as exc:
        picard_window(dataclasses.replace(base, step=step), x0,
                      WindowPlan(K=4.0, t_start=0.0, t_end=0.9),
                      SolverConfig(substeps_per_window=16))
    assert hints == [True]
    times = np.linspace(0.0, 0.9, 17)
    assert times[11] < 2.0 / 3.0 < times[12]
    assert exc.value.t == float(times[12])
    assert exc.value.value > exc.value.limit == 4.0 * (1.0 + 1e-9)


def test_picard_checks_the_cap_of_a_step_that_ignores_it():
    base = make_riccati_instance()

    def step(y_traj, x0, *, substeps, cap=None, coupled=False):
        return base.step(y_traj, x0, substeps=substeps, coupled=coupled)

    inst = dataclasses.replace(base, step=step)
    with pytest.raises(CapExceeded, match="strong norm .* exceeds cap 2.5"):
        picard_window(inst, _scalar_element(1.0), WindowPlan(K=2.5, t_start=0.0, t_end=0.9),
                      SolverConfig(substeps_per_window=16))


def _riccati_passing_rows_through(edit):
    """Riccati whose step ignores cap and returns edit(output); inputs and outputs are kept."""
    base = make_riccati_instance()
    inputs, outputs = [], []

    def step(y_traj, x0, *, substeps, cap=None, coupled=False):
        inputs.append(y_traj)
        outputs.append(edit(base.step(y_traj, x0, substeps=substeps, coupled=coupled)))
        return outputs[-1]

    return dataclasses.replace(base, step=step), inputs, outputs


def _nan_rows_from_5(seg):
    values = seg.values.copy()
    values[5:] = np.nan
    norms = np.max(np.abs(values), axis=1)
    return dataclasses.replace(seg, values=values, weak=norms, strong=norms)


def _nan_strong_norm_at_3(seg):
    strong = seg.strong.copy()
    strong[3] = np.nan
    return dataclasses.replace(seg, strong=strong)


@pytest.mark.parametrize("edit,error,row", [(_nan_rows_from_5, NonFiniteState, 5),
                                            (_nan_strong_norm_at_3, CapExceeded, 3)],
                         ids=["nan-rows", "nan-strong-norm"])
def test_picard_rejects_a_non_finite_iterate_at_its_first_step_call(edit, error, row):
    # picard_window's own check used to let both through: NaN is not > cap
    inst, inputs, outputs = _riccati_passing_rows_through(edit)
    with pytest.raises(error) as exc:
        picard_window(inst, _scalar_element(1.0), WindowPlan(K=2.5, t_start=0.0, t_end=0.1),
                      SolverConfig(substeps_per_window=16))
    assert len(inputs) == len(outputs) == 1
    assert str(exc.value).endswith(f"t={float(outputs[0].times[row])}")


def test_picard_names_the_first_row_over_the_cap_of_a_step_that_ignores_it():
    inst, _, outputs = _riccati_passing_rows_through(lambda seg: seg)
    with pytest.raises(CapExceeded) as exc:
        picard_window(inst, _scalar_element(1.0), WindowPlan(K=2.5, t_start=0.0, t_end=0.9),
                      SolverConfig(substeps_per_window=16))
    over = outputs[-1].strong > 2.5 * (1.0 + 1e-9)
    assert over.any()
    k = int(over.argmax())  # the first row over the cap
    assert str(exc.value).endswith(f"by t={float(outputs[-1].times[k])}")


def test_picard_rejects_a_step_output_that_does_not_start_from_x0():
    base = make_decay_instance()

    def step(*args, **kwargs):
        seg = base.step(*args, **kwargs)
        return dataclasses.replace(seg, start=_scalar_element(1.0))  # equal, not the same

    inst = dataclasses.replace(base, step=step)
    with pytest.raises(SolverError, match="must start its output from the x0 element"):
        picard_window(inst, _scalar_element(1.0), WindowPlan(K=2.0, t_start=0.0, t_end=0.5),
                      SolverConfig(substeps_per_window=4))


def test_absolute_time_passed_to_rhs():
    # f depends on absolute time; a window anchored at t=1 must see it
    seen = []

    def f(t, y, x):
        seen.append(t)
        return 0.0 * x

    spec = OdeSpec(dimension=1, f=f, lipschitz_y=0.0, lipschitz_x=0.0, f00=0.0)
    inst = make_ode_instance("ode.probe", spec)
    plan = WindowPlan(K=2.0, t_start=1.0, t_end=1.5)
    picard_window(inst, _scalar_element(1.0), plan, SolverConfig(substeps_per_window=4))
    assert min(seen) >= 1.0
    assert max(seen) <= 1.5 + 1e-12


def test_burgers_window_against_characteristics():
    n = 1024
    prof = sine_profile()
    inst = make_burgers_instance(n)
    u0 = from_callable(prof.value, n, TWO_PI)
    x0 = make_element(inst, u0)
    plan = WindowPlan(K=4.0, t_start=0.0, t_end=0.1)
    cfg = SolverConfig(substeps_per_window=32)
    seg, rec = picard_window(inst, x0, plan, cfg)
    assert all(r < 1.0 for r in rec.observed_ratios)
    final = seg.states[-1].state
    oracle = burgers_profile_at(prof, 0.1, final.nodes())
    assert np.max(np.abs(final.values - oracle)) <= 5e-3


def test_burgers_frozen_step_consistency():
    # the converged fixed point barely moves under one more frozen solve
    n = 256
    prof = sine_profile()
    inst = make_burgers_instance(n)
    x0 = make_element(inst, from_callable(prof.value, n, TWO_PI))
    plan = WindowPlan(K=4.0, t_start=0.0, t_end=0.2)
    cfg = SolverConfig(substeps_per_window=32)
    seg, rec = picard_window(inst, x0, plan, cfg)
    theta_hat = estimate_theta_empirical(rec.observed_ratios)
    extra = inst.step(seg, x0, substeps=cfg.substeps_per_window)
    drift = inst.weak_dist(extra.values, seg.values)
    assert drift <= rec.tol * (1.0 + theta_hat) / (1.0 - theta_hat)
