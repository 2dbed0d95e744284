import math

import numpy as np
import pytest

from twonorm import instances
from twonorm.core import (
    NonFiniteState,
    NormedPairElement,
    TrajectorySegment,
)
from twonorm.grids import GridFunction1D, from_callable, lip_norm, sup_norm
from twonorm.instances import (
    CharacteristicBlowup,
    OdeSpec,
    TransportSpec,
    make_advect_instance,
    make_burgers_instance,
    make_decay_instance,
    make_element,
    make_linear_ode_instance,
    ode_bounds,
    ode_step,
    transport_step,
)
from twonorm.oracles import burgers_profile_at, sine_profile

from test_step_properties import _reference_step, _transport_case

TWO_PI = 2.0 * math.pi


def _const_segment(value, t0, t1, samples):
    times = np.linspace(t0, t1, samples)
    return _segment_from_samples(times, [np.atleast_1d(value)] * samples)


def _elem(state):
    """Wrap a raw state with the norm pair the bundled instances use."""
    if isinstance(state, GridFunction1D):
        return NormedPairElement(state, sup_norm(state), lip_norm(state))
    m = float(np.max(np.abs(state)))
    return NormedPairElement(state, m, m)


def _segment_from_samples(times, samples_2d):
    values = np.asarray(samples_2d, dtype=float).reshape(len(times), -1)
    norms = np.max(np.abs(values), axis=1)
    return TrajectorySegment(times, values, norms, norms, _elem(values[0]))


# -- ode_step -------------------------------------------------------------------

def test_ode_step_decay():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: -x,
                   lipschitz_y=0.0, lipschitz_x=1.0)
    y = _const_segment([0.0], 0.0, 1.0, 1001)
    seg = ode_step(spec, y, _elem(np.array([1.0])), 1.0, 1000)
    assert seg.states[-1].state[0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_ode_step_integrates_constant_input_exactly():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: y,
                   lipschitz_y=1.0, lipschitz_x=0.0)
    y = _const_segment([2.0], 0.0, 1.0, 65)
    seg = ode_step(spec, y, _elem(np.array([0.0])), 1.0, 64)
    for t, s in zip(seg.times, seg.states):
        assert s.state[0] == pytest.approx(2.0 * t, abs=1e-12)


def test_ode_step_frozen_riccati_input():
    # y(t) = 1/(1-t) sampled on the substep grid; x' = y x gives 1/(1-t)
    spec = OdeSpec(dimension=1, f=lambda t, y, x: y * x)
    substeps = 500
    times = np.linspace(0.0, 0.5, substeps + 1)
    y = _segment_from_samples(times, 1.0 / (1.0 - times))
    seg = ode_step(spec, y, _elem(np.array([1.0])), 0.5, substeps)
    assert seg.states[-1].state[0] == pytest.approx(2.0, rel=1e-6)


def test_ode_step_fourth_order_with_stage_exact_input():
    # f reads time explicitly, so every stage value is exact and the
    # one-step truncation alone drives the error
    spec = OdeSpec(dimension=1, f=lambda t, y, x: math.cos(t) * x)
    exact = math.exp(math.sin(0.5))
    errs = []
    for substeps in (8, 16):
        y = _const_segment([0.0], 0.0, 0.5, substeps + 1)
        seg = ode_step(spec, y, _elem(np.array([1.0])), 0.5, substeps)
        errs.append(abs(seg.states[-1].state[0] - exact))
    assert errs[0] / errs[1] >= 12.0


def test_ode_step_riccati_frozen_input_is_moebius_exact():
    # for x' = x / (1 - t) the 4-stage amplification reproduces the
    # rational flow exactly, a useful canary for stage-time bookkeeping
    spec = OdeSpec(dimension=1, f=lambda t, y, x: x / (1.0 - t))
    times = np.linspace(0.0, 0.5, 9)
    y = _segment_from_samples(times, 1.0 / (1.0 - times))
    seg = ode_step(spec, y, _elem(np.array([1.0])), 0.5, 8)
    assert seg.states[-1].state[0] == pytest.approx(2.0, abs=1e-12)


def test_ode_step_raises_on_overflow():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: x * x * 1e3 + 1e3)
    y = _const_segment([0.0], 0.0, 10.0, 11)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
        ode_step(spec, y, _elem(np.array([1.0])), 10.0, 10)


ON_GRID = np.linspace(0.0, 0.5, 9)  # the grid of 8 substeps over [0, 0.5]


def _ode_case(times, window=0.5):
    spec = OdeSpec(dimension=1, f=lambda t, y, x: -x)
    y = _segment_from_samples(times, np.zeros(len(times)))
    return lambda x0: ode_step(spec, y, x0, window, 8)


def _burgers_case(times, window=0.5):
    # a Burgers input sampled at times, solved over [0, window] in 8 substeps
    spec = TransportSpec(n=64, length=TWO_PI, G=lambda x, v: -v)
    u0 = from_callable(np.sin, 64, TWO_PI)
    v = _grid_segment(64, TWO_PI, [u0.values] * len(times), times)
    return lambda x0: transport_step(spec, v, x0, window, 8)


STEP_CASES = {"ode": (_ode_case, np.array([1.0])),
              "transport": (_burgers_case, from_callable(np.sin, 64, TWO_PI))}


OFF_GRID = {"short": np.linspace(0.0, 0.1, 9),
            "denser": np.linspace(0.0, 0.5, 17),
            "non-uniform": 0.5 * np.linspace(0.0, 1.0, 9) ** 2}


@pytest.mark.parametrize("kind", sorted(STEP_CASES))
def test_step_requires_input_on_the_window_grid(kind):
    make_case, state = STEP_CASES[kind]
    assert len(make_case(ON_GRID)(_elem(state)).states) == 9
    for times in OFF_GRID.values():
        with pytest.raises(ValueError, match=r"grid of 8 uniform substeps over \[0.0, 0.5\]"):
            make_case(times)(_elem(state))


@pytest.mark.parametrize("kind", sorted(STEP_CASES))
def test_step_rejects_raw_state(kind):
    make_case, state = STEP_CASES[kind]
    with pytest.raises(TypeError, match="make_element"):
        make_case(ON_GRID)(state)


@pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -0.5])
@pytest.mark.parametrize("kind", sorted(STEP_CASES))
def test_step_rejects_window_that_is_not_finite_positive(kind, window):
    make_case, state = STEP_CASES[kind]
    with pytest.raises(ValueError, match="window must be a finite positive number"):
        make_case(ON_GRID, window)(_elem(state))


def test_step_solves_on_input_times_that_end_within_float_spacing():
    # t_start + (t_max - t_start) lands 7.3e-12 past t_max, one float spacing
    # at 6e4 and more than an absolute 1e-12 coverage slack
    t_start, t_max = 19599.331575670392, 60722.396169771724
    assert t_start + (t_max - t_start) > t_max
    inst = make_linear_ode_instance(0.0, 0.0, forcing=1.0)
    y = _const_segment([5.0], t_start, t_max, 65)
    seg = inst.step(y, _elem(np.array([5.0])), t_max - t_start, 64, t_start)
    assert seg.times is y.times


def test_ode_step_rejects_state_of_wrong_dimension():
    spec = OdeSpec(dimension=2, f=lambda t, y, x: -x)
    y = _const_segment([0.0, 0.0], 0.0, 0.5, 9)
    with pytest.raises(ValueError, match="spec dimension is 2"):
        ode_step(spec, y, _elem(np.array([1.0])), 0.5, 8)


@pytest.mark.parametrize("declared,missing", [({"lipschitz_y": 1.0}, "lipschitz_x"),
                                              ({"lipschitz_x": 1.0}, "lipschitz_y")])
def test_ode_spec_rejects_half_declared_lipschitz_data(declared, missing):
    with pytest.raises(ValueError, match=f"{missing} is missing"):
        OdeSpec(dimension=1, f=lambda t, y, x: -x, **declared)


@pytest.mark.parametrize("call,match", [
    (lambda: OdeSpec(dimension=0, f=lambda t, y, x: -x), "dimension must be >= 1"),
    (lambda: OdeSpec(dimension=1, f=lambda t, y, x: -x, lipschitz_y=-1.0, lipschitz_x=1.0),
     "lipschitz_y must be finite and nonnegative"),
    (lambda: make_decay_instance(rate=0.0), "rate must be positive"),
    (lambda: TransportSpec(n=1, length=1.0, G=lambda x, v: v), "at least 2 points"),
    (lambda: TransportSpec(n=16, length=0.0, G=lambda x, v: v), "length must be positive"),
    (lambda: ode_step(OdeSpec(dimension=1, f=lambda t, y, x: -x),
                      _const_segment([0.0], 0.0, 0.5, 9), _elem(np.array([1.0])), 0.5, 0),
     "substeps must be >= 1"),
], ids=["ode-dimension-0", "ode-negative-lipschitz", "decay-rate-0", "transport-n-1",
        "transport-length-0", "ode-step-0-substeps"])
def test_instance_inputs_are_checked(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# -- ode_bounds -----------------------------------------------------------------

def test_ode_bounds_constant_rhs():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: 0.0 * x,
                   lipschitz_y=0.0, lipschitz_x=0.0, f00=0.0)
    apriori, stab = ode_bounds(spec)
    for t in (0.0, 0.5, 3.0):
        assert apriori.eval(t, 1.5, 7.0) == 1.5
        assert stab.b(t, 2.0) == 0.0
        assert stab.c(t, 2.0) == 0.0


def test_ode_bounds_recover_linear_growth():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: y,
                   lipschitz_y=1.0, lipschitz_x=0.0, f00=0.0)
    apriori, _ = ode_bounds(spec)
    assert apriori.eval(0.5, 1.0, 2.0) == pytest.approx(2.0)  # r + t M


def test_ode_bounds_gronwall_value():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: y + x,
                   lipschitz_y=1.0, lipschitz_x=1.0, f00=0.0)
    apriori, _ = ode_bounds(spec)
    assert apriori.eval(0.5, 1.0, 2.0) == pytest.approx(2.0 * math.exp(0.5), rel=1e-12)


def test_ode_bounds_apriori_invariants_sampled():
    spec = OdeSpec(dimension=2, f=lambda t, y, x: y - x,
                   lipschitz_y=1.0, lipschitz_x=1.0, f00=0.5)
    apriori, stab = ode_bounds(spec)
    rng = np.random.default_rng(1)
    for _ in range(200):
        t, r, m = rng.uniform(0, 3), rng.uniform(0, 5), rng.uniform(0, 5)
        dt, dr, dm = rng.uniform(0, 1, 3)
        base = apriori.eval(t, r, m)
        assert apriori.eval(t + dt, r, m) >= base - 1e-12
        assert apriori.eval(t, r + dr, m) >= base - 1e-12
        assert apriori.eval(t, r, m + dm) >= base - 1e-12
        assert apriori.eval(0.0, r, m) == r


def test_ode_bounds_small_time_limits():
    # b(t,R)/R must stay below 1 and c(t,R)/R must vanish as t -> 0
    spec = OdeSpec(dimension=1, f=lambda t, y, x: 2.0 * y - 3.0 * x,
                   lipschitz_y=2.0, lipschitz_x=3.0, f00=0.0)
    _, stab = ode_bounds(spec)
    for r in (0.1, 1.0, 10.0):
        for t in (1e-2, 1e-4, 1e-6):
            assert stab.b(t, r) / r < 1.0
        assert stab.c(1e-8, r) / r < 1e-6


def test_ode_bounds_dominate_dense_solves():
    # 100 random linear systems within declared constants never exceed
    # the growth bound along a dense reference solve of the frozen problem
    rng = np.random.default_rng(2024)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        l1, l2, f00 = rng.uniform(0.1, 2.0, 3)
        ay = rng.normal(size=(d, d))
        ay *= l1 / max(np.abs(ay).sum(axis=1).max(), 1e-12)
        ax = rng.normal(size=(d, d))
        ax *= l2 / max(np.abs(ax).sum(axis=1).max(), 1e-12)
        c = rng.uniform(-1, 1, size=d)
        c *= f00 / max(np.abs(c).max(), 1e-12)
        spec = OdeSpec(dimension=d,
                       f=lambda t, y, x, ay=ay, ax=ax, c=c: ay @ y + ax @ x + c,
                       lipschitz_y=l1, lipschitz_x=l2, f00=f00)
        apriori, _ = ode_bounds(spec)
        m = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0, TWO_PI, size=d)
        t_final = rng.uniform(0.2, 1.5)
        times = np.linspace(0.0, t_final, 513)
        y_samples = m * np.sin(3.0 * times[:, None] + phase[None, :])
        y = _segment_from_samples(times, y_samples)
        x0 = rng.uniform(-1, 1, size=d)
        seg = ode_step(spec, y, _elem(x0), t_final, 512)
        r0 = float(np.max(np.abs(x0)))
        for t, s in zip(seg.times, seg.states):
            bound = apriori.eval(float(t), r0, m)
            assert s.strong_norm <= bound * (1.0 + 1e-8) + 1e-12


def test_ode_bounds_need_declared_constants():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: y * x)
    with pytest.raises(ValueError):
        ode_bounds(spec)


# -- transport_step ----------------------------------------------------------------

def _grid_segment(spec_n, length, arrays, times):
    values = np.array(arrays, dtype=float)
    start = GridFunction1D(n=spec_n, length=length, values=values[0])
    return TrajectorySegment(times, values, np.max(np.abs(values), axis=1),
                             np.zeros(len(values)), _elem(start))


def test_transport_constant_advection_shifts():
    n = 256
    prof = sine_profile()
    spec = TransportSpec(n=n, length=TWO_PI, G=lambda x, v: np.ones_like(x))
    u0 = from_callable(prof.value, n, TWO_PI)
    substeps = 100
    times = np.linspace(0.0, 0.5, substeps + 1)
    v = _grid_segment(n, TWO_PI, [u0.values] * (substeps + 1), times)
    seg = transport_step(spec, v, _elem(u0), 0.5, substeps)
    final = seg.states[-1].state
    exact = prof.value(final.nodes() + 0.5)
    assert np.max(np.abs(final.values - exact)) <= 1e-3


def test_transport_pure_source_exact():
    n = 64
    spec = TransportSpec(n=n, length=TWO_PI,
                         G=lambda x, v: np.zeros_like(x),
                         g=lambda x, u: np.ones_like(u))
    u0 = from_callable(np.sin, n, TWO_PI)
    substeps = 20
    times = np.linspace(0.0, 0.7, substeps + 1)
    v = _grid_segment(n, TWO_PI, [u0.values] * (substeps + 1), times)
    seg = transport_step(spec, v, _elem(u0), 0.7, substeps)
    assert np.max(np.abs(seg.states[-1].state.values - (u0.values + 0.7))) < 1e-12


def test_transport_frozen_burgers_input_matches_oracle():
    # freeze v at the exact pre-shock solution; the linear solve must
    # reproduce it
    n = 1024
    prof = sine_profile()
    spec = TransportSpec(n=n, length=TWO_PI, G=lambda x, v: -v)
    u0 = from_callable(prof.value, n, TWO_PI)
    substeps = 40
    times = np.linspace(0.0, 0.2, substeps + 1)
    xs = u0.nodes()
    v_arrays = [np.asarray(burgers_profile_at(prof, float(t), xs)) for t in times]
    v = _grid_segment(n, TWO_PI, v_arrays, times)
    seg = transport_step(spec, v, _elem(u0), 0.2, substeps)
    oracle = burgers_profile_at(prof, 0.2, xs)
    assert np.max(np.abs(seg.states[-1].state.values - oracle)) <= 5e-3


def test_transport_advection_preserves_sup_norm():
    # constant-coefficient advection is an isometry up to interpolation error
    n = 512
    prof = sine_profile()
    inst_spec = TransportSpec(n=n, length=TWO_PI, G=lambda x, v: np.ones_like(x))
    u0 = from_callable(prof.value, n, TWO_PI)
    substeps = 64
    times = np.linspace(0.0, 1.0, substeps + 1)
    v = _grid_segment(n, TWO_PI, [u0.values] * (substeps + 1), times)
    seg = transport_step(inst_spec, v, _elem(u0), 1.0, substeps)
    for s in seg.states:
        assert abs(sup_norm(s.state) - sup_norm(u0)) <= 1e-4


def test_transport_characteristic_blowup_guard():
    n = 64
    spec = TransportSpec(n=n, length=TWO_PI, G=lambda x, v: 100.0 * np.ones_like(x))
    u0 = from_callable(np.sin, n, TWO_PI)
    times = np.linspace(0.0, 1.0, 3)
    v = _grid_segment(n, TWO_PI, [u0.values] * 3, times)
    with pytest.raises(CharacteristicBlowup):
        transport_step(spec, v, _elem(u0), 1.0, 2)


def test_transport_overflow_inside_a_block_names_the_first_non_finite_row():
    # finiteness is checked once per block; with n = 16 one block holds all
    # 256 substeps, and u' = 1e150 u^2 first overflows at row 90 of them
    substeps, window = 256, 3e-150
    assert max(1, instances._BLOCK_POINTS // 16) == substeps
    spec, v, x0 = _transport_case(16, substeps, window, 0.0, "cubic", "overflow", 0, 1.0)
    message = f"state overflowed at t={np.linspace(0.0, window, substeps + 1)[90]}"
    with pytest.raises(NonFiniteState) as want:
        _reference_step(spec, v, x0.state, window, substeps, 0.0)
    with pytest.raises(NonFiniteState) as got:
        transport_step(spec, v, x0, window, substeps, 0.0)
    assert str(got.value) == str(want.value) == message


def test_transport_grid_mismatch_rejected():
    spec = TransportSpec(n=64, length=TWO_PI, G=lambda x, v: -v)
    u0 = from_callable(np.sin, 32, TWO_PI)
    times = np.linspace(0.0, 0.1, 3)
    v = _grid_segment(32, TWO_PI, [u0.values] * 3, times)
    with pytest.raises(ValueError):
        transport_step(spec, v, _elem(u0), 0.1, 2)


# -- bundled instances ----------------------------------------------------------

def test_burgers_zero_data_fixed_in_one_iterate():
    from twonorm.core import SolverConfig, WindowPlan, picard_window

    inst = make_burgers_instance(64)
    u0 = GridFunction1D(n=64, length=TWO_PI, values=np.zeros(64))
    x0 = make_element(inst, u0)
    plan = WindowPlan(K=1.0, t_start=0.0, t_end=0.5)
    seg, rec = picard_window(inst, x0, plan, SolverConfig(substeps_per_window=8))
    assert rec.picard_iters == 1  # d_1 = 0: already the fixed point
    assert all(np.all(s.state.values == 0.0) for s in seg.states)


def test_burgers_constant_data_stays_constant():
    from twonorm.core import SolverConfig, WindowPlan, picard_window

    inst = make_burgers_instance(64)
    u0 = GridFunction1D(n=64, length=TWO_PI, values=np.full(64, 0.8))
    x0 = make_element(inst, u0)
    plan = WindowPlan(K=2.0, t_start=0.0, t_end=0.5)
    seg, _ = picard_window(inst, x0, plan, SolverConfig(substeps_per_window=8))
    for s in seg.states:
        assert np.max(np.abs(s.state.values - 0.8)) < 1e-12


def test_instance_constructors_validate_n():
    with pytest.raises(ValueError):
        make_burgers_instance(8)
    with pytest.raises(ValueError):
        make_advect_instance(4)


def test_bundled_instances_embed_weak_into_strong():
    # the weak norm never exceeds the strong norm
    rng = np.random.default_rng(9)
    inst = make_burgers_instance(64)
    for _ in range(20):
        e = make_element(inst, GridFunction1D(n=64, length=TWO_PI,
                                              values=rng.normal(size=64)))
        assert e.weak_norm <= e.strong_norm
    from twonorm.instances import make_decay_instance

    ode = make_decay_instance()
    for _ in range(20):
        e = make_element(ode, rng.normal(size=3))
        assert e.weak_norm <= e.strong_norm


def test_stability_bounds_nondecreasing_in_time():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: 2.0 * y - 3.0 * x,
                   lipschitz_y=2.0, lipschitz_x=3.0, f00=0.0)
    _, stab = ode_bounds(spec)
    ts = np.linspace(0.0, 2.0, 40)
    for r in (0.2, 1.0, 7.0):
        bs = [stab.b(t, r) for t in ts]
        cs = [stab.c(t, r) for t in ts]
        assert all(x <= y for x, y in zip(bs, bs[1:]))
        assert all(x <= y for x, y in zip(cs, cs[1:]))
