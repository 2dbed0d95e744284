"""Properties of the blocked transport step, the steps' cap and the coupled ODE step.

The reference below is the straightforward per-substep sweep: trace one
substep's feet, interpolate, apply the source, then move on. The blocked
step must reproduce it bitwise, values and both norms, including the
exception and the substep at which it is raised.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twonorm.core import CapExceeded, NormedPairElement, TrajectorySegment, WindowFailure
from twonorm.grids import GridFunction1D, interp_values
from twonorm.instances import (
    CharacteristicBlowup,
    NonFiniteState,
    OdeSpec,
    TransportSpec,
    _ode_midpoints,
    make_linear_ode_instance,
    ode_step,
    transport_step,
)

TWO_PI = 2.0 * math.pi

COEFFICIENTS = {
    "advect": (lambda x, v: np.ones_like(x), None),
    "burgers": (lambda x, v: -v, None),
    "source": (lambda x, v: np.zeros_like(x), lambda x, u: np.ones_like(u)),
    "burgers+source": (lambda x, v: -v, lambda x, u: np.sin(x) - 0.5 * u),
    "overflow": (lambda x, v: -v, lambda x, u: 1e150 * u * u),  # NonFiniteState
    "overflow-G": (lambda x, v: -1e300 * (1e10 * v), None),  # NaN feet
}


def _sup(u):
    return float(np.max(np.abs(u)))


def _lip(u, length):
    dx = length / len(u)
    return float(np.max(np.abs(u)) + np.max(np.abs(np.roll(u, -1) - u) / dx))


def _reference_inputs(v_traj, times):
    """Frozen-field rows at substep ends and midpoints, one substep at a time."""
    v_times = v_traj.times
    raw = list(v_traj.values)
    assert len(v_times) == len(times) and np.allclose(v_times, times, rtol=1e-12, atol=1e-14)
    return raw, [0.5 * (a + b) for a, b in zip(raw[:-1], raw[1:])]


def _reference_step(spec, v_traj, u0, window, substeps, t_start):
    """Per-substep semi-Lagrangian sweep, built on grids.interp_values."""
    length, scheme = spec.length, spec.interpolation
    times = np.linspace(t_start, t_start + window, substeps + 1)
    if len(v_traj.times) == len(times) and np.all(
            np.abs(v_traj.times - times) <= 1e-9 * max(window, 1e-300)):
        times = v_traj.times
    v_ends, v_mids = _reference_inputs(v_traj, times)
    nodes = u0.nodes()
    u = u0.values
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(substeps):
            h = float(times[k + 1] - times[k])
            x_half = nodes + 0.5 * h * spec.G(nodes, v_ends[k + 1])
            v_at_half = interp_values(v_mids[k], length, x_half, scheme)
            foot = nodes + h * spec.G(np.mod(x_half, length), v_at_half)
            if np.max(np.abs(foot - nodes)) > 0.5 * length:
                raise CharacteristicBlowup(
                    "characteristic foot moved more than half the domain in one substep")
            u_foot = interp_values(u, length, foot, scheme)
            if spec.g is not None:
                u_star = u_foot + 0.5 * h * spec.g(np.mod(foot, length), u_foot)
                u_next = u_foot + h * spec.g(np.mod(x_half, length), u_star)
            else:
                u_next = u_foot
            if not np.all(np.isfinite(u_next)):
                what = "is not a number" if math.isnan(_sup(u_next)) else "overflowed"
                raise NonFiniteState(f"state {what} at t={times[k + 1]}")
            u = np.asarray(u_next, dtype=np.float64)
            out.append((times[k + 1], u, _sup(u), _lip(u, length)))
    return out


def _transport_case(n, substeps, window, t_start, scheme, kind, seed, speed):
    rng = np.random.default_rng(seed)
    G, g = COEFFICIENTS[kind]
    spec = TransportSpec(n=n, length=TWO_PI, G=G, g=g, interpolation=scheme)
    nodes = np.arange(n) * (TWO_PI / n)
    u0 = GridFunction1D(n=n, length=TWO_PI,
                        values=np.sin(nodes + rng.uniform(0, TWO_PI)) + 0.1 * rng.normal(size=n))
    x0 = NormedPairElement(u0, _sup(u0.values), _lip(u0.values, TWO_PI))
    times = np.linspace(t_start, t_start + window, substeps + 1)
    rows = [u0.values]
    for _ in range(substeps):
        rows.append(speed * (u0.values + 0.2 * rng.normal(size=n)))
    v_traj = TrajectorySegment(times, np.array(rows), [_sup(r) for r in rows],
                               [_lip(r, TWO_PI) for r in rows], x0)
    return spec, v_traj, x0


def _outcome(fn):
    try:
        return fn(), None
    except WindowFailure as exc:
        return None, (type(exc), str(exc))


transport_cases = st.tuples(
    st.integers(16, 300),                       # n: blocks of max(1, 4096 // n) rows
    st.integers(1, 80),                         # substeps
    st.floats(1e-3, 2.0),                       # window
    st.floats(0.0, 5.0),                        # t_start
    st.sampled_from(["linear", "cubic"]),
    st.sampled_from(sorted(COEFFICIENTS)),
    st.integers(0, 2**31 - 1),                  # data seed
    st.sampled_from([0.0, 1.0, 50.0]),          # frozen-field size; large trips the guard
)


@settings(max_examples=80, deadline=None)
@given(transport_cases)
def test_blocked_transport_step_matches_per_substep_sweep(case):
    n, substeps, window, t_start = case[:4]
    spec, v_traj, x0 = _transport_case(*case)
    want, want_err = _outcome(
        lambda: _reference_step(spec, v_traj, x0.state, window, substeps, t_start))
    got, got_err = _outcome(lambda: transport_step(spec, v_traj, x0, window, substeps, t_start))
    assert got_err == want_err
    if want_err is not None:
        return
    assert got.states[0] is x0
    assert len(got.states) == len(want) + 1
    for t, state, (t_ref, u, sup, lip) in zip(got.times[1:], got.states[1:], want):
        assert t == t_ref
        assert state.state.values.tobytes() == u.tobytes()
        assert (state.weak_norm, state.strong_norm) == (sup, lip)


@pytest.mark.parametrize("n,substeps", [(300, 80), (17, 1), (1024, 9), (4096, 3)])
def test_blocked_step_uneven_blocks(n, substeps):
    # 4096 // 300 = 13 rows per block, 80 = 6 * 13 + 2; n = 4096 gives one row per block
    spec, v_traj, x0 = _transport_case(n, substeps, 0.3, 0.25, "cubic", "burgers+source", 3, 1.0)
    want = _reference_step(spec, v_traj, x0.state, 0.3, substeps, 0.25)
    got = transport_step(spec, v_traj, x0, 0.3, substeps, 0.25)
    for state, (_, u, sup, lip) in zip(got.states[1:], want):
        assert state.state.values.tobytes() == u.tobytes()
        assert (state.weak_norm, state.strong_norm) == (sup, lip)


def test_transport_rows_are_shared_read_only():
    spec, v_traj, x0 = _transport_case(64, 12, 0.2, 0.0, "cubic", "burgers", 5, 1.0)
    seg = transport_step(spec, v_traj, x0, 0.2, 12)
    for s in seg.states[1:]:
        assert not s.state.values.flags.writeable
        base = s.state.values.base
        assert base is not None and not base.flags.writeable


# -- fail-fast cap ----------------------------------------------------------------

def _cap_from(strong, j, factor):
    return float(strong[j % len(strong)]) * factor


@settings(max_examples=60, deadline=None)
@given(transport_cases, st.integers(0, 10**6), st.sampled_from([0.5, 0.99, 1.0, 1.01]))
def test_transport_cap_raises_exactly_when_uncapped_norm_exceeds_it(case, j, factor):
    n, substeps, window, t_start = case[:4]
    spec, v_traj, x0 = _transport_case(*case)
    free, err = _outcome(lambda: transport_step(spec, v_traj, x0, window, substeps, t_start))
    assume(err is None)
    cap = _cap_from(free.strong, j, factor)
    capped, capped_err = _outcome(
        lambda: transport_step(spec, v_traj, x0, window, substeps, t_start, cap=cap))
    if float(np.max(free.strong)) > cap:
        assert capped_err is not None and capped_err[0] is CapExceeded
        crossing = int(np.argmax(free.strong > cap))
        assert capped_err[1].endswith(f"by t={float(free.times[crossing])}")
    else:
        assert capped_err is None
        assert [s.strong_norm for s in capped.states] == [s.strong_norm for s in free.states]


def test_transport_cap_crossing_before_an_overflow_in_one_block_names_the_crossing_row():
    # with n = 16 one block holds all 256 substeps, and u' = 1e150 u^2 overflows
    # at row 90 of them; the cap is crossed earlier in the same block
    substeps, window = 256, 3e-150
    spec, v, x0 = _transport_case(16, substeps, window, 0.0, "cubic", "overflow", 0, 1.0)
    with pytest.raises(NonFiniteState) as err:
        transport_step(spec, v, x0, window, substeps, 0.0)
    assert str(err.value) == f"state overflowed at t={float(v.times[90])}"
    # the first 89 substeps alone: the same rows, all finite
    head = TrajectorySegment(v.times[:90], v.values[:90], v.weak[:90], v.strong[:90], x0)
    free = transport_step(spec, head, x0, float(v.times[89]), 89, 0.0)
    cap = 2.0 * x0.strong_norm
    crossing = int(np.argmax(free.strong > cap))
    assert 0 < crossing < 89
    with pytest.raises(CapExceeded) as err:
        transport_step(spec, v, x0, window, substeps, 0.0, cap=cap)
    assert str(err.value).endswith(f"by t={float(v.times[crossing])}")


def test_transport_cap_failure_carries_the_crossing_row_not_the_block_end():
    # u' = 1 raises every row's Lipschitz norm by t; with n = 16 one block
    # holds all 256 substeps, so the block ends at the window's end
    substeps, window = 256, 0.5
    spec, v, x0 = _transport_case(16, substeps, window, 0.0, "cubic", "source", 0, 1.0)
    free = transport_step(spec, v, x0, window, substeps, 0.0)
    cap = float(0.5 * (free.strong[0] + free.strong[-1]))
    crossing = int(np.argmax(free.strong > cap))
    assert 0 < crossing < substeps
    with pytest.raises(CapExceeded) as err:
        transport_step(spec, v, x0, window, substeps, 0.0, cap=cap)
    exc = err.value
    assert (exc.t, exc.value, exc.limit) == (
        float(free.times[crossing]), float(free.strong[crossing]), cap)


ODE_SPECS = {
    "riccati": OdeSpec(dimension=1, f=lambda t, y, x: y * x),
    "linear": OdeSpec(dimension=2, f=lambda t, y, x: 0.7 * y - 1.3 * x + np.sin(t)),
    # x' = 100 x^2 leaves every bound at 1 / (100 x0) for x0 > 0, then overflows
    "overflow": OdeSpec(dimension=1, f=lambda t, y, x: 100.0 * x * x),
}


def _ode_rows_until_overflow(spec, y_rows, x0, times):
    """The 4-stage sweep one substep at a time, up to the last finite state.

    The frozen input's midpoints come from the step's own rule.
    """
    x = np.array(x0.state, dtype=np.float64)
    out = [x]
    y_mids = _ode_midpoints(y_rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(times) - 1):
            t, h = float(times[k]), float(times[k + 1] - times[k])
            y0, y1, ym = y_rows[k], y_rows[k + 1], y_mids[k]
            k1 = spec.f(t, y0, x)
            k2 = spec.f(t + 0.5 * h, ym, x + 0.5 * h * k1)
            k3 = spec.f(t + 0.5 * h, ym, x + 0.5 * h * k2)
            k4 = spec.f(t + h, y1, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                break
            out.append(x)
    return out


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ODE_SPECS)), st.integers(1, 80), st.floats(1e-3, 2.0),
       st.floats(0.0, 5.0), st.integers(0, 2**31 - 1), st.integers(0, 10**6),
       st.sampled_from([0.5, 0.99, 1.0, 1.01]))
def test_ode_cap_raises_exactly_when_uncapped_norm_exceeds_it(name, substeps, window, t_start,
                                                              seed, j, factor):
    # the step finishes the window, then raises for the earliest offending row
    spec = ODE_SPECS[name]
    rng = np.random.default_rng(seed)
    times = np.linspace(t_start, t_start + window, substeps + 1)
    rows = rng.uniform(-2.0, 2.0, size=(substeps + 1, spec.dimension))
    norms = np.max(np.abs(rows), axis=1)
    x0 = NormedPairElement(rows[0], _sup(rows[0]), _sup(rows[0]))
    y = TrajectorySegment(times, rows, norms, norms, x0)
    free = _ode_rows_until_overflow(spec, rows, x0, times)
    free_norms = [_sup(x) for x in free]
    # half the caps sit at the largest finite norm, so runs without a crossing are common
    cap = _cap_from(free_norms + [max(free_norms)] * len(free_norms), j, factor)
    capped, capped_err = _outcome(
        lambda: ode_step(spec, y, x0, window, substeps, t_start, cap=cap))
    crossing = next((k for k, v in enumerate(free_norms) if v > cap), None)
    if crossing is not None:  # a finite state crosses the cap before any overflow
        assert capped_err[0] is CapExceeded
        assert capped_err[1].endswith(f"by t={float(times[crossing])}")
    elif len(free) < len(times):  # the overflow comes before any crossing
        assert capped_err == (NonFiniteState, f"state overflowed at t={float(times[len(free)])}")
    else:  # bitwise the uncapped run, which is the one-substep-at-a-time sweep
        assert capped_err is None
        uncapped = ode_step(spec, y, x0, window, substeps, t_start)
        assert capped.values.tobytes() == uncapped.values.tobytes() == np.array(free).tobytes()
        assert capped.strong.tobytes() == uncapped.strong.tobytes()
        assert capped.strong.tolist() == free_norms


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(ODE_SPECS)), st.integers(1, 80), st.floats(1e-3, 2.0),
       st.floats(0.0, 5.0), st.integers(0, 2**31 - 1), st.integers(0, 10**6))
def test_ode_cap_failure_carries_the_crossing_row(name, substeps, window, t_start, seed, j):
    # the reference scan's first row over the cap names t, value and limit
    spec = ODE_SPECS[name]
    rng = np.random.default_rng(seed)
    times = np.linspace(t_start, t_start + window, substeps + 1)
    rows = rng.uniform(-2.0, 2.0, size=(substeps + 1, spec.dimension))
    norms = np.max(np.abs(rows), axis=1)
    x0 = NormedPairElement(rows[0], _sup(rows[0]), _sup(rows[0]))
    y = TrajectorySegment(times, rows, norms, norms, x0)
    free_norms = [_sup(x) for x in _ode_rows_until_overflow(spec, rows, x0, times)]
    cap = _cap_from(free_norms, j, 0.99)
    crossing = next(k for k, v in enumerate(free_norms) if v > cap)
    with pytest.raises(CapExceeded) as err:
        ode_step(spec, y, x0, window, substeps, t_start, cap=cap)
    exc = err.value
    assert (exc.t, exc.value, exc.limit) == (float(times[crossing]), free_norms[crossing], cap)


@settings(max_examples=80, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.integers(1, 3), st.integers(1, 80),
       st.floats(1e-3, 2.0), st.floats(0.0, 5.0), st.integers(0, 2**31 - 1))
def test_coupled_ode_step_is_the_frozen_step_when_f_ignores_y(b, forcing, dimension, substeps,
                                                               window, t_start, seed):
    # x' = b x + forcing: the coupled stages feed f the same x arguments as
    # the frozen solve from the constant start, so decay's bytes stay as they are
    spec = make_linear_ode_instance(0.0, b, forcing, dimension).spec
    row = np.random.default_rng(seed).uniform(-2.0, 2.0, dimension)
    x0 = NormedPairElement(row, _sup(row), _sup(row))
    times = np.linspace(t_start, t_start + window, substeps + 1)
    y = TrajectorySegment(times, np.broadcast_to(row, (substeps + 1, dimension)),
                          np.full(substeps + 1, x0.weak_norm),
                          np.full(substeps + 1, x0.strong_norm), x0)
    coupled = ode_step(spec, y, x0, window, substeps, t_start, coupled=True)
    frozen = ode_step(spec, y, x0, window, substeps, t_start)
    for name in ("values", "weak", "strong"):
        assert getattr(coupled, name).tobytes() == getattr(frozen, name).tobytes()


# -- frozen-input midpoints of the ODE step -------------------------------------

FIRST_GAIN, GAIN = 139.0 / 64.0, 1.25  # sums of |weights|: first substep, any other
K_LARGE = 8e307  # every row is at most K, and FIRST_GAIN * K is finite
ROUNDING = 1.0 + 8.0 * np.finfo(float).eps  # five rounded products, four rounded sums


def _gains(substeps):
    if substeps < 4:  # the mean
        return np.ones(substeps)
    return np.array([FIRST_GAIN] + [GAIN] * (substeps - 1))


@settings(max_examples=120, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(2, 41)).flatmap(lambda shape: st.tuples(
    st.just(shape[0]),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=shape[0] * shape[1],
             max_size=shape[0] * shape[1]),
    st.sampled_from([1.0, 0.999, 0.5, 0.0]))))
def test_midpoints_of_rows_up_to_k_stay_within_their_gain(case):
    # adversarial signs at |row| <= K: scaling each term before the sum keeps
    # every midpoint finite, where summing the differences first overflows
    dimension, signs, shrink = case
    fractions = [1.0 if i % 3 else shrink for i in range(len(signs))]
    rows = (K_LARGE * np.array(signs) * np.array(fractions)).reshape(-1, dimension)
    mids = _ode_midpoints(rows)  # an overflow warning would fail the test
    substeps = len(rows) - 1
    assert mids.shape == (substeps, dimension)
    assert np.all(np.isfinite(mids))
    assert np.all(np.abs(mids) <= _gains(substeps)[:, None] * K_LARGE * ROUNDING)


def test_midpoint_gains_are_attained():
    k = K_LARGE
    # signs that match the weights of the first, an inner and the last stencil
    first = _ode_midpoints(np.array([[k], [k], [-k], [k], [-k]]))
    assert first[0, 0] == pytest.approx(FIRST_GAIN * k, rel=1e-15)
    inner = _ode_midpoints(np.array([[-k], [k], [k], [-k], [0.0]]))
    assert inner[1, 0] == pytest.approx(GAIN * k, rel=1e-15)
    last = _ode_midpoints(np.array([[0.0], [0.0], [-k], [k], [k]]))
    assert last[-1, 0] == pytest.approx(GAIN * k, rel=1e-15)


def test_ode_step_on_rows_up_to_k_stays_finite_without_warnings():
    # x' = y / K integrates the frozen input; an infinite midpoint would
    # end the solve in NonFiniteState
    k = K_LARGE
    spec = OdeSpec(dimension=1, f=lambda t, y, x: y * (1.0 / k))
    substeps = 9
    times = np.linspace(0.0, 1.0, substeps + 1)
    rows = k * np.array([[1.0], [1.0], [-1.0], [1.0], [-1.0], [1.0], [-1.0], [-1.0], [1.0], [1.0]])
    norms = np.max(np.abs(rows), axis=1)
    x0 = NormedPairElement(np.array([0.0]), 0.0, 0.0)
    seg = ode_step(spec, TrajectorySegment(times, rows, norms, norms, x0), x0, 1.0, substeps)
    assert np.all(np.isfinite(seg.values))
    assert np.all(np.abs(seg.values) <= FIRST_GAIN * ROUNDING)


def _ode_fixed_point(spec, x0_value, window, substeps):
    """Iterate the frozen ODE step from its coupled start to its discrete fixed point."""
    x0 = NormedPairElement(np.array([x0_value]), abs(x0_value), abs(x0_value))
    times = np.linspace(0.0, window, substeps + 1)
    rows = np.full((substeps + 1, 1), x0_value)
    norms = np.abs(rows[:, 0])
    seg = ode_step(spec, TrajectorySegment(times, rows, norms, norms, x0), x0, window,
                   substeps, coupled=True)
    last = math.inf
    for _ in range(100):
        nxt = ode_step(spec, seg, x0, window, substeps)
        dist = float(np.max(np.abs(nxt.values - seg.values)))
        seg = nxt
        if dist == 0.0 or dist >= last:  # converged to rounding
            break
        last = dist
    assert dist <= 1e-13
    return seg


@pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.5, 0.5), (2.0, -1.0)])
def test_converged_frozen_solve_is_fourth_order(a, b):
    # the fixed point of x' = a y + b x, not its first iterate: with the
    # midpoint mean its observed order is 2
    spec = make_linear_ode_instance(a, b).spec
    errs = [abs(_ode_fixed_point(spec, 1.0, 1.0, m).values[-1, 0] - math.exp(a + b))
            for m in (32, 64, 128)]
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
    assert min(orders) >= 3.8


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(_unit, _unit, _unit, st.floats(-2.0, 2.0), st.floats(0.01, 1.0), st.integers(4, 64))
def test_converged_frozen_solve_matches_the_closed_form(a, b, c, x0, window, substeps):
    # x' = a y + b x + c has the fixed point x' = lam x + c, lam = a + b; its
    # error is bounded by h^4 times the derivatives that the step's RK4 stages
    # (x^(5) ~ lam^4) and the midpoint stencils (a x''' ~ a lam^2) leave out
    lam = a + b
    seg = _ode_fixed_point(make_linear_ode_instance(a, b, c).spec, x0, window, substeps)
    t = seg.times
    # x0 e^(lam t) + c (e^(lam t) - 1) / lam, without cancellation at small lam
    growth = np.expm1(lam * t) / lam if abs(lam) > 1e-9 else t * (1.0 + 0.5 * lam * t)
    exact = x0 * np.exp(lam * t) + c * growth
    h = window / substeps
    bound = (20.0 * window * h ** 4 * math.exp(abs(lam) * window) * abs(lam * x0 + c)
             * (lam ** 4 + abs(a) * lam ** 2) + 1e-11)
    assert float(np.max(np.abs(seg.values[:, 0] - exact))) <= bound
