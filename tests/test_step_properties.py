"""Properties of the blocked transport step, the ODE step, the steps' cap and the coupled steps.

The transport reference below is the straightforward per-substep sweep:
trace one substep's feet (from the frozen input, or from its own rows for
the coupled start), interpolate, apply the source, check the row, then
move on. The blocked step, in both modes, must reproduce it bitwise,
values and both norms, including the exception and the substep at which
it is raised. The ODE step, followed by the row check picard_window
applies to it, must likewise reproduce _reference_ode_step, its loop with
per-substep scalar times and float stage factors.
"""

import contextlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twonorm import instances
from twonorm.core import (
    CapExceeded,
    NonFiniteState,
    NormedPairElement,
    TrajectorySegment,
    WindowFailure,
    reject_rows,
)
from twonorm.grids import GridFunction1D, interp_values
from twonorm.instances import (
    CharacteristicBlowup,
    OdeSpec,
    TransportSpec,
    _means,
    _ode_midpoints,
    _sup_dist,
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
    "growth": (lambda x, v: -v, lambda x, u: 10.0 * u),  # caps crossed, then feet blown
    "overflow": (lambda x, v: -v, lambda x, u: 1e150 * u * u),  # NonFiniteState
    "overflow-G": (lambda x, v: -1e300 * (1e10 * v), None),  # NaN feet
}


def _sup(u):
    return float(np.max(np.abs(u)))


def _lip(u, length):
    dx = length / len(u)
    return float(np.max(np.abs(u)) + np.max(np.abs(np.roll(u, -1) - u) / dx))


def _checked(t, u, length, cap):
    """u's sup and Lipschitz norms, after core.reject_rows' checks of the row at time t."""
    sup, lip = _sup(u), _lip(u, length)
    if not math.isfinite(sup):
        what = "is not a number" if math.isnan(sup) else "overflowed"
        raise NonFiniteState(f"state {what} at t={t}")
    if cap is not None and not lip <= cap:
        raise CapExceeded(f"strong norm {lip} exceeds cap {cap} by t={t}")
    return sup, lip


def _reference_sweep(spec, v_traj, u0, coupled=False, cap=None):
    """Per-substep semi-Lagrangian sweep on v_traj's times, built on grids.interp_values.

    Yields (t, u, sup, lip) for each row after the first. Coupled, v at a
    substep's start and end comes from the rows solved so far: u_k and
    2 u_k - u_{k-1} (u_k at the first substep). Each row is checked as soon
    as it is made: finite first, then its Lipschitz norm against cap.
    """
    length, scheme = spec.length, spec.interpolation
    times = v_traj.times
    nodes = u0.nodes()
    u = prev = u0.values
    _checked(float(times[0]), u, length, cap)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(times) - 1):
            h = float(times[k + 1] - times[k])
            if coupled:
                v_start, v_end = u, 2.0 * u - prev if k else u
            else:
                v_start, v_end = v_traj.values[k], v_traj.values[k + 1]
            x_half = nodes + 0.5 * h * spec.G(nodes, v_end)
            v_at_half = interp_values(0.5 * (v_start + v_end), length, x_half, scheme)
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
            prev, u = u, np.asarray(u_next, dtype=np.float64)
            t = float(times[k + 1])
            yield (t, u, *_checked(t, u, length, cap))


def _reference_step(spec, v_traj, u0, coupled=False, cap=None):
    return list(_reference_sweep(spec, v_traj, u0, coupled, cap))


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


def _transport_cases(kinds):
    return st.tuples(
        st.integers(16, 300),                   # n: blocks of max(1, _BLOCK_POINTS // n) rows
        st.integers(1, 80),                     # substeps
        st.floats(1e-3, 2.0),                   # window
        st.floats(0.0, 5.0),                    # t_start
        st.sampled_from(["linear", "cubic"]),
        st.sampled_from(kinds),
        st.integers(0, 2**31 - 1),              # data seed
        st.sampled_from([0.0, 1.0, 50.0]),      # frozen-field size; large trips the guard
    )


transport_cases = _transport_cases(sorted(COEFFICIENTS))


def _assert_step_matches_reference(case, coupled):
    substeps = case[1]
    spec, v_traj, x0 = _transport_case(*case)
    want, want_err = _outcome(lambda: _reference_step(spec, v_traj, x0.state, coupled))
    got, got_err = _outcome(
        lambda: transport_step(spec, v_traj, x0, substeps=substeps, coupled=coupled))
    assert got_err == want_err
    if want_err is not None:
        return
    assert got.states[0] is x0
    assert len(got.states) == len(want) + 1
    for t, state, (t_ref, u, sup, lip) in zip(got.times[1:], got.states[1:], want):
        assert t == t_ref
        assert state.state.values.tobytes() == u.tobytes()
        assert (state.weak_norm, state.strong_norm) == (sup, lip)


@settings(max_examples=80)
@given(transport_cases)
def test_blocked_transport_step_matches_per_substep_sweep(case):
    _assert_step_matches_reference(case, coupled=False)


@settings(max_examples=80)
@given(transport_cases)
def test_coupled_transport_step_matches_per_substep_sweep(case):
    # the coupled step traces each substep inside a block from its own rows
    # and checks the block's rows once it is filled
    _assert_step_matches_reference(case, coupled=True)


@pytest.mark.parametrize("n,substeps", [(300, 80), (600, 80), (17, 1), (1024, 9), (4096, 3),
                                        (8192, 3)])
def test_blocked_step_uneven_blocks(n, substeps):
    # blocks of 8192 // n rows: 27 at n = 300 (80 = 2 * 27 + 26), 13 at n = 600
    # (80 = 6 * 13 + 2), 8 at n = 1024 and 2 at n = 4096, each then ending in a
    # one-row block; n = 8192 gives one row per block
    spec, v_traj, x0 = _transport_case(n, substeps, 0.3, 0.25, "cubic", "burgers+source", 3, 1.0)
    want = _reference_step(spec, v_traj, x0.state)
    got = transport_step(spec, v_traj, x0, substeps=substeps)
    for state, (_, u, sup, lip) in zip(got.states[1:], want):
        assert state.state.values.tobytes() == u.tobytes()
        assert (state.weak_norm, state.strong_norm) == (sup, lip)


def test_transport_rows_are_shared_read_only():
    spec, v_traj, x0 = _transport_case(64, 12, 0.2, 0.0, "cubic", "burgers", 5, 1.0)
    seg = transport_step(spec, v_traj, x0, substeps=12)
    for s in seg.states[1:]:
        assert not s.state.values.flags.writeable
        base = s.state.values.base
        assert base is not None and not base.flags.writeable


# -- fail-fast cap ----------------------------------------------------------------

def _cap_from(strong, j, factor):
    return float(strong[j % len(strong)]) * factor


@settings(max_examples=60)
@given(transport_cases, st.integers(0, 10**6), st.sampled_from([0.5, 0.99, 1.0, 1.01]))
def test_transport_cap_raises_exactly_when_uncapped_norm_exceeds_it(case, j, factor):
    substeps = case[1]
    spec, v_traj, x0 = _transport_case(*case)
    free, err = _outcome(lambda: transport_step(spec, v_traj, x0, substeps=substeps))
    assume(err is None)
    cap = _cap_from(free.strong, j, factor)
    capped, capped_err = _outcome(
        lambda: transport_step(spec, v_traj, x0, substeps=substeps, cap=cap))
    if float(np.max(free.strong)) > cap:
        assert capped_err is not None and capped_err[0] is CapExceeded
        crossing = int(np.argmax(free.strong > cap))
        assert capped_err[1].endswith(f"by t={float(free.times[crossing])}")
    else:
        assert capped_err is None
        assert [s.strong_norm for s in capped.states] == [s.strong_norm for s in free.states]


@settings(max_examples=60)
@given(_transport_cases(["burgers", "burgers+source", "growth", "source"]),  # norms mostly grow
       st.booleans(), st.integers(0, 10**6))
def test_transport_cap_crossing_inside_a_block_matches_the_row_by_row_reference(case, coupled,
                                                                               j):
    # the cap is first crossed at a row that is not the last of its block, so
    # the step goes on past it before it checks the block's rows
    n, substeps = case[0], case[1]
    spec, v_traj, x0 = _transport_case(*case)
    strong = [x0.strong_norm]
    with contextlib.suppress(WindowFailure):  # the rows before a failure still count
        for *_, lip in _reference_sweep(spec, v_traj, x0.state, coupled):
            strong.append(lip)
    block = max(1, instances._BLOCK_POINTS // n)
    running = np.maximum.accumulate(strong)
    inside = [k for k in range(1, len(strong))
              if k % block and k < substeps and strong[k] > running[k - 1]]
    assume(inside)
    k = inside[j % len(inside)]
    cap = float(running[k - 1])
    _, want_err = _outcome(lambda: _reference_step(spec, v_traj, x0.state, coupled, cap))
    assert want_err == (CapExceeded,
                        f"strong norm {strong[k]} exceeds cap {cap} by t={float(v_traj.times[k])}")
    _, got_err = _outcome(lambda: transport_step(spec, v_traj, x0, substeps=substeps, cap=cap,
                                                 coupled=coupled))
    assert got_err == want_err


def test_transport_cap_crossing_before_an_overflow_in_one_block_names_the_crossing_row():
    # with n = 16 one block holds all 256 substeps, and u' = 1e150 u^2 overflows
    # at row 90 of them; the cap is crossed earlier in the same block
    substeps, window = 256, 3e-150
    spec, v, x0 = _transport_case(16, substeps, window, 0.0, "cubic", "overflow", 0, 1.0)
    with pytest.raises(NonFiniteState) as err:
        transport_step(spec, v, x0, substeps=substeps)
    assert str(err.value) == f"state overflowed at t={float(v.times[90])}"
    # the first 89 substeps alone: the same rows, all finite
    head = TrajectorySegment(v.times[:90], v.values[:90], v.weak[:90], v.strong[:90], x0)
    free = transport_step(spec, head, x0, substeps=89)
    cap = 2.0 * x0.strong_norm
    crossing = int(np.argmax(free.strong > cap))
    assert 0 < crossing < 89
    with pytest.raises(CapExceeded) as err:
        transport_step(spec, v, x0, substeps=substeps, cap=cap)
    assert str(err.value).endswith(f"by t={float(v.times[crossing])}")


def test_transport_cap_failure_carries_the_crossing_row_not_the_block_end():
    # u' = 1 raises every row's Lipschitz norm by t; with n = 16 one block
    # holds all 256 substeps, so the block ends at the window's end
    substeps, window = 256, 0.5
    spec, v, x0 = _transport_case(16, substeps, window, 0.0, "cubic", "source", 0, 1.0)
    free = transport_step(spec, v, x0, substeps=substeps)
    cap = float(0.5 * (free.strong[0] + free.strong[-1]))
    crossing = int(np.argmax(free.strong > cap))
    assert 0 < crossing < substeps
    with pytest.raises(CapExceeded) as err:
        transport_step(spec, v, x0, substeps=substeps, cap=cap)
    exc = err.value
    assert (exc.t, exc.value, exc.limit) == (
        float(free.times[crossing]), float(free.strong[crossing]), cap)


# -- block size -------------------------------------------------------------------

@settings(max_examples=100)
@given(transport_cases, st.booleans(), st.data())
def test_every_block_size_gives_the_per_substep_sweep_bitwise(case, coupled, data):
    # _BLOCK_POINTS drawn for blocks of one row up to the whole window, and a cap
    # (or none) first crossed at a drawn row, which is often inside a block
    n, substeps = case[0], case[1]
    spec, v_traj, x0 = _transport_case(*case)
    points = data.draw(st.integers(0, substeps + 1).flatmap(
        lambda rows: st.integers(rows * n, rows * n + n - 1)), label="_BLOCK_POINTS")
    strong = [x0.strong_norm]
    with contextlib.suppress(WindowFailure):  # the rows before a failure still count
        for *_, lip in _reference_sweep(spec, v_traj, x0.state, coupled):
            strong.append(lip)
    running = np.maximum.accumulate(strong)
    rises = [k for k in range(1, len(strong)) if strong[k] > running[k - 1]]
    # row 0, judged with the first block, crosses a cap of half its norm
    crossing = data.draw(st.sampled_from([None, 0, *rises]), label="crossing row")
    cap = (None if crossing is None
           else 0.5 * strong[0] if crossing == 0 else float(running[crossing - 1]))
    a = v_traj.values.copy()
    nan_at = data.draw(st.none() | st.tuples(st.integers(0, substeps), st.integers(0, n - 1)),
                       label="NaN entry")
    if nan_at is not None:
        a[nan_at] = math.nan
    want, want_err = _outcome(lambda: _reference_step(spec, v_traj, x0.state, coupled, cap))
    with mock.patch.object(instances, "_BLOCK_POINTS", points):
        got, got_err = _outcome(lambda: transport_step(spec, v_traj, x0, substeps=substeps,
                                                       cap=cap, coupled=coupled))
        assert repr(_sup_dist(a, v_traj.values[::-1])) == repr(
            _sup_dist_of_blocks(a, v_traj.values[::-1]))
    assert got_err == want_err
    if want_err is None:
        assert got.values[1:].tobytes() == np.array([u for _, u, _, _ in want]).tobytes()
        assert got.weak[1:].tolist() == [sup for *_, sup, _ in want]
        assert got.strong[1:].tolist() == [lip for *_, lip in want]


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


def _judged_ode_step(spec, y_traj, x0, cap=None, **kwargs):
    """ode_step, then the row check picard_window applies to every returned iterate."""
    seg = ode_step(spec, y_traj, x0, cap=cap, **kwargs)
    reject_rows(seg.times, seg.weak, seg.strong, cap)
    return seg


@settings(max_examples=120)
@given(st.sampled_from(sorted(ODE_SPECS)), st.integers(1, 80), st.floats(1e-3, 2.0),
       st.floats(0.0, 5.0), st.integers(0, 2**31 - 1), st.integers(0, 10**6),
       st.sampled_from([0.5, 0.99, 1.0, 1.01]))
def test_ode_cap_raises_exactly_when_uncapped_norm_exceeds_it(name, substeps, window, t_start,
                                                              seed, j, factor):
    # the step finishes the window, then the row check that picard_window
    # applies to its output raises for the earliest offending row
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
        lambda: _judged_ode_step(spec, y, x0, substeps=substeps, cap=cap))
    crossing = next((k for k, v in enumerate(free_norms) if v > cap), None)
    if crossing is not None:  # a finite state crosses the cap before any overflow
        assert capped_err[0] is CapExceeded
        assert capped_err[1].endswith(f"by t={float(times[crossing])}")
    elif len(free) < len(times):  # the overflow comes before any crossing
        assert capped_err == (NonFiniteState, f"state overflowed at t={float(times[len(free)])}")
    else:  # bitwise the uncapped run, which is the one-substep-at-a-time sweep
        assert capped_err is None
        uncapped = ode_step(spec, y, x0, substeps=substeps)
        assert capped.values.tobytes() == uncapped.values.tobytes() == np.array(free).tobytes()
        assert capped.strong.tobytes() == uncapped.strong.tobytes()
        assert capped.strong.tolist() == free_norms


@settings(max_examples=80)
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
        _judged_ode_step(spec, y, x0, substeps=substeps, cap=cap)
    exc = err.value
    assert (exc.t, exc.value, exc.limit) == (float(times[crossing]), free_norms[crossing], cap)


@settings(max_examples=60)
@given(st.sampled_from(sorted(ODE_SPECS)), st.integers(1, 80), st.floats(1e-3, 2.0),
       st.floats(0.0, 5.0), st.integers(0, 2**31 - 1), st.booleans())
def test_an_ode_cap_below_row_0_changes_no_bit(name, substeps, window, t_start, seed, coupled):
    # the ODE step leaves its rows to picard_window's check, so a cap under
    # row 0 gives the rows of cap=None, which the check then rejects at row 0
    spec = ODE_SPECS[name]
    rng = np.random.default_rng(seed)
    times = np.linspace(t_start, t_start + window, substeps + 1)
    rows = rng.uniform(-2.0, 2.0, size=(substeps + 1, spec.dimension))
    norms = np.max(np.abs(rows), axis=1)
    x0 = NormedPairElement(rows[0], _sup(rows[0]), _sup(rows[0]))
    y = TrajectorySegment(times, rows, norms, norms, x0)
    cap = 0.5 * x0.strong_norm
    capped = ode_step(spec, y, x0, substeps=substeps, cap=cap, coupled=coupled)
    free = ode_step(spec, y, x0, substeps=substeps, coupled=coupled)
    for field in ("times", "values", "weak", "strong"):
        assert getattr(capped, field).tobytes() == getattr(free, field).tobytes()
    with pytest.raises(CapExceeded) as err:
        reject_rows(capped.times, capped.weak, capped.strong, cap)
    assert (err.value.t, err.value.limit) == (float(times[0]), cap)


def _reference_ode_step(spec, y_traj, x0, substeps, cap=None, coupled=False):
    """The ODE step's loop as it read before its stage factors became (1,) rows:
    t and h read per substep as numpy scalars, float factors, 2.0 * k."""
    times = y_traj.times
    xs = np.empty((substeps + 1, spec.dimension))
    xs[0] = x0.state
    x = xs[0]
    f = spec.f
    with np.errstate(over="ignore", invalid="ignore"):
        y_ends = y_traj.values
        y_mids = None if coupled else _ode_midpoints(y_ends)
        for k in range(substeps):
            t_k = float(times[k])
            h = float(times[k + 1] - times[k])
            k1 = f(t_k, x if coupled else y_ends[k], x)
            x2 = x + 0.5 * h * k1
            k2 = f(t_k + 0.5 * h, x2 if coupled else y_mids[k], x2)
            x3 = x + 0.5 * h * k2
            k3 = f(t_k + 0.5 * h, x3 if coupled else y_mids[k], x3)
            x4 = x + h * k3
            k4 = f(t_k + h, x4 if coupled else y_ends[k + 1], x4)
            xs[k + 1] = x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norms = np.max(np.abs(xs), axis=1)
    reject_rows(times, norms, norms, cap)
    return TrajectorySegment(times, xs, norms, norms, x0)


# right-hand sides that read t, so the times each stage passes to f show in the bits
ODE_RHS = {
    "poly+forcing": lambda a, b, c, w: lambda t, y, x: a * y + b * x * x + c * np.sin(w * t),
    "time-coefficient": lambda a, b, c, w: lambda t, y, x: (a * t) * y + b * x + c * np.cos(w * t),
    "riccati-forced": lambda a, b, c, w: lambda t, y, x: y * x + c * np.sin(w * t),
}


def _failure(fn):
    try:
        return fn(), None
    except WindowFailure as exc:
        return None, (type(exc), str(exc), exc.t, exc.value, exc.limit)


def _recording(spec, calls):
    """spec with an f that first appends its call's t (type and bits), y and x to calls."""
    def f(t, y, x):
        calls.append((type(t), float.hex(t), np.asarray(y).tobytes(), np.asarray(x).tobytes()))
        return spec.f(t, y, x)
    return replace(spec, f=f)


@settings(max_examples=200)
@given(st.sampled_from(sorted(ODE_RHS)), st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       st.floats(-20.0, 20.0), st.integers(1, 3),
       st.one_of(st.integers(1, 3), st.integers(4, 80)),
       st.one_of(st.floats(-100.0, 100.0), st.floats(-1.0, 0.0)),  # the latter: span x it
       st.floats(1e-6, 4.0), st.booleans(), st.one_of(st.none(), st.floats(1.0, 50.0)),
       st.integers(0, 2**31 - 1))
def test_ode_step_is_bitwise_the_per_substep_reference(kind, abc, w, dimension, substeps,
                                                       start, span, coupled, cap_factor, seed):
    # every call of f (t's type and bits, y, x), the values, the norms and any
    # failure (class, message, t, value, limit) are the reference's. The inner
    # times are jittered by up to 1e-10 x span, within what the step accepts,
    # and a start in [-1, 0] starts the window at start x span, so it spans
    # t = 0: there t_k + h may differ from the next time. A cap_factor sets the
    # cap at that multiple of |x0|.
    spec = OdeSpec(dimension=dimension, f=ODE_RHS[kind](*abc, w))
    t_start = start * span if -1.0 <= start <= 0.0 else start
    rng = np.random.default_rng(seed)
    times = np.linspace(t_start, t_start + span, substeps + 1)
    times[1:-1] += rng.uniform(-1e-10, 1e-10, substeps - 1) * span
    assume(np.all(times[1:] > times[:-1]))
    rows = rng.uniform(-2.0, 2.0, size=(substeps + 1, dimension))
    norms = np.max(np.abs(rows), axis=1)
    x0 = NormedPairElement(rows[0], norms[0], norms[0])
    y = TrajectorySegment(times, rows, norms, norms, x0)
    cap = None if cap_factor is None else cap_factor * float(norms[0])
    want_calls, got_calls = [], []
    want, want_err = _failure(lambda: _reference_ode_step(
        _recording(spec, want_calls), y, x0, substeps, cap=cap, coupled=coupled))
    got, got_err = _failure(lambda: _judged_ode_step(
        _recording(spec, got_calls), y, x0, substeps=substeps, cap=cap, coupled=coupled))
    assert got_calls == want_calls
    assert repr(got_err) == repr(want_err)  # repr: a NaN value equals itself
    if want_err is None:
        for name in ("times", "values", "weak", "strong"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@settings(max_examples=80)
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
    coupled = ode_step(spec, y, x0, substeps=substeps, coupled=True)
    frozen = ode_step(spec, y, x0, substeps=substeps)
    for name in ("values", "weak", "strong"):
        assert getattr(coupled, name).tobytes() == getattr(frozen, name).tobytes()


@settings(max_examples=60)
@given(st.integers(2, 300), st.integers(1, 40), st.floats(1e-3, 3.0), st.floats(0.0, 5.0),
       st.sampled_from(["linear", "cubic"]), st.integers(0, 2**31 - 1))
def test_coupled_advect_step_is_the_frozen_step(n, substeps, window, t_start, scheme, seed):
    # G = 1 ignores v, so tracing with the coupled start's extrapolated rows,
    # substep by substep, gives the frozen blocked sweep's bits
    spec, v_traj, x0 = _transport_case(n, substeps, window, t_start, scheme, "advect", seed, 1.0)
    coupled = transport_step(spec, v_traj, x0, substeps=substeps, coupled=True)
    frozen = transport_step(spec, v_traj, x0, substeps=substeps)
    for name in ("values", "weak", "strong"):
        assert getattr(coupled, name).tobytes() == getattr(frozen, name).tobytes()


# -- means of neighbouring rows --------------------------------------------------

_EDGES = [np.finfo(float).max, 2.0**-1021, 2.0**-1022, 5e-324, 0.0, 1.0]
_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGES + [-v for v in _EDGES]))


@st.composite
def _rows_with_cancellation(draw):
    """Finite rows; about half are within a few ulps of minus the row before."""
    rows = [draw(_VALUES)]
    for _ in range(draw(st.integers(1, 8))):
        row = draw(_VALUES)
        if draw(st.booleans()):
            row, ulps = -rows[-1], draw(st.integers(-3, 3))
            for _ in range(abs(ulps)):
                row = math.nextafter(row, math.copysign(math.inf, ulps))
            row = row if math.isfinite(row) else -rows[-1]
        rows.append(row)
    return np.array(rows)


@settings(max_examples=400)
@given(_rows_with_cancellation())
def test_means_are_the_plain_mean_bitwise_and_finite_for_finite_rows(rows):
    means = _means(rows)  # an overflow warning would fail the test
    assert np.all(np.isfinite(means))
    for a, b, mean in zip(rows[:-1].tolist(), rows[1:].tolist(), means.tolist()):
        if math.isfinite(a + b) and all(v == 0 or abs(v) >= 2.0**-1021 for v in (a, b)):
            assert np.float64(mean).tobytes() == np.float64(0.5 * (a + b)).tobytes()


# -- frozen-input midpoints of the ODE step -------------------------------------

FIRST_GAIN, GAIN = 139.0 / 64.0, 1.25  # sums of |weights|: first substep, any other
K_LARGE = 8e307  # every row is at most K, and FIRST_GAIN * K is finite
ROUNDING = 1.0 + 8.0 * np.finfo(float).eps  # five rounded products, four rounded sums


def _gains(substeps):
    if substeps < 4:  # the mean
        return np.ones(substeps)
    return np.array([FIRST_GAIN] + [GAIN] * (substeps - 1))


@settings(max_examples=120)
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


def _sup_dist_of_blocks(a, b):
    """_sup_dist as the max of its blocks' maxima, the builtin max's NaN handling included."""
    block = max(1, instances._BLOCK_POINTS // a.shape[-1])
    return max(float(np.max(np.abs(a[k:k + block] - b[k:k + block])))
               for k in range(0, len(a), block))


@settings(max_examples=100)
@given(st.integers(1, 12), st.sampled_from([1, 3, 1024, 2048, instances._BLOCK_POINTS]),
       st.integers(0, 2**32 - 1), st.lists(st.integers(0, 11), max_size=3))
def test_sup_dist_is_the_max_of_its_blocks(rows, n, seed, nan_rows):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, rows, n))
    for r in nan_rows:  # NaN in the first block stays, in a later one is passed over
        a[r % rows, r % n] = math.nan
    assert repr(_sup_dist(a, b)) == repr(_sup_dist_of_blocks(a, b))


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
    seg = ode_step(spec, TrajectorySegment(times, rows, norms, norms, x0), x0, substeps=substeps)
    assert np.all(np.isfinite(seg.values))
    assert np.all(np.abs(seg.values) <= FIRST_GAIN * ROUNDING)


def _ode_fixed_point(spec, x0_value, window, substeps):
    """Iterate the frozen ODE step from its coupled start to its discrete fixed point."""
    x0 = NormedPairElement(np.array([x0_value]), abs(x0_value), abs(x0_value))
    times = np.linspace(0.0, window, substeps + 1)
    rows = np.full((substeps + 1, 1), x0_value)
    norms = np.abs(rows[:, 0])
    seg = ode_step(spec, TrajectorySegment(times, rows, norms, norms, x0), x0,
                   substeps=substeps, coupled=True)
    last = math.inf
    for _ in range(100):
        nxt = ode_step(spec, seg, x0, substeps=substeps)
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


@settings(max_examples=60)
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
