import math

import numpy as np
import pytest

from twonorm.instances import OdeSpec
from twonorm.oracles import (
    NoConvergence,
    OracleError,
    PostShock,
    SmoothProfile,
    blowup_time,
    burgers_characteristics,
    burgers_profile_at,
    dense_reference,
    sine_profile,
)

TWO_PI = 2.0 * math.pi


def test_characteristics_identity_at_t0():
    prof = sine_profile()
    for x in (0.0, 1.3, math.pi, 6.0):
        assert burgers_characteristics(prof, 0.0, x) == pytest.approx(math.sin(x), abs=1e-14)


def test_characteristics_constant_profile():
    c = 0.7
    prof = SmoothProfile(value=lambda x: c + 0.0 * np.asarray(x),
                         derivative=lambda x: 0.0 * np.asarray(x),
                         length=TWO_PI)
    for t in (0.1, 1.0, 5.0):
        for x in (0.0, 2.0, 6.0):
            assert burgers_characteristics(prof, t, x) == pytest.approx(c, abs=1e-12)


def test_characteristics_sine_implicit_equation():
    # departure point solves xi + t sin(xi) = x; cross-check against a dense
    # forward fan of characteristics
    prof = sine_profile()
    t, x = 0.5, math.pi / 2.0
    val = burgers_characteristics(prof, t, x, tol=1e-12)
    xi = np.linspace(0, TWO_PI, 2_000_001)
    arrive = xi + t * np.sin(xi)
    j = int(np.argmin(np.abs(arrive - x)))
    assert val == pytest.approx(math.sin(xi[j]), abs=1e-5)
    # residual of the implicit equation at the implied departure point
    xi_star = math.asin(val)  # val = sin(xi*), xi* in (0, pi/2) here
    assert xi_star + t * math.sin(xi_star) - x == pytest.approx(0.0, abs=1e-11)


def test_characteristics_residual_on_random_preshock_pairs():
    prof = sine_profile()
    rng = np.random.default_rng(7)
    sup = 1.0
    for _ in range(1000):
        t = rng.uniform(0.0, 0.95)
        x = rng.uniform(0.0, TWO_PI)
        val = burgers_characteristics(prof, t, x, tol=1e-12, sup_hint=sup)
        # recover xi from the returned value by re-solving; check the residual
        # |xi + t u0(xi) - x| via the defining relation u0(xi) = val
        # (xi = x - t*val up to the root-finder tolerance)
        xi = x - t * val
        assert abs(float(prof.value(np.mod(xi, TWO_PI))) - val) < 1e-9


def test_characteristics_post_shock_raises():
    prof = sine_profile()
    with pytest.raises(PostShock):
        # the shock forms at t = 1; far past it the slope check must trip
        burgers_profile_at(prof, 1.5, np.linspace(2.5, 3.8, 40))


@pytest.mark.parametrize("call,error,match", [
    # with sup_hint 0 the bracket is only the padding, which misses the root
    (lambda: burgers_characteristics(sine_profile(), 0.5, 0.5 * math.pi, sup_hint=0.0),
     NoConvergence, "bracket does not straddle"),
    (lambda: burgers_characteristics(sine_profile(), 0.5, 1.0, max_iters=1),
     NoConvergence, "no root within 1 iterations"),
    (lambda: burgers_characteristics(sine_profile(), 0.5, 1.0, max_iters=0),
     ValueError, "max_iters must be >= 1, got 0"),
    (lambda: dense_reference(OdeSpec(dimension=1, f=lambda t, y, x: -x), [1.0], 0.0, 1e-4),
     ValueError, "t_final must be positive"),
    (lambda: dense_reference(OdeSpec(dimension=1, f=lambda t, y, x: 1e200 * y * x), [1.0],
                             1.0, 1e-4),
     OracleError, "reference solve overflowed at t=0.0001"),
    # sqrt(-1) is NaN: the first row leaves the finite range without overflowing
    (lambda: dense_reference(OdeSpec(dimension=1, f=lambda t, y, x: np.sqrt(-x)), [1.0],
                             1.0, 1e-4),
     OracleError, "reference solve overflowed at t=0.0001"),
], ids=["bracket-misses-root", "iteration-budget", "no-iterations", "dense-t_final-0",
        "dense-overflow", "dense-nan"])
def test_oracles_raise_when_they_have_no_answer(call, error, match):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=match):
        call()


def test_dense_reference_overflow_raises_oracle_error_without_a_warning():
    # no errstate here: under filterwarnings = error a leaked RuntimeWarning
    # would be raised in place of OracleError
    spec = OdeSpec(dimension=1, f=lambda t, y, x: 1e200 * y * x)
    with pytest.raises(OracleError, match="reference solve overflowed at t=0.0001"):
        dense_reference(spec, [1.0], 1.0, 1e-4)


def test_blowup_time_sine():
    assert blowup_time(sine_profile()) == pytest.approx(1.0, abs=1e-12)


def test_blowup_time_scaled_sine():
    assert blowup_time(sine_profile().scaled(0.5)) == pytest.approx(2.0, abs=1e-12)


def test_blowup_time_scaling_property():
    prof = sine_profile()
    base = blowup_time(prof)
    for a in (0.5, 2.0):
        assert blowup_time(prof.scaled(a)) == pytest.approx(base / a, rel=1e-12)


def test_blowup_time_nondecreasing_profile_is_infinite():
    # the only periodic non-decreasing profiles are constants
    flat = sine_profile().scaled(0.0)
    assert blowup_time(flat) == math.inf
    c = SmoothProfile(value=lambda x: 2.0 + 0.0 * np.asarray(x),
                      derivative=lambda x: 0.0 * np.asarray(x),
                      length=TWO_PI)
    assert blowup_time(c) == math.inf


def test_blowup_time_rejects_sparse_sampling():
    with pytest.raises(ValueError):
        blowup_time(sine_profile(), samples=100)


def test_dense_reference_decay():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: -x)
    traj = dense_reference(spec, [1.0], 1.0, h_fine=1e-4)
    assert traj.values[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_dense_reference_riccati():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: y * x)
    traj = dense_reference(spec, [1.0], 0.9, h_fine=0.9e-4)
    assert traj.values[-1, 0] == pytest.approx(10.0, rel=1e-6)


def test_dense_reference_step_halving_consistency():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: y * x - x)
    a = dense_reference(spec, [2.0], 0.5, h_fine=0.5e-4)
    b = dense_reference(spec, [2.0], 0.5, h_fine=0.25e-4)
    assert abs(a.values[-1, 0] - b.values[-1, 0]) < 1e-8


def test_dense_reference_step_halving_order():
    # steep problem so truncation still dominates roundoff at the largest
    # admissible step; the finest level stands in for the exact value
    spec = OdeSpec(dimension=1, f=lambda t, y, x: y * x)
    t_final = 0.99
    a = dense_reference(spec, [1.0], t_final, h_fine=1e-4 * t_final)
    b = dense_reference(spec, [1.0], t_final, h_fine=0.5e-4 * t_final)
    c = dense_reference(spec, [1.0], t_final, h_fine=0.25e-4 * t_final)
    e1 = abs(a.values[-1, 0] - c.values[-1, 0])
    e2 = abs(b.values[-1, 0] - c.values[-1, 0])
    assert e1 / e2 >= 12.0


def test_dense_reference_rejects_coarse_step():
    spec = OdeSpec(dimension=1, f=lambda t, y, x: -x)
    with pytest.raises(ValueError):
        dense_reference(spec, [1.0], 1.0, h_fine=1e-3)


def test_profiles_periodic_consistent():
    for amp in (1.0, 0.5, 2.0):
        prof = sine_profile().scaled(amp)
        assert float(prof.value(0.0)) == pytest.approx(float(prof.value(prof.length)), abs=1e-12)
        assert float(prof.derivative(0.0)) == pytest.approx(
            float(prof.derivative(prof.length)), abs=1e-12)
        assert np.all(np.isfinite(prof.value(np.linspace(0, prof.length, 64))))
