import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twonorm.grids import (
    GridFunction1D,
    from_callable,
    interp_stencil,
    interp_values,
    interpolate,
    lip_norm,
    sup_lip_norms,
    sup_norm,
    sup_norm_values,
    wrap_by_shift,
    wrap_periodic,
)

TWO_PI = 2.0 * math.pi


def grid(values, length=1.0):
    vals = np.asarray(values, dtype=float)
    return GridFunction1D(n=len(vals), length=length, values=vals)


# -- construction -------------------------------------------------------------

def test_rejects_nonfinite_values():
    with pytest.raises(ValueError):
        grid([0.0, np.inf, 0.0])
    with pytest.raises(ValueError):
        grid([0.0, np.nan, 0.0])


def test_rejects_bad_shape_and_length():
    with pytest.raises(ValueError):
        GridFunction1D(n=4, length=1.0, values=np.zeros(3))
    with pytest.raises(ValueError):
        GridFunction1D(n=4, length=0.0, values=np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction1D(n=1, length=1.0, values=np.zeros(1))


def test_values_are_immutable():
    u = grid([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        u.values[0] = 5.0


# -- norms ---------------------------------------------------------------------

def test_sup_norm_zero_function():
    for n in (2, 17, 128):
        assert sup_norm(grid(np.zeros(n))) == 0.0


def test_sup_norm_sine_four_points():
    u = from_callable(np.sin, 4, TWO_PI)
    assert sup_norm(u) == pytest.approx(1.0, abs=1e-15)


def test_sup_norm_matches_exhaustive_scan():
    rng = np.random.default_rng(42)
    vals = rng.normal(size=128)
    u = grid(vals)
    assert sup_norm(u) == max(abs(v) for v in vals)


def test_lip_norm_constant():
    for c in (-3.0, 0.0, 2.5):
        assert lip_norm(grid([c] * 8)) == abs(c)


def test_lip_norm_hand_example():
    # dx = 0.25, max |du|/dx = 1, sup = 0.5
    u = grid([0.0, 0.25, 0.5, 0.25], length=1.0)
    assert lip_norm(u) == pytest.approx(1.5, abs=1e-15)


def test_lip_norm_smooth_sine():
    # dense evaluation of max|u| + max|u'| gives 1 + 1
    u = from_callable(np.sin, 256, TWO_PI)
    assert lip_norm(u) == pytest.approx(2.0, abs=1e-3)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, 32, elements=st.floats(-10, 10)))
def test_embedding_sup_below_lip(vals):
    u = grid(vals)
    assert sup_norm(u) <= lip_norm(u)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, 24, elements=st.floats(-10, 10)),
       arrays(np.float64, 24, elements=st.floats(-10, 10)))
def test_norm_triangle_inequality(a, b):
    ua, ub, uab = grid(a), grid(b), grid(a + b)
    assert sup_norm(uab) <= sup_norm(ua) + sup_norm(ub) + 1e-12
    assert lip_norm(uab) <= lip_norm(ua) + lip_norm(ub) + 1e-9


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, 24, elements=st.floats(-10, 10)),
       st.floats(-4, 4))
def test_norm_homogeneity(a, alpha):
    u, su = grid(a), grid(alpha * a)
    assert sup_norm(su) == pytest.approx(abs(alpha) * sup_norm(u), rel=1e-12, abs=1e-12)
    assert lip_norm(su) == pytest.approx(abs(alpha) * lip_norm(u), rel=1e-12, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, 32, elements=st.floats(-5, 5)),
       arrays(np.float64, 32, elements=st.floats(-5, 5)))
def test_lip_is_lipschitz_in_sup_distance(a, b):
    # |lip(u) - lip(v)| <= (1 + 2/dx) sup|u - v| on a fixed grid
    ua, ub = grid(a), grid(b)
    dx = ua.dx
    bound = (1.0 + 2.0 / dx) * sup_norm_values(ua.values - ub.values)
    assert abs(lip_norm(ua) - lip_norm(ub)) <= bound + 1e-9


def test_fatou_along_sup_convergent_sequences():
    # u_k -> u in sup norm with bounded lip norms forces
    # lip(u) <= liminf lip(u_k) on the fixed grid; the sequence is run
    # until sup convergence is exact so the liminf estimate is sharp
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(8, 64))
        u = rng.normal(size=n)
        lims = [lip_norm(grid(u + rng.normal(size=n) * 4.0 ** (-k)))
                for k in range(1, 29)]
        liminf_est = min(lims[-3:])
        assert lip_norm(grid(u)) <= liminf_est + 1e-12


# -- interpolation -------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["linear", "cubic"])
def test_interpolation_exact_at_nodes(scheme):
    rng = np.random.default_rng(11)
    u = grid(rng.normal(size=37), length=2.7)
    xs = u.nodes()
    for i, x in enumerate(xs):
        assert interpolate(u, float(x), scheme) == u.values[i]
    out = interpolate(u, xs, scheme)
    assert np.array_equal(out, u.values)


def test_linear_interpolation_midpoint():
    u = grid([0.0, 1.0, 0.0, 1.0], length=1.0)
    assert interpolate(u, 0.125, "linear") == pytest.approx(0.5, abs=1e-14)


def test_linear_interpolation_preserves_bounds():
    rng = np.random.default_rng(5)
    u = grid(rng.uniform(-2, 3, size=50), length=2.0)
    xs = rng.uniform(-5, 10, size=500)
    out = interpolate(u, xs, "linear")
    assert np.all(out >= u.values.min() - 1e-12)
    assert np.all(out <= u.values.max() + 1e-12)


def test_interpolation_wraps_periodically():
    u = grid([0.0, 1.0, 2.0, 1.0], length=1.0)
    for scheme in ("linear", "cubic"):
        a = interpolate(u, 0.3, scheme)
        assert interpolate(u, 1.3, scheme) == pytest.approx(a, abs=1e-12)
        assert interpolate(u, -0.7, scheme) == pytest.approx(a, abs=1e-12)


def _smooth(x):
    return np.sin(x) ** 2 + 0.25 * np.cos(x)


def test_cubic_interpolation_refinement():
    # halving dx must shrink the off-node error by at least 6x
    rng = np.random.default_rng(17)
    xs = rng.uniform(0, TWO_PI, size=400)
    errs = []
    for n in (512, 1024):
        u = from_callable(_smooth, n, TWO_PI)
        errs.append(np.max(np.abs(interpolate(u, xs, "cubic") - _smooth(xs))))
    assert errs[0] / errs[1] >= 6.0
    # error against a fitted third-order constant stays bounded
    dx = TWO_PI / 512
    c_fitted = errs[0] / dx**3
    assert errs[1] <= c_fitted * (TWO_PI / 1024) ** 3 * 2.0


def test_unknown_scheme_rejected():
    u = grid([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        interpolate(u, 0.1, "quintic")


def _interp_four_mods(values, length, x, scheme):
    """Periodic interpolation with every stencil index wrapped by its own np.mod."""
    n = len(values)
    s = np.mod(x, length) * (n / length)
    idx = np.floor(s).astype(np.int64)
    frac = s - idx
    snap_hi = frac > 1.0 - 1e-12
    idx = np.where(snap_hi, idx + 1, idx)
    frac = np.where(snap_hi | (frac < 1e-12), 0.0, frac)
    i1 = np.mod(idx, n)
    i2 = np.mod(i1 + 1, n)
    p1, p2 = values[i1], values[i2]
    if scheme == "linear":
        return p1 + frac * (p2 - p1)
    p0, p3 = values[np.mod(i1 - 1, n)], values[np.mod(i1 + 2, n)]
    return p1 + 0.5 * frac * (
        p2 - p0
        + frac * (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3 + frac * (3.0 * (p1 - p2) + p3 - p0))
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 70), st.sampled_from(["linear", "cubic"]), st.integers(0, 2**31 - 1),
       st.sampled_from([1.0, 2.7, TWO_PI]))
def test_ghost_padded_interpolation_is_bitwise_the_wrapped_index_formula(n, scheme, seed, length):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    nodes = np.arange(n) * (length / n)
    x = np.concatenate([
        rng.uniform(-3 * length, 3 * length, size=200),
        nodes, nodes + 1e-13, nodes - 1e-13, -nodes,
        [0.0, -0.0, length, -length, -1e-300, -1e-17, 2 * length - 1e-15],
    ])
    got = interp_values(values, length, x, scheme)
    assert got.tobytes() == _interp_four_mods(values, length, x, scheme).tobytes()
    # every position in [-length, 2 length): the wrap is a shift, not an fmod
    x = np.concatenate([rng.uniform(-length, 2 * length, size=200), x[200:]])
    assert -length <= x.min() and x.max() < 2 * length
    got = interp_values(values, length, x, scheme)
    assert got.tobytes() == _interp_four_mods(values, length, x, scheme).tobytes()


@pytest.mark.parametrize("scheme", ["linear", "cubic"])
def test_interpolation_at_non_finite_positions_is_nan(scheme):
    u = grid([0.0, 1.0, 2.0, 1.0, 0.5], length=1.0)
    with np.errstate(invalid="ignore"):
        out = interpolate(u, np.array([np.nan, np.inf, -np.inf, 0.3]), scheme)
    assert np.all(np.isnan(out[:3])) and np.isfinite(out[3])


# -- the transport kernel's exact shortcuts --------------------------------------

LENGTHS = [1.0, 2.7, TWO_PI, 1e-3, 1e5]
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                    1.8e308, -1.8e308, 1e-17, -1e-17])


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 64), elements=st.floats(width=64)),
       st.sampled_from(LENGTHS))
def test_wrap_periodic_is_bitwise_np_mod(x, length):
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.concatenate([x, SPECIAL, SPECIAL * length, [length, -length, 2 * length],
                            [-2 * length]])
        assert wrap_periodic(x, length).tobytes() == np.mod(x, length).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LENGTHS), st.data())
def test_wrap_periodic_around_its_shift_range_is_bitwise_np_mod(length, data):
    # [-length, 2 length) is where wrap_periodic shifts instead of taking fmod
    top = np.nextafter(2 * length, 0.0)
    x = data.draw(arrays(np.float64, st.integers(0, 64),
                         elements=st.floats(-length, top) | st.floats(-1e-300, 1e-300)))
    edges = [-length, np.nextafter(-length, 0.0), -5e-324, -0.0, 0.0, 5e-324,
             np.nextafter(length, 0.0), length, np.nextafter(length, 2 * length), top]
    for x in (np.concatenate([x, edges]), np.array(edges)):
        assert -length <= x.min() and x.max() < 2 * length
        assert wrap_periodic(x, length).tobytes() == np.mod(x, length).tobytes()
    # one position just outside sends them all through fmod
    for outside in (2 * length, np.nextafter(-length, -np.inf)):
        x = np.append(edges, outside)
        assert wrap_periodic(x, length).tobytes() == np.mod(x, length).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LENGTHS), st.integers(2, 300), st.data())
def test_wrap_by_shift_is_bitwise_np_mod_on_feet_within_half_the_domain(length, n, data):
    # the transport step's feet after its guard: nodes + d with |d| <= length / 2
    nodes = np.arange(n) * (length / n)
    half = 0.5 * length
    d = data.draw(arrays(np.float64, n, elements=st.floats(-half, half)
                         | st.sampled_from([-half, half, -0.0, 0.0, 5e-324, -5e-324])))
    last = nodes[-1]
    x = np.concatenate([nodes + d, [last + half, last - half, -half, half, 0.0, -0.0, np.nan]])
    with np.errstate(invalid="ignore"):
        want = np.mod(x, length)
    assert wrap_by_shift(x, length).tobytes() == want.tobytes()


def _floor_and_clamp(x_wrapped, length, n):
    """interp_stencil's (idx, frac) with every step written out and idx always clamped."""
    s = x_wrapped * (n / length)
    floor = np.floor(s)
    frac = s - floor
    snap_hi = frac > 1.0 - 1e-12
    idx = floor.astype(np.int64) + snap_hi
    idx = np.minimum(np.maximum(idx, 0), n)
    return idx, np.where(snap_hi | (frac < 1e-12), 0.0, frac)


def _snap_edges(cells, n, length):
    """Positions in the given cells whose offset from the cell's left node is at
    or next to 1e-12 or 1 - 1e-12 cells."""
    cells = np.asarray(cells, dtype=np.float64)[:, None]
    offsets = np.array([1e-12, 1.0 - 1e-12, 0.5e-12, 2e-12, 1.0 - 0.5e-12, 1.0 - 2e-12])
    x = ((cells + offsets) * (length / n)).ravel()
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 70), st.sampled_from(LENGTHS), st.data(), st.booleans())
def test_interp_stencil_is_bitwise_the_floor_and_clamp_formula(n, length, data, stack):
    wrapped = data.draw(arrays(np.float64, st.integers(0, 64), elements=st.floats(0.0, length)))
    anywhere = data.draw(arrays(np.float64, st.integers(0, 16), elements=st.floats(width=64)))
    edges = _snap_edges(range(n), n, length)
    # cells -1 and n snap to stencils just outside [0, n], which the clamp mends
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (np.concatenate([wrapped, edges, [0.0, length]]),
                  np.concatenate([wrapped, anywhere, [np.nan, np.inf, -np.inf]]),
                  np.concatenate([edges, _snap_edges([-1], n, length)]),
                  np.concatenate([edges, _snap_edges([n], n, length)]),
                  np.concatenate([edges, [np.nan]])):
            if stack:
                x = np.stack([x, x[::-1]])
            got, want = interp_stencil(x, length, n), _floor_and_clamp(x, length, n)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _two_reduction_stencil(x_wrapped, length, n):
    """interp_stencil with its clamp check in two reductions, idx.min() and idx.max()."""
    frac = x_wrapped * (n / length)
    floor = np.floor(frac)
    idx = floor.astype(np.int64)
    frac -= floor
    snap_hi = frac > 1.0 - 1e-12
    idx += snap_hi
    if idx.size and (idx.min() < 0 or idx.max() > n):
        np.minimum(np.maximum(idx, 0, out=idx), n, out=idx)
    np.copyto(frac, 0.0, where=snap_hi | (frac < 1e-12))
    return idx, frac


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 70), st.sampled_from(LENGTHS), st.data(), st.booleans())
def test_interp_stencil_one_reduction_clamp_is_bitwise_the_two_reduction_form(n, length, data,
                                                                              stack):
    # NaN and +-inf cast to an int64 far outside [0, n] (the most negative one
    # on x86-64), and positions in cells -1 and n snap to idx -1 and n + 1
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, length]
    drawn = data.draw(arrays(np.float64, st.integers(1, 64),
                             elements=st.floats(0.0, length) | st.sampled_from(special)))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (drawn, np.concatenate([drawn, _snap_edges([-1, n], n, length)])):
            if stack:
                x = np.stack([x, x[::-1]])
            got = interp_stencil(x, length, n)
            want = _two_reduction_stencil(x, length, n)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _roll_and_divide(values, length):
    dx = length / values.shape[-1]
    sup = np.max(np.abs(values), axis=-1)
    return sup, sup + np.max(np.abs(np.roll(values, -1, axis=-1) - values) / dx, axis=-1)


finite_or_huge = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([1.7e308, -1.7e308, 8e307, -8e307]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(2, 40), st.data(), st.sampled_from(LENGTHS),
       st.booleans())
def test_sup_lip_norms_is_bitwise_the_roll_and_divide_formula(rows, n, data, length, stack):
    shape = (rows, n) if stack else (n,)
    values = data.draw(arrays(np.float64, shape, elements=finite_or_huge))
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = sup_lip_norms(values, length), _roll_and_divide(values, length)
    assert [np.asarray(a).tobytes() for a in got] == [np.asarray(a).tobytes() for a in want]
