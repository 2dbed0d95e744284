"""Periodic 1-D grid functions with sup and discrete Lipschitz norms.

These realize the weak/strong norm pair used by the transport instances:
the weak norm is the sup norm over the samples, the strong norm adds the
largest one-sided difference quotient (periodic wrap included).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NODE_SNAP = 1e-12  # offsets closer than this to a node collapse onto it

INTERP_SCHEMES = ("linear", "cubic")


@dataclass(frozen=True)
class GridFunction1D:
    """Samples of a periodic function on [0, length) at x_i = i*length/n.

    Values are stored as a read-only float64 array; instances are immutable
    and safe to share between threads. A float64 input that is read-only
    along its whole .base chain is kept without a copy (e.g. a row of a
    frozen trajectory buffer); any other input is copied.
    """

    n: int
    length: float
    values: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 grid points, got n={self.n}")
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError(f"domain length must be positive, got {self.length}")
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.dtype == np.float64
                and _read_only(vals)):
            vals = np.array(vals, dtype=np.float64, copy=True)
        vals = vals.reshape(-1)
        if vals.shape != (self.n,):
            raise ValueError(f"expected {self.n} samples, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must all be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def dx(self) -> float:
        return self.length / self.n

    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)

    def __array__(self, dtype=None, copy=None):
        """The samples, so np.asarray(u) is u's row in a trajectory buffer."""
        return np.array(self.values, dtype=dtype, copy=copy)


def _read_only(arr: np.ndarray) -> bool:
    """True when neither arr nor any array it views can be written through."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def sup_lip_norms(values: np.ndarray, length: float):
    """Sup and discrete Lipschitz norms of each row (last axis) of values."""
    dx = length / values.shape[-1]
    sup = np.max(np.abs(values), axis=-1)
    diff = np.empty_like(values)
    np.subtract(values[..., 1:], values[..., :-1], out=diff[..., :-1])
    np.subtract(values[..., :1], values[..., -1:], out=diff[..., -1:])
    # dividing the largest |difference| by dx > 0 is bitwise the largest quotient
    return sup, sup + np.max(np.abs(diff, out=diff), axis=-1) / dx


def sup_norm_values(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def lip_norm_values(values: np.ndarray, length: float) -> float:
    return float(sup_lip_norms(values, length)[1])


def sup_norm(u: GridFunction1D) -> float:
    """Largest absolute sample value."""
    return sup_norm_values(u.values)


def lip_norm(u: GridFunction1D) -> float:
    """sup norm plus the largest periodic forward difference quotient.

    Constants get norm |c| (zero slope term), so this is a norm rather
    than a seminorm.
    """
    return lip_norm_values(u.values, u.length)


def sup_distance(u: GridFunction1D, v: GridFunction1D) -> float:
    if u.n != v.n or u.length != v.length:
        raise ValueError("grid functions live on different grids")
    return float(np.max(np.abs(u.values - v.values)))


def pad_periodic(values: np.ndarray) -> np.ndarray:
    """Rows (last axis) of values with periodic ghost samples.

    One ghost sample goes before each row and three after, so sample i
    sits at padded index i + 1 and every stencil of interp_stencil stays
    inside the padded row.
    """
    n = values.shape[-1]
    if n < 3:
        return values[..., np.arange(-1, n + 3) % n]
    return np.concatenate((values[..., -1:], values, values[..., :3]), axis=-1)


def wrap_periodic(x, length: float):
    """Bitwise np.mod(x, length) for float64 x, without its floor division.

    np.mod is the exact fmod shifted by length where negative; -0 + 0.0 is +0.
    """
    m = np.fmod(x, length)
    m += length * (m < 0.0)
    return m


def interp_stencil(x_wrapped: np.ndarray, length: float, n: int):
    """Stencil of periodic interpolation at an array of wrapped positions.

    Returns (idx, frac): in a row padded by pad_periodic, idx indexes the
    first of the four stencil samples, i.e. the left neighbour's left
    neighbour, and frac in [0, 1) is the offset from the left neighbour in
    cells. Offsets within _NODE_SNAP of a node are snapped onto it so float
    jitter never leaks neighbour values into node queries. Positions must
    be wrapped exactly once, by wrap_periodic: it can return length for tiny
    negative x, and wrapping that again gives 0 and a different stencil.
    """
    s = x_wrapped * (n / length)
    floor = np.floor(s)
    frac = s - floor
    snap_hi = frac > 1.0 - _NODE_SNAP
    idx = floor.astype(np.int64)
    idx += snap_hi
    # finite positions give idx in [0, n] already; NaN ones get a valid
    # stencil here and still a NaN frac, so their result is NaN
    np.minimum(np.maximum(idx, 0, out=idx), n, out=idx)
    np.copyto(frac, 0.0, where=snap_hi | (frac < _NODE_SNAP))
    return idx, frac


def interp_eval(padded: np.ndarray, idx: np.ndarray, frac: np.ndarray,
                scheme: str = "cubic") -> np.ndarray:
    """Evaluate the interpolant of a row padded by pad_periodic on a stencil."""
    p1 = padded[1:][idx]
    p2 = padded[2:][idx]
    if scheme == "linear":
        return p1 + frac * (p2 - p1)
    p0 = padded[idx]
    p3 = padded[3:][idx]
    # Catmull-Rom p1 + 0.5 * frac * (p2 - p0 + frac * (2.0 * p0 - 5.0 * p1 + 4.0 * p2
    # - p3 + frac * (3.0 * (p1 - p2) + p3 - p0))) in place: each step is one IEEE
    # operation of this nested form on the same operands, up to commuting * and +
    c = p1 - p2
    c *= 3.0
    c += p3
    c -= p0
    c *= frac
    b = 2.0 * p0
    b -= 5.0 * p1
    b += 4.0 * p2
    b -= p3
    b += c
    b *= frac
    b += np.subtract(p2, p0, out=c)
    b *= 0.5 * frac
    b += p1
    return b


def interp_values(values: np.ndarray, length: float, x, scheme: str = "cubic",
                  stencil=None):
    """Periodic interpolation of raw samples at positions x (scalar or array).

    'linear' is piecewise linear; 'cubic' is the 4-point Catmull-Rom
    cardinal spline. Both reproduce node values exactly (see
    interp_stencil). stencil, when given, is interp_stencil's result for
    x wrapped once by wrap_periodic, built ahead (e.g. for many rows in
    one batch); it is used instead of rebuilding it from x.
    """
    if scheme not in INTERP_SCHEMES:
        raise ValueError(f"unknown interpolation scheme {scheme!r}")
    if stencil is None:
        x_wrapped = wrap_periodic(np.atleast_1d(np.asarray(x, dtype=np.float64)), length)
        stencil = interp_stencil(x_wrapped, length, len(values))
    out = interp_eval(pad_periodic(np.asarray(values)), *stencil, scheme)
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def interpolate(u: GridFunction1D, x, scheme: str = "cubic"):
    """Evaluate u at arbitrary positions, wrapped periodically into [0, L)."""
    return interp_values(u.values, u.length, x, scheme)


def from_callable(f, n: int, length: float) -> GridFunction1D:
    """Sample a callable at the grid nodes."""
    xs = np.arange(n) * (length / n)
    return GridFunction1D(n=n, length=length, values=np.asarray(f(xs), dtype=np.float64))
