"""Independent reference solutions used by the test and reporting harnesses.

Nothing here goes through the windowed engine: the inviscid-transport
values come from the classical implicit characteristic equation, blow-up
times from dense derivative sampling, and ODE references from a tiny-step
one-step integrator applied to the unfrozen equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instances import OdeSpec


class OracleError(Exception):
    pass


class PostShock(OracleError):
    """The characteristic map is no longer invertible at the requested time."""


class NoConvergence(OracleError):
    """Root finding exhausted its iteration budget."""


@dataclass(frozen=True)
class SmoothProfile:
    """Periodic initial profile given as value and derivative closures."""

    value: Callable
    derivative: Callable
    length: float

    def scaled(self, amplitude: float) -> "SmoothProfile":
        return SmoothProfile(
            value=lambda x: amplitude * self.value(x),
            derivative=lambda x: amplitude * self.derivative(x),
            length=self.length,
        )


def sine_profile(length: float = 2.0 * math.pi) -> SmoothProfile:
    w = 2.0 * math.pi / length
    return SmoothProfile(
        value=lambda x: np.sin(w * np.asarray(x, dtype=np.float64)),
        derivative=lambda x: w * np.cos(w * np.asarray(x, dtype=np.float64)),
        length=length,
    )


PROFILES = {"sine": sine_profile}


def _profile_sup(u0: SmoothProfile, samples: int = 4096) -> float:
    xs = np.arange(samples) * (u0.length / samples)
    return float(np.max(np.abs(u0.value(xs))))


def burgers_characteristics(u0: SmoothProfile, t: float, x: float,
                            tol: float = 1e-12, max_iters: int = 100,
                            sup_hint: float | None = None) -> float:
    """Pre-shock value of the solution of du/dt + u du/dx = 0 at (t, x).

    Solves the implicit equation xi + t*u0(xi) = x for the departure
    point xi (periodic lift) with a derivative-based iteration guarded by
    bisection, then returns u0(xi). Raises PostShock when the map's slope
    1 + t*u0'(xi) drops to zero or below, NoConvergence on a stuck search,
    and ValueError when max_iters < 1.
    """
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    length = u0.length
    if t == 0.0:
        return float(u0.value(np.mod(x, length)))
    sup = _profile_sup(u0) if sup_hint is None else sup_hint
    pad = 1e-3 * max(1.0, length)
    lo = x - t * sup - pad
    hi = x + t * sup + pad

    def val(xi: float) -> float:
        return float(u0.value(np.mod(xi, length)))

    def deriv(xi: float) -> float:
        return float(u0.derivative(np.mod(xi, length)))

    def phi(xi: float) -> float:
        return xi + t * val(xi) - x

    f_lo, f_hi = phi(lo), phi(hi)
    if f_lo > 0 or f_hi < 0:  # padded bracket must straddle the root
        raise NoConvergence("bracket does not straddle the departure point")
    xi = float(x)
    for _ in range(max_iters):
        f = phi(xi)
        if abs(f) <= tol:
            return val(xi)
        slope = 1.0 + t * deriv(xi)
        if slope <= 0.0:
            raise PostShock(f"characteristics cross at t={t} (slope {slope:.3g})")
        if f > 0:
            hi = xi
        else:
            lo = xi
        step = f / slope
        candidate = xi - step
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        xi = candidate
    raise NoConvergence(f"no root within {max_iters} iterations (residual {f:.3g})")


def burgers_profile_at(u0: SmoothProfile, t: float, xs: np.ndarray,
                       tol: float = 1e-12) -> np.ndarray:
    """Vector convenience wrapper around burgers_characteristics."""
    sup = _profile_sup(u0)
    return np.array([
        burgers_characteristics(u0, t, float(x), tol=tol, sup_hint=sup) for x in xs
    ])


def blowup_time(u0: SmoothProfile, samples: int = 4096) -> float:
    """First characteristic-crossing time 1 / max(0, -u0'), from dense samples.

    Returns +inf when the profile is non-decreasing everywhere.
    """
    if samples < 256:
        raise ValueError("need at least 256 samples")
    xs = np.arange(samples) * (u0.length / samples)
    compression = np.maximum(0.0, -np.asarray(u0.derivative(xs), dtype=np.float64))
    worst = float(np.max(compression))
    if worst <= 0.0:
        return math.inf
    return 1.0 / worst


def dense_reference(spec: OdeSpec, x0, t_final: float, h_fine: float):
    """Tiny-step 4-stage reference solve of the self-coupled equation.

    Integrates x' = f(t, x, x) (no freezing) with fixed step <= h_fine and
    returns (times, states) with states of shape (steps+1, dimension).
    A state that leaves the finite range raises OracleError, without
    numpy's overflow warnings first.
    """
    if not t_final > 0:
        raise ValueError("t_final must be positive")
    if h_fine > 1e-4 * t_final:
        raise ValueError("h_fine must be at most 1e-4 * t_final")
    steps = int(math.ceil(t_final / h_fine))
    times = np.linspace(0.0, t_final, steps + 1)
    x = np.atleast_1d(np.asarray(x0, dtype=np.float64)).copy()
    out = np.empty((steps + 1, len(x)))
    out[0] = x
    f = spec.f
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t_k = float(times[k])
            h = float(times[k + 1] - times[k])
            k1 = f(t_k, x, x)
            x2 = x + 0.5 * h * k1
            k2 = f(t_k + 0.5 * h, x2, x2)
            x3 = x + 0.5 * h * k2
            k3 = f(t_k + 0.5 * h, x3, x3)
            x4 = x + h * k3
            k4 = f(t_k + h, x4, x4)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise OracleError(f"reference solve overflowed at t={times[k + 1]}")
            out[k + 1] = x
    return times, out
