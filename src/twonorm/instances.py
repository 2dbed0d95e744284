"""Concrete problem instances for the windowed fixed-point engine.

Two families are provided: finite-dimensional ODEs x' = f(t, y, x) with
analytic growth/stability bounds derived from declared Lipschitz
constants, and a 1-D periodic quasilinear transport equation
du/dt = G(x, v) du/dx + g(x, u) solved by a semi-Lagrangian step operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import (  # CapExceeded and NonFiniteState are re-exported for callers
    AprioriBound,
    CapExceeded,
    NonFiniteState,
    NormedPairElement,
    StabilityBounds,
    TrajectorySegment,
    WindowFailure,
    reject_rows,
)
from .grids import (
    GridFunction1D,
    interp_stencil,
    interp_values,
    lip_norm_values,
    sup_lip_norms,
    sup_norm_values,
    wrap_periodic,
)


class CharacteristicBlowup(WindowFailure):
    """A traced characteristic foot moved more than half the domain in one substep."""


class InstanceBounds(NamedTuple):
    apriori: AprioriBound
    stability: StabilityBounds


def make_element(instance: "ProblemInstance", state) -> NormedPairElement:
    """Wrap a raw state with the instance's norm pair."""
    return NormedPairElement(state, instance.weak_norm(state), instance.strong_norm(state))


@dataclass(frozen=True)
class ProblemInstance:
    """A frozen-step operator together with its norm pair.

    step(y_traj, x0, window, substeps, t_start, cap=None, coupled=False)
    solves the frozen problem on the times of its input trajectory y_traj
    (the window's uniform grid of substeps steps, read through its stacked
    rows y_traj.values) and returns a TrajectorySegment whose start is the
    x0 element and whose row 0 is x0's raw state. picard_window passes
    coupled=True on a window's first call, where y_traj is only the
    constant start: a step may then solve the coupled problem
    x' = f(t, x, x) on y_traj.times instead (the ODE step does), or ignore
    the hint (the transport step does). At substep midpoints the ODE step
    reads the frozen input by polynomial interpolation of its rows (4-point
    cubic inside the window), the transport step as the mean of two rows.
    picard_window rejects a returned trajectory by core.reject_rows: its
    earliest row whose weak norm is not finite (NonFiniteState) or whose
    strong norm is not <= cap (CapExceeded). A step may call reject_rows
    itself to stop early, as the bundled steps do. weak_dist(a, b) takes two stacked row
    arrays of one shape and returns the weak distance, sup over every
    row; weak_norm and strong_norm take single states. bounds is None for
    instances without analytic growth/stability estimates; the engine
    then adapts windows empirically. spec is the OdeSpec or TransportSpec
    the instance was built from (None for hand-made instances), so
    oracles and reports reuse its right-hand side and grid.
    """

    name: str
    step: Callable[..., TrajectorySegment]
    weak_norm: Callable[[Any], float]
    strong_norm: Callable[[Any], float]
    weak_dist: Callable[[Any, Any], float]
    bounds: InstanceBounds | None = None
    spec: OdeSpec | TransportSpec | None = None


# -- ODE instances ------------------------------------------------------------

@dataclass(frozen=True)
class OdeSpec:
    """Right-hand side f(t, y, x) with declared Lipschitz data.

    lipschitz_y / lipschitz_x bound the sensitivity of f in the frozen
    and the solved argument; f00 bounds |f(t, 0, 0)|. Both are None when no
    global constants exist (the analytic bounds are then unavailable and
    the engine must run empirically); declaring only one is an error.
    """

    dimension: int
    f: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    lipschitz_y: float | None = None
    lipschitz_x: float | None = None
    f00: float = 0.0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        for name in ("lipschitz_y", "lipschitz_x", "f00"):
            v = getattr(self, name)
            if v is not None and not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if (self.lipschitz_y is None) != (self.lipschitz_x is None):
            missing = "lipschitz_y" if self.lipschitz_y is None else "lipschitz_x"
            raise ValueError(f"{missing} is missing: declare both Lipschitz constants or neither")


def _solve_grid(y_traj: TrajectorySegment, x0, window: float, substeps: int,
                t_start: float) -> np.ndarray:
    """Check the step operators' shared entry contract; return the solve grid.

    The solve grid is the input's own times, which must lie within
    1e-9 * window of the window's uniform grid of substeps steps.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if not (window > 0 and math.isfinite(window)):
        raise ValueError(f"window must be a finite positive number, got {window}")
    if not isinstance(x0, NormedPairElement):
        raise TypeError(f"x0 must be a NormedPairElement from make_element, not {type(x0)}")
    times, grid = y_traj.times, np.linspace(t_start, t_start + window, substeps + 1)
    if len(times) != len(grid) or not np.all(np.abs(times - grid) <= 1e-9 * window):
        raise ValueError(f"frozen input times must lie on the window's grid of {substeps} "
                         f"uniform substeps over [{t_start}, {t_start + window}]")
    return times


def _frozen_inputs(values: np.ndarray, k0: int, k1: int):
    """The transport step's frozen input of substeps k0..k1-1: rows at their
    ends, means of two rows at their midpoints (second order in time)."""
    ends = values[k0:k1 + 1]
    return ends, 0.5 * (ends[:-1] + ends[1:])


def _ode_midpoints(values: np.ndarray) -> np.ndarray:
    """The ODE step's frozen input at the midpoints of the m substeps
    between m + 1 uniformly spaced rows y[0..m].

    Inside, the 4-point cubic (-y[k-1] + 9 y[k] + 9 y[k+1] - y[k+2]) / 16.
    The first substep, whose error every later row carries, reads the
    5-point quartic (70 y[0] + 280 y[1] - 140 y[2] + 56 y[3] - 10 y[4]) / 256:
    with the one-sided cubic there, Picard iterates on a strongly expanding
    window grow again for a while after they have begun to converge. The
    last substep reads the quadratic (3 y[m] + 6 y[m-1] - y[m-2]) / 8: with
    the mirrored one-sided cubic there, the fixed point's observed order
    nears 4 only slowly (3.80 against 4.00 for x' = 2y - x from m = 32 to
    64). With m < 4 a midpoint is the mean of its two rows. Each term is
    scaled before the sum, so a midpoint is at most 139/64 (first substep)
    or 1.25 (any other) times the largest |row| it reads, and finite
    whenever that multiple of the largest |row| is.
    """
    m = len(values) - 1
    if m < 4:
        return 0.5 * values[:-1] + 0.5 * values[1:]
    mids = np.empty_like(values[:-1])
    mids[0] = (0.2734375 * values[0] + 1.09375 * values[1] - 0.546875 * values[2]
               + 0.21875 * values[3] - 0.0390625 * values[4])
    mids[1:-1] = (0.5625 * values[1:-2] + 0.5625 * values[2:-1]
                  - 0.0625 * values[:-3] - 0.0625 * values[3:])
    mids[-1] = 0.375 * values[m] + 0.75 * values[m - 1] - 0.125 * values[m - 2]
    return mids


def ode_step(spec: OdeSpec, y_traj: TrajectorySegment, x0: NormedPairElement,
             window: float, substeps: int, t_start: float = 0.0,
             cap: float | None = None, coupled: bool = False) -> TrajectorySegment:
    """Classic 4-stage one-step solve of x' = f(t, y(t), x) with frozen y.

    x0 is an element with state shape (spec.dimension,); y_traj is sampled
    on the solve grid and read as its rows at the substep ends and by
    _ode_midpoints at the midpoints, so the discrete fixed point
    x = step(x) is fourth order in time like the coupled start (a window
    of fewer than 4 substeps reads the mean of two rows, second order). A
    midpoint may exceed every row it reads, by at most a factor 139/64;
    ode_bounds' A(t, r, M) stays a planning estimate, and core.reject_rows
    on the output rows is what enforces the cap. With coupled, y_traj
    only supplies the grid: each stage reads the frozen slot from its own
    stage state, so the step is classic RK4 of the full equation
    x' = f(t, x, x). For an f that ignores y both give the same bits.
    The states fill one (substeps+1, dimension) buffer whose row 0 is
    x0's; each row's max-abs norm serves as both its weak and strong norm.
    The step finishes the window before it checks the rows, row 0
    included, with core.reject_rows.
    """
    times = _solve_grid(y_traj, x0, window, substeps, t_start)
    if np.shape(x0.state) != (spec.dimension,):
        raise ValueError(f"x0 has shape {np.shape(x0.state)}, spec dimension is {spec.dimension}")

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


def ode_bounds(spec: OdeSpec) -> InstanceBounds:
    """Growth and stability bounds from the declared Lipschitz data.

    A(t, r, M) = (r + t (L1 M + f00)) exp(L2 t) bounds the strong norm of
    the frozen solve; B(t, R) = t L2 R and C(t, R) = t L1 R bound the
    weak-norm sensitivities (integrated over a window of length t).
    """
    if spec.lipschitz_y is None or spec.lipschitz_x is None:
        raise ValueError("spec declares no Lipschitz constants")
    l1, l2, f00 = spec.lipschitz_y, spec.lipschitz_x, spec.f00

    def apriori(t: float, r: float, m: float) -> float:
        return (r + t * (l1 * m + f00)) * np.exp(l2 * t)

    return InstanceBounds(
        apriori=AprioriBound(eval=apriori),
        stability=StabilityBounds(
            b=lambda t, r: t * l2 * r,
            c=lambda t, r: t * l1 * r,
        ),
    )


def make_ode_instance(name: str, spec: OdeSpec) -> ProblemInstance:
    """The instance of spec, with analytic bounds when it declares Lipschitz data."""
    bounds = ode_bounds(spec) if spec.lipschitz_y is not None else None
    return ProblemInstance(
        name=name,
        step=partial(ode_step, spec),
        weak_norm=sup_norm_values,
        strong_norm=sup_norm_values,
        weak_dist=_sup_dist,
        bounds=bounds,
        spec=spec,
    )


def make_decay_instance(rate: float = 1.0) -> ProblemInstance:
    """x' = -rate * x, frozen argument unused. Analytic bounds included."""
    if not rate > 0:
        raise ValueError("rate must be positive")
    spec = OdeSpec(
        dimension=1,
        f=lambda t, y, x: -rate * x,
        lipschitz_y=0.0,
        lipschitz_x=rate,
        f00=0.0,
    )
    return make_ode_instance("ode.decay", spec)


def make_riccati_instance() -> ProblemInstance:
    """x' = x^2 via the splitting f(y, x) = y * x.

    The product has no global Lipschitz constants, so no analytic bounds
    ship with this instance; the engine adapts windows empirically.
    """
    spec = OdeSpec(dimension=1, f=lambda t, y, x: y * x)
    return make_ode_instance("ode.riccati", spec)


def make_linear_ode_instance(a: float, b: float, forcing: float = 0.0,
                             dimension: int = 1) -> ProblemInstance:
    """x' = a y + b x + forcing, with genuine coupling to the frozen slot."""
    c = np.full(dimension, forcing, dtype=np.float64)
    spec = OdeSpec(
        dimension=dimension,
        f=lambda t, y, x: a * y + b * x + c,
        lipschitz_y=abs(a),
        lipschitz_x=abs(b),
        f00=abs(forcing),
    )
    return make_ode_instance("ode.linear", spec)


# -- transport instances -------------------------------------------------------

@dataclass(frozen=True)
class TransportSpec:
    """Coefficients of du/dt = G(x, v) du/dx + g(x, u) on a periodic grid."""

    n: int
    length: float
    G: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    interpolation: str = "cubic"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.length > 0:
            raise ValueError("domain length must be positive")


# query points traced per batched pass: larger blocks raise memory use
# without a clear gain in speed
_BLOCK_POINTS = 4096


def transport_step(spec: TransportSpec, v_traj: TrajectorySegment, u0: NormedPairElement,
                   window: float, substeps: int, t_start: float = 0.0,
                   cap: float | None = None, coupled: bool = False) -> TrajectorySegment:
    """Semi-Lagrangian solve of du/dt = G(x, v(t,x)) du/dx + g(x, u).

    u0 is an element on the spec's grid; v_traj is sampled on the solve
    grid. Per substep and per node: trace the characteristic one substep
    backward (dX/ds = -G, 2-stage midpoint), interpolate the previous
    values at the foot, then advance du/ds = g(X(s), u) along the
    characteristic with a 2-stage step. v is interpolated spatially on
    its grid; at a midpoint in time it is the mean of two rows.

    The feet depend on v only, so they are traced for blocks of substeps
    at once (G must act pointwise on arrays of any shape); only the
    update of u runs substep by substep. The states fill one
    (substeps+1, n) buffer whose row 0 is u0's, with the sup and
    Lipschitz norms of each row; a row reads as a state through
    GridFunction1D(spec.n, spec.length, row). Each block's rows are checked
    by core.reject_rows once it is filled, before the block may raise
    CharacteristicBlowup. coupled is accepted and ignored: the first
    iterate solves with the constant input like any other.
    """
    times = _solve_grid(v_traj, u0, window, substeps, t_start)
    grid0: GridFunction1D = u0.state
    if grid0.n != spec.n or grid0.length != spec.length:
        raise ValueError("initial grid does not match the transport spec")

    with np.errstate(over="ignore", invalid="ignore"):
        rows, sup, lip = _transport_sweep(spec, times, v_traj.values, u0, cap)
    # the segment makes rows read-only, so each GridFunction1D keeps its row uncopied
    return TrajectorySegment(times, rows, sup, lip, u0,
                             wrap=partial(GridFunction1D, spec.n, spec.length))


def _transport_sweep(spec, times, v_values, u0, cap):
    """All substeps of one step; returns the rows, u0's first, and their two norms."""
    n, length, scheme = spec.n, spec.length, spec.interpolation
    substeps = len(times) - 1
    block = max(1, _BLOCK_POINTS // n)
    nodes = u0.state.nodes()
    rows = np.empty((substeps + 1, n))
    sup = np.empty(substeps + 1)
    lip = np.empty(substeps + 1)
    rows[0], sup[0], lip[0] = u0.state.values, u0.weak_norm, u0.strong_norm
    reject_rows(times[:1], sup[:1], lip[:1], cap)
    u = rows[0]
    for k0 in range(0, substeps, block):
        k1 = min(k0 + block, substeps)
        h = (times[k0 + 1:k1 + 1] - times[k0:k1])[:, None]
        v_ends, v_mids = _frozen_inputs(v_values, k0, k1)
        # backward trace over each substep: dX/ds = -G, 2-stage midpoint
        g_end = spec.G(np.broadcast_to(nodes, v_mids.shape), v_ends[1:])
        x_half = wrap_periodic(nodes + 0.5 * h * g_end, length)
        half_idx, half_frac = interp_stencil(x_half, length, n)
        v_half = np.empty_like(x_half)
        for i, v_mid in enumerate(v_mids):
            v_half[i] = interp_values(v_mid, length, x_half[i], scheme,
                                      stencil=(half_idx[i], half_frac[i]))
        foot = nodes + h * spec.G(x_half, v_half)
        blown = np.flatnonzero(np.max(np.abs(foot - nodes), axis=1) > 0.5 * length)
        stop = k0 + int(blown[0]) if blown.size else k1
        foot = wrap_periodic(foot, length)
        foot_idx, foot_frac = interp_stencil(foot, length, n)
        # the only sequential part: each substep interpolates the one before
        for k in range(k0, stop):
            i = k - k0
            u_foot = interp_values(u, length, foot[i], scheme,
                                   stencil=(foot_idx[i], foot_frac[i]))
            if spec.g is None:
                u_next = u_foot
            else:
                u_star = u_foot + 0.5 * h[i, 0] * spec.g(foot[i], u_foot)
                u_next = u_foot + h[i, 0] * spec.g(x_half[i], u_star)
            rows[k + 1] = u_next
            u = rows[k + 1]
        filled = slice(k0 + 1, stop + 1)
        sup[filled], lip[filled] = sup_lip_norms(rows[filled], length)
        reject_rows(times[filled], sup[filled], lip[filled], cap)
        if stop < k1:
            raise CharacteristicBlowup(
                "characteristic foot moved more than half the domain in one substep")
    return rows, sup, lip


def _sup_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| over two row stacks, reduced a block of rows at a time."""
    block = max(1, _BLOCK_POINTS // a.shape[-1])
    return max(float(np.max(np.abs(a[k:k + block] - b[k:k + block])))
               for k in range(0, len(a), block))


def make_transport_instance(name: str, spec: TransportSpec) -> ProblemInstance:
    return ProblemInstance(
        name=name,
        step=partial(transport_step, spec),
        weak_norm=lambda gf: sup_norm_values(gf.values),
        strong_norm=lambda gf: lip_norm_values(gf.values, gf.length),
        weak_dist=_sup_dist,
        bounds=None,  # sharp constants depend on the coefficients' derivatives
        spec=spec,
    )


def _bundled_transport(name: str, G, n: int, length: float,
                       interpolation: str) -> ProblemInstance:
    if n < 16:
        raise ValueError("need n >= 16")
    return make_transport_instance(
        name, TransportSpec(n=n, length=length, G=G, interpolation=interpolation))


def make_advect_instance(n: int, length: float = 2.0 * np.pi,
                         interpolation: str = "cubic") -> ProblemInstance:
    """Constant-speed advection: G = 1, g = 0; solutions shift left to right."""
    return _bundled_transport("transport.advect", lambda x, v: np.ones_like(x),
                              n, length, interpolation)


def make_burgers_instance(n: int, length: float = 2.0 * np.pi,
                          interpolation: str = "cubic") -> ProblemInstance:
    """G(x, v) = -v and g = 0: the fixed point solves du/dt + u du/dx = 0."""
    return _bundled_transport("transport.burgers", lambda x, v: -v,
                              n, length, interpolation)
