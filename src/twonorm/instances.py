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
from itertools import repeat
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import (
    NormedPairElement,
    StabilityBounds,
    TrajectorySegment,
    WindowFailure,
    reject_rows,
)
from .grids import (
    INTERP_SCHEMES,
    GridFunction1D,
    interp_stencil,
    interp_values,
    lip_norm_values,
    sup_lip_norms,
    sup_norm_values,
    wrap_by_shift,
    wrap_periodic,
)


class CharacteristicBlowup(WindowFailure):
    """A traced characteristic foot moved more than half the domain in one substep."""


class InstanceBounds(NamedTuple):
    """Analytic planning data: the a-priori strong-norm bound apriori(t, r0, M)
    that core.select_window bisects, and the weak-norm sensitivities."""

    apriori: Callable[[float, float, float], float]
    stability: StabilityBounds


def make_element(instance: "ProblemInstance", state) -> NormedPairElement:
    """Wrap a raw state with the instance's norm pair."""
    return NormedPairElement(state, instance.weak_norm(state), instance.strong_norm(state))


@dataclass(frozen=True)
class ProblemInstance:
    """A frozen-step operator together with its norm pair.

    step(y_traj, x0, substeps=m, cap=None, coupled=False), called with
    keywords after x0, solves the frozen problem on the times of y_traj (a
    uniform grid of m steps, read through its stacked rows y_traj.values)
    and returns a TrajectorySegment whose start is the
    x0 element and whose row 0 is x0's raw state. picard_window passes
    coupled=True on a window's first call, where y_traj is only the
    constant start: the step then solves the coupled problem
    x' = f(t, x, x) on y_traj.times instead, as both bundled steps do.
    Under the default SolverConfig.tol the window's tolerance is a tenth of
    that solve's distance to its first frozen correction, so a step that
    ignores the hint needs an explicit tol. At substep midpoints both steps
    read the frozen input as _means of two rows, except that the ODE step on
    4 or more substeps interpolates its rows (4-point cubic inside the window).
    picard_window rejects every returned trajectory by core.reject_rows: its
    earliest row whose weak norm is not finite (NonFiniteState) or whose
    strong norm is not <= cap (CapExceeded). A step may use cap to stop
    early by reject_rows, as the transport step does. weak_dist(a, b) takes two stacked row
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


def _solve_grid(y_traj: TrajectorySegment, x0,
                substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Check the step operators' shared entry contract; return the solve
    grid and its substep lengths.

    The solve grid is the input's own times: substeps + 1 of them over a
    finite positive span, each within 1e-9 * span of the uniform grid. The
    substep lengths are times[1:] - times[:-1], the only differences of
    neighbouring times that the steps read.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if not isinstance(x0, NormedPairElement):
        raise TypeError(f"x0 must be a NormedPairElement from make_element, not {type(x0)}")
    times = y_traj.times
    t0, t1 = float(times[0]), float(times[-1])
    span = t1 - t0  # a Python float: an overflow gives inf without a warning
    if not (len(times) == substeps + 1 and 0.0 < span < math.inf
            and (np.abs(times - np.linspace(t0, t1, substeps + 1)) <= 1e-9 * span).all()):
        raise ValueError(f"frozen input times must lie on a grid of {substeps} uniform "
                         f"substeps over a finite span, got {len(times)} over [{t0}, {t1}]")
    return times, times[1:] - times[:-1]


def _means(values: np.ndarray) -> np.ndarray:
    """Means of neighbouring rows, halved first: finite for finite rows, and bitwise
    0.5 * (a + b) where a + b is finite and no nonzero |value| is below 2**-1021."""
    half = 0.5 * values
    return half[:-1] + half[1:]


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
    64). With m < 4 a midpoint is _means of its two rows. Each term is
    scaled before the sum, so a midpoint is at most 139/64 (first substep)
    or 1.25 (any other) times the largest |row| it reads, and finite
    whenever that multiple of the largest |row| is.
    """
    m = len(values) - 1
    if m < 4:
        return _means(values)
    mids = np.empty_like(values[:-1])
    mids[0] = (0.2734375 * values[0] + 1.09375 * values[1] - 0.546875 * values[2]
               + 0.21875 * values[3] - 0.0390625 * values[4])
    mids[1:-1] = (0.5625 * values[1:-2] + 0.5625 * values[2:-1]
                  - 0.0625 * values[:-3] - 0.0625 * values[3:])
    mids[-1] = 0.375 * values[m] + 0.75 * values[m - 1] - 0.125 * values[m - 2]
    return mids


def ode_step(spec: OdeSpec, y_traj: TrajectorySegment, x0: NormedPairElement, *, substeps: int,
             cap: float | None = None, coupled: bool = False) -> TrajectorySegment:
    """Classic 4-stage one-step solve of x' = f(t, y(t), x) with frozen y.

    x0 is an element with state shape (spec.dimension,); y_traj is sampled
    on the solve grid and read as its rows at the substep ends and by
    _ode_midpoints at the midpoints, so the discrete fixed point
    x = step(x) is fourth order in time like the coupled start (a window
    of fewer than 4 substeps reads _means of two rows, second order). A
    midpoint may exceed every row it reads, by at most a factor 139/64;
    ode_bounds' A(t, r, M) stays a planning estimate; picard_window's
    core.reject_rows on the output rows enforces the cap. With coupled, y_traj
    only supplies the grid: each stage reads the frozen slot from its own
    stage state, so the step is classic RK4 of the full equation
    x' = f(t, x, x). For an f that ignores y both give the same bits.
    The states fill one (substeps+1, dimension) buffer whose row 0 is
    x0's; each row's max-abs norm serves as both its weak and strong norm.
    It finishes the window and leaves its rows to picard_window's check:
    cap, kept for the shared step signature, changes no bit.

    The times are read once per call: f gets the Python floats t_k,
    t_k + 0.5 h and t_k + h with h = t_{k+1} - t_k, and the stage factors
    0.5 h, h and h / 6 are (1,) rows of column arrays, so each stage update
    is one array-by-array product, the same IEEE multiply as a float
    factor's. k2 + k2 is exactly 2 k2, so for an f that returns float64
    every substep keeps classic RK4's operation order and bits.
    """
    times, steps = _solve_grid(y_traj, x0, substeps)
    if np.shape(x0.state) != (spec.dimension,):
        raise ValueError(f"x0 has shape {np.shape(x0.state)}, spec dimension is {spec.dimension}")

    xs = np.empty((substeps + 1, spec.dimension))
    xs[0] = x0.state
    x = xs[0]
    f = spec.f
    h = steps[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        y_ends = repeat(None) if coupled else iter(y_traj.values)
        y_mids = repeat(None) if coupled else _ode_midpoints(y_traj.values)
        y_k = next(y_ends)
        for row, t_k, h_k, half, step, sixth, y_m, y_e in zip(
                xs[1:], times.tolist(), steps.tolist(), 0.5 * h, h, h / 6.0, y_mids, y_ends):
            t_m = t_k + 0.5 * h_k
            k1 = f(t_k, x if coupled else y_k, x)
            x2 = x + half * k1
            k2 = f(t_m, x2 if coupled else y_m, x2)
            x3 = x + half * k2
            k3 = f(t_m, x3 if coupled else y_m, x3)
            x4 = x + step * k3
            k4 = f(t_k + h_k, x4 if coupled else y_e, x4)
            x = np.add(x, sixth * (k1 + (k2 + k2) + (k3 + k3) + k4), row)
            y_k = y_e
        norms = np.abs(xs).max(axis=1)
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
        apriori=apriori,
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
    """x' = -rate * x, frozen argument unused. Analytic bounds included.

    -rate is a (1,) row, so f is one array-by-array product, bitwise the
    float-by-array -rate * x (the idiom of ode_step's stage factors).
    """
    if not rate > 0:
        raise ValueError("rate must be positive")
    neg_rate = np.array([-rate])
    spec = OdeSpec(
        dimension=1,
        f=lambda t, y, x: neg_rate * x,
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
        if self.interpolation not in INTERP_SCHEMES:
            raise ValueError(f"interpolation {self.interpolation!r} not in {INTERP_SCHEMES}")


# query points per batched pass of transport_step and per row block of _sup_dist:
# at 8192 a block's float arrays are 64 KiB. In process on burgers-blowup
# (best of 7 rounds, one CPU of a 2-vCPU Xeon host) 4096 / 8192 / 12288 /
# 16384 took 0.565 / 0.523 / 0.537 / 0.524 s and 32768 0.600 s
_BLOCK_POINTS = 8192


def transport_step(spec: TransportSpec, v_traj: TrajectorySegment, u0: NormedPairElement, *,
                   substeps: int, cap: float | None = None,
                   coupled: bool = False) -> TrajectorySegment:
    """Semi-Lagrangian solve of du/dt = G(x, v(t,x)) du/dx + g(x, u).

    u0 is an element on the spec's grid; v_traj is sampled on the solve
    grid. Per substep and per node: trace the characteristic one substep
    backward (dX/ds = -G, 2-stage midpoint), interpolate the previous
    values at the foot, then advance du/ds = g(X(s), u) along the
    characteristic with a 2-stage step. v is interpolated spatially on
    its grid; at a midpoint in time it is _means of two neighbouring rows.

    The substeps run in blocks of max(1, _BLOCK_POINTS // n). The feet of
    the frozen problem depend on v only, so they are traced for a whole
    block at once (G must act pointwise on arrays of any shape); only the
    update of u runs substep by substep. The states fill one
    (substeps+1, n) buffer whose row 0 is u0's, with the sup and
    Lipschitz norms of each row; a row reads as a state through
    GridFunction1D(spec.n, spec.length, row). Each block's rows are checked
    by core.reject_rows once it is filled, from the block's first row on
    (so row 0 with the first block), before the block may raise
    CharacteristicBlowup: the failure raised is always the earliest. With
    coupled, v_traj only supplies the grid: the step solves
    du/dt = G(x, u) du/dx + g(x, u) in the same blocks, tracing substep k
    inside its block from the rows already solved, with v = u_k at its
    start and 2 u_k - u_{k-1} (u_0 at the first substep) at its end, so
    1.5 u_k - 0.5 u_{k-1} at its midpoint, which makes the solve second
    order in time. For a G that ignores v both give the same bits.
    """
    times, steps = _solve_grid(v_traj, u0, substeps)
    grid0 = u0.state
    if not (isinstance(grid0, GridFunction1D) and grid0.n == spec.n
            and grid0.length == spec.length):
        raise ValueError("initial grid does not match the transport spec")

    n, length, scheme = spec.n, spec.length, spec.interpolation
    block = max(1, _BLOCK_POINTS // n)
    nodes = grid0.nodes()
    rows = np.empty((substeps + 1, n))
    sup = np.empty(substeps + 1)
    lip = np.empty(substeps + 1)
    rows[0], sup[0], lip[0] = grid0.values, u0.weak_norm, u0.strong_norm
    traces, source = (_coupled_traces, rows) if coupled else (_frozen_traces, v_traj.values)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, substeps, block):
            k1 = min(k0 + block, substeps)
            k = k0
            # the only sequential part: each substep interpolates the one before
            for h, x_half, foot, stencil in traces(spec, nodes, steps, source, k0, k1):
                u_foot = interp_values(rows[k], length, foot, scheme, stencil=stencil)
                if spec.g is None:
                    rows[k + 1] = u_foot
                else:
                    u_star = u_foot + 0.5 * h * spec.g(foot, u_foot)
                    rows[k + 1] = u_foot + h * spec.g(x_half, u_star)
                k += 1
            filled = slice(k0 + 1, k + 1)
            sup[filled], lip[filled] = sup_lip_norms(rows[filled], length)
            reject_rows(times[k0:k + 1], sup[k0:k + 1], lip[k0:k + 1], cap)
            if k < k1:
                raise CharacteristicBlowup(
                    "characteristic foot moved more than half the domain in one substep")
    # the segment makes rows read-only, so each GridFunction1D keeps its row uncopied
    return TrajectorySegment(times, rows, sup, lip, u0,
                             wrap=partial(GridFunction1D, spec.n, spec.length))


def _frozen_traces(spec, nodes, steps, v_values, k0, k1):
    """(h, x_half, foot, foot stencil) of substeps k0..k1-1, of lengths
    steps[k0..k1-1], traced at once from the frozen rows v_values[k0..k1],
    up to the first blown foot."""
    h = steps[k0:k1, None]
    v_rows = v_values[k0:k1 + 1]
    x_half, foot = _trace(spec, np.broadcast_to(nodes, (k1 - k0, spec.n)), h,
                          _means(v_rows), v_rows[1:])
    blown = np.flatnonzero(np.max(np.abs(foot - nodes), axis=1) > 0.5 * spec.length)
    foot = wrap_by_shift(foot[:blown[0]] if blown.size else foot, spec.length)
    return zip(h[:, 0], x_half, foot, zip(*interp_stencil(foot, spec.length, spec.n)))


def _coupled_traces(spec, nodes, steps, rows, k0, k1):
    """(h, x_half, foot, foot stencil) of substeps k0..k1-1, of lengths
    steps[k0..k1-1], each traced from rows[k] and rows[k - 1] when its turn
    comes, up to the first blown foot.

    A generator: transport_step fills rows[k] before it asks for substep k.
    """
    for k in range(k0, k1):
        u = rows[k]
        w = 2.0 * u - rows[k - 1] if k else u
        h = float(steps[k])
        x_half, foot = _trace(spec, nodes, h, 0.5 * u + 0.5 * w, w)
        if np.max(np.abs(foot - nodes)) > 0.5 * spec.length:
            return
        foot = wrap_by_shift(foot, spec.length)
        yield h, x_half, foot, interp_stencil(foot, spec.length, spec.n)


def _trace(spec, x, h, v_mid, v_end):
    """Backward trace over substeps of length h from the nodes x:
    dX/ds = -G, 2-stage midpoint.

    v_mid and v_end are the field at the substeps' midpoints and ends, one
    row each (1-D for one substep with a float h; 2-D, with x the nodes
    broadcast to their shape and h a column, for a block). Returns the
    wrapped midpoint positions and the feet, unwrapped: only a foot within
    half the domain of its node may take the unchecked wrap_by_shift.
    """
    length, scheme = spec.length, spec.interpolation
    x_half = wrap_periodic(x + 0.5 * h * spec.G(x, v_end), length)
    half_idx, half_frac = interp_stencil(x_half, length, spec.n)
    if v_mid.ndim == 1:
        v_half = interp_values(v_mid, length, x_half, scheme, stencil=(half_idx, half_frac))
    else:
        v_half = np.empty_like(x_half)
        for i, row in enumerate(v_mid):
            v_half[i] = interp_values(row, length, x_half[i], scheme,
                                      stencil=(half_idx[i], half_frac[i]))
    return x_half, x + h * spec.G(x_half, v_half)


def _sup_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| over two row stacks, reduced a block of rows at a time."""
    block = max(1, _BLOCK_POINTS // a.shape[-1])
    peak = np.abs(a[:block] - b[:block]).max()
    for k in range(block, len(a), block):
        dist = np.abs(a[k:k + block] - b[k:k + block]).max()
        if dist > peak:  # a NaN first block stays, a NaN block after it is passed over
            peak = dist
    return float(peak)


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
