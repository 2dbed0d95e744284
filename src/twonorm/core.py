"""Windowed fixed-point engine for evolution problems measured in two norms.

The target equation is x' = f(x, x) where the two argument slots of f are
controlled by different norms: a weak norm in which the frozen problem
x' = f(y, x) is stable under perturbations of y, and a strong norm that
only stays bounded for a while. The engine plans a time window on which
the strong norm stays under a cap and the frozen-solve map y -> x is a
weak-norm contraction, iterates that map to its fixed point, glues windows
end to end, and reports finite-time blow-up when the admissible window
length collapses or the strong norm passes a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Any, Callable

import numpy as np

THETA_FLOOR = 0.1  # floor for empirically estimated contraction factors
BLOWUP_FACTOR = 1e6  # default blow-up threshold: this times the initial strong norm

_R0_FLOOR = 64.0 * np.finfo(np.float64).eps  # cap floor for zero initial data
_CAP_SLACK = 1e-9  # relative slack when comparing strong norms against caps
_RETRY_MARGIN = 0.9  # a failed attempt is retried at this share of its way to the crossing
_RADIUS_SAMPLES = 32  # radii sampled per bound when planning a contraction window
_TOL_T = 1e-10  # bracket width at which select_window's bisection stops
_TOL_FLOOR = 1e-9  # the default stopping tolerance's floor, and its value at iteration 1
_TOL_FRACTION = 0.1  # the default tolerance from iteration 2: this share of d_2


class SolverError(Exception):
    """Base class for engine errors."""


class InvalidCap(SolverError):
    """Strong-norm cap does not exceed the initial strong norm."""


class NonMonotone(SolverError):
    """A sampled a-priori bound decreases in time (instance bug)."""


class NoContractionWindow(SolverError):
    """No admissible contraction window exists; stability bounds look wrong."""


class WindowFailure(SolverError):
    """A window attempt failed; the caller shrinks the window and retries.

    t is the time of the row that failed, value its offending norm and
    limit the cap it broke; each is None where the failure names no row
    (reject_rows sets t and value, and limit for CapExceeded).
    """

    def __init__(self, *args, t: float | None = None, value: float | None = None,
                 limit: float | None = None):
        super().__init__(*args)
        self.t, self.value, self.limit = t, value, limit


class ContractionFailureError(WindowFailure):
    """Successive-iterate ratios exceeded 1 twice in a row."""


class CapExceeded(WindowFailure):
    """An iterate's strong norm left the planned cap."""


class IterBudgetExceeded(WindowFailure):
    """Fixed-point iteration did not converge within the iteration budget."""


class NonFiniteState(WindowFailure):
    """A state left the finite range; treated like a cap violation."""


# -- domain types -----------------------------------------------------------

@dataclass(frozen=True)
class NormedPairElement:
    """A state together with its weak and strong norm.

    strong_norm may be +inf, encoding a state outside the strong space.
    """

    state: Any
    weak_norm: float
    strong_norm: float

    def __post_init__(self):
        if not (self.weak_norm >= 0.0 and math.isfinite(self.weak_norm)):
            raise ValueError(f"weak norm must be finite and >= 0, got {self.weak_norm}")
        if not self.strong_norm >= 0.0:
            raise ValueError(f"strong norm must be >= 0 (or +inf), got {self.strong_norm}")


@dataclass(frozen=True)
class TrajectorySegment:
    """A discrete-time path over one window, stored as arrays.

    values stacks the raw states (m+1, ...) on strictly increasing times;
    row 0 is the raw state of start, the element the window began from.
    weak and strong hold each row's norms, and wrap turns a row into a
    state (the identity for ODEs, a GridFunction1D for transport). The
    four arrays are made read-only here.
    """

    times: np.ndarray
    values: np.ndarray
    weak: np.ndarray
    strong: np.ndarray
    start: NormedPairElement
    wrap: Callable[[np.ndarray], Any] = lambda row: row

    def __post_init__(self):
        for name in ("times", "values", "weak", "strong"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        times = self.times
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("need at least two time samples")
        if len(self.values) != len(times) or not (
                self.weak.shape == self.strong.shape == times.shape):
            raise ValueError("times, values and norms length mismatch")
        # b > a is exactly b - a > 0 for floats, NaN and inf included
        if not (times[1:] > times[:-1]).all():
            raise ValueError("times must be strictly increasing")

    @classmethod
    def constant(cls, times: np.ndarray, start: NormedPairElement) -> "TrajectorySegment":
        """The path that stays at start on times, its raw state broadcast to every row."""
        row, n = np.asarray(start.state, dtype=np.float64), len(times)
        return cls(times, np.broadcast_to(row, (n,) + row.shape), np.full(n, start.weak_norm),
                   np.full(n, start.strong_norm), start)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @cached_property
    def end(self) -> NormedPairElement:
        """The last row wrapped as an element, built on first read without the others."""
        return NormedPairElement(self.wrap(self.values[-1]), float(self.weak[-1]),
                                 float(self.strong[-1]))

    @cached_property
    def states(self) -> tuple[NormedPairElement, ...]:
        """start, then each later row wrapped as an element (end last), built on first read."""
        return (self.start,) + tuple(
            NormedPairElement(self.wrap(row), w, s)
            for row, w, s in zip(self.values[1:-1], self.weak[1:-1].tolist(),
                                 self.strong[1:-1].tolist())) + (self.end,)


@dataclass(frozen=True)
class StabilityBounds:
    """Weak-norm sensitivity bounds of the frozen solve.

    b(t, R) controls feedback of the solution's own perturbation,
    c(t, R) the effect of perturbing the frozen input. For small t,
    b(t,R)/R must stay below 1 and c(t,R)/R must vanish.
    """

    b: Callable[[float, float], float]
    c: Callable[[float, float], float]


@dataclass(frozen=True)
class WindowPlan:
    """One window attempt: the interval [t_start, t_end] under strong-norm cap K."""

    K: float
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError("cap K must be positive")
        if not -math.inf < self.t_start < self.t_end < math.inf:
            raise ValueError(f"need finite t_start < t_end, got [{self.t_start}, {self.t_end}]")


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings. tol None (the default) gives each window its own
    stopping tolerance in picard_window; a positive tol is used as given."""

    kappa: float = 2.0              # cap margin: K = kappa * current strong norm
    theta_target: float = 0.5       # contraction factor aimed for by planning
    tol: float | None = None        # weak-norm fixed-point tolerance; None: per window
    max_picard_iters: int = 80
    max_windows: int = 64
    substeps_per_window: int = 64
    strong_norm_cap: float | None = None  # None: BLOWUP_FACTOR x initial strong norm
    min_window: float = 1e-4        # a failed attempt this short declares blow-up
    window_shrink: float = 0.5
    empirical_mode: bool = False
    swap_roles: bool = False

    def __post_init__(self):
        if not self.kappa > 1.0:
            raise ValueError("kappa must exceed 1")
        for name in ("theta_target", "window_shrink"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0,1), got {v}")
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.min_window > 0:
            raise ValueError("min_window must be positive")
        for name in ("max_picard_iters", "max_windows", "substeps_per_window"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if self.strong_norm_cap is not None and not self.strong_norm_cap > 0:
            raise ValueError("strong_norm_cap must be positive when given")


class Termination(Enum):
    HORIZON_REACHED = "HorizonReached"
    BLOW_UP_DETECTED = "BlowUpDetected"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    CONTRACTION_FAILURE = "ContractionFailure"


@dataclass(frozen=True)
class WindowRecord:
    t_start: float
    t_end: float
    picard_iters: int
    observed_ratios: tuple[float, ...]
    end_strong_norm: float
    tol: float | None = None  # the tolerance the iteration stopped at (not serialised)


@dataclass(frozen=True)
class SolveReport:
    windows: tuple[WindowRecord, ...]
    termination: Termination
    t_c_estimate: float | None = None

    def __post_init__(self):
        if self.termination is Termination.BLOW_UP_DETECTED:
            if self.t_c_estimate is None:
                raise ValueError("blow-up verdict requires a t_c estimate")
            if self.windows and self.t_c_estimate < self.windows[-1].t_end - 1e-12:
                raise ValueError("t_c estimate precedes the last accepted window")

    def to_dict(self) -> dict:
        t_c = self.t_c_estimate
        return {
            "termination": {
                "kind": self.termination.value,
                "t_c_estimate": None if t_c is None or math.isinf(t_c) else t_c,
                "t_c_estimate_infinite": bool(t_c is not None and math.isinf(t_c)),
            },
            "windows": [
                {
                    "t_start": w.t_start,
                    "t_end": w.t_end,
                    "picard_iters": w.picard_iters,
                    "observed_ratios": list(w.observed_ratios),
                    "end_strong_norm": w.end_strong_norm,
                }
                for w in self.windows
            ],
        }


# -- window planning --------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def select_window(apriori: Callable[[float, float, float], float], r0: float, k_cap: float,
                  t_max: float) -> float:
    """Largest t <= t_max keeping the a-priori strong-norm bound under k_cap.

    apriori(t, r0, M) bounds the frozen solve's strong norm; it must be
    non-decreasing in each argument, with apriori(0, r0, M) = r0. Bisects
    t -> apriori(t, r0, k_cap) - k_cap until the bracket is _TOL_T wide or
    holds no float strictly inside. Raises InvalidCap if k_cap <= r0,
    NonMonotone if sampled values decrease and ValueError unless t_max is
    positive and finite. The bound may overflow to +inf on long horizons,
    a valid value over the cap, so numpy's overflow and inf - inf warnings
    are silenced.
    """
    if not k_cap > r0:
        raise InvalidCap(f"cap {k_cap} must exceed initial strong norm {r0}")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    probes = np.linspace(0.0, t_max, 17)
    sampled = [apriori(float(t), r0, k_cap) for t in probes]
    for a, b in zip(sampled, sampled[1:]):
        if b < a - 1e-12 * max(1.0, abs(a)):
            raise NonMonotone("a-priori bound decreases in t on sampled probes")
    if sampled[-1] <= k_cap:
        return t_max
    # apriori(0) = r0 < k_cap, apriori(t_max) > k_cap
    return _bisect(lambda t: apriori(t, r0, k_cap) <= k_cap, 0.0, t_max, _TOL_T)


def _bisect(ok, lo: float, hi: float, tol: float) -> float:
    """Halve [lo, hi], ok(lo) true and ok(hi) false, to tol or no float inside; return lo."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _sup_ratio(fn, t: float, radii: list[float], level: float = math.inf) -> float:
    """Running max of fn(t, r) / r over radii, stopping once it exceeds level.

    A running max only grows, and a NaN first ratio is never replaced (as
    in max), so a verdict `> level` or `<= level` on the result is that of
    the full max.
    """
    peak = fn(t, radii[0]) / radii[0]
    for r in radii[1:]:
        if peak > level:
            break
        ratio = fn(t, r) / r
        if ratio > peak:
            peak = ratio
    return peak


def select_contraction_window(bounds: StabilityBounds, k_cap: float,
                              t1: float, theta_target: float,
                              swap_roles: bool = False, *,
                              min_t: float = 0.0) -> float:
    """Largest window length <= t1 on which the frozen-solve map contracts.

    Searches for the largest t such that, over sampled radii,
    b(t,R)/R <= theta1 (R <= 2K) and c(t,R)/(R (1-theta1)) <= theta_target
    (R <= K). theta1 is 0 when b vanishes identically on the samples and
    otherwise starts at max(theta_target, b's small-t level), escalating
    toward 1 once if infeasible. With swap_roles the two bounds trade
    places, mirroring the symmetric variant of the construction.

    Raises NoContractionWindow when no t >= min_t works, which signals
    invalid stability bounds.
    """
    if not 0 < t1 < math.inf:
        raise ValueError(f"t1 must be positive and finite, got {t1}")
    b_fn, c_fn = (bounds.c, bounds.b) if swap_roles else (bounds.b, bounds.c)
    # geometric radius samples; sup over them stands in for the true sup
    radii_b = np.geomspace(2.0 * k_cap * 1e-6, 2.0 * k_cap, _RADIUS_SAMPLES).tolist()
    radii_c = np.geomspace(k_cap * 1e-6, k_cap, _RADIUS_SAMPLES).tolist()

    t_tiny = t1 * 1e-9
    probe_ts = np.linspace(t_tiny, t1, 9).tolist()
    b_vanishes = all(b_fn(t, r) == 0.0 for t in probe_ts for r in radii_b)
    beta_tiny = 0.0 if b_vanishes else _sup_ratio(b_fn, t_tiny, radii_b)

    if b_vanishes:
        theta1_candidates = [0.0]
    else:
        first = max(theta_target, beta_tiny)
        theta1_candidates = [th for th in (first, 0.5 * (first + 1.0)) if th < 1.0]
    if not theta1_candidates:
        raise NoContractionWindow("b(t,R)/R does not drop below 1 for small t")

    for theta1 in theta1_candidates:
        def feasible(t: float) -> bool:
            if _sup_ratio(b_fn, t, radii_b, theta1) > theta1:
                return False
            level = theta_target * (1.0 - theta1)
            return _sup_ratio(c_fn, t, radii_c, level) <= level

        if feasible(t1):
            return t1
        floor = max(min_t, t1 * 1e-12)
        if not feasible(floor):
            continue
        return _bisect(feasible, floor, t1, t1 * 1e-12)
    raise NoContractionWindow(
        f"no contraction window of length >= {min_t} exists below {t1}")


def estimate_theta_empirical(ratios) -> float:
    """Contraction factor estimate: max of the last three ratios, floored at THETA_FLOOR."""
    if len(ratios) == 0:
        raise ValueError("need at least one observed ratio")
    if not all(r >= 0 for r in ratios):
        raise ValueError("ratios must be nonnegative numbers")
    tail = list(ratios)[-min(3, len(ratios)):]
    return max(THETA_FLOOR, max(tail))


# -- fixed-point iteration over one window ----------------------------------

def reject_rows(times, weak, strong, cap: float | None) -> None:
    """Raise for the earliest row that leaves the weak space or the strong ball of radius cap.

    times[k], weak[k] and strong[k] belong to row k. A weak norm that is
    not finite raises NonFiniteState; a strong norm that is not <= cap
    (NaN included) raises CapExceeded; a row that is both raises
    NonFiniteState. Either message names the row's time, and the failure
    carries it as t, with the row's weak (NonFiniteState) or strong
    (CapExceeded) norm as value and, for CapExceeded, cap as limit. With
    cap None only the weak norms are checked.
    """
    finite = np.isfinite(weak)
    bad = ~finite if cap is None else ~(finite & (strong <= cap))
    if bad.any():
        k = int(np.argmax(bad))
        t = float(times[k])
        if not finite[k]:
            w = float(weak[k])
            what = "is not a number" if math.isnan(w) else "overflowed"
            raise NonFiniteState(f"state {what} at t={t}", t=t, value=w)
        s = float(strong[k])
        raise CapExceeded(f"strong norm {s} exceeds cap {cap} by t={t}", t=t, value=s,
                          limit=cap)


def picard_window(instance, x0: NormedPairElement, plan: WindowPlan,
                  cfg: SolverConfig) -> tuple[TrajectorySegment, WindowRecord]:
    """Iterate the frozen-solve map on [plan.t_start, plan.t_end].

    Starts from the constant-in-time trajectory at x0 (its row broadcast,
    not copied, over the uniform grid of cfg.substeps_per_window
    substeps, which every step call reuses). The first step call passes
    coupled=True, so the step returns its solve of the coupled problem
    on that grid (the ODE step's RK4 of x' = f(t, x, x), the transport
    step's trace with v extrapolated from its own rows) as the first
    iterate instead of the frozen solve from the constant input. Later
    calls solve the frozen problem with the previous iterate as input.
    The iteration stops once the a-posteriori bound theta/(1-theta) * d_n
    falls under tol, where d_n = instance.weak_dist of the two
    iterates' stacked rows (the first against the constant start) and
    theta is cfg.theta_target (or the empirical estimate). tol is cfg.tol
    when set. Otherwise it is _TOL_FLOOR at iteration 1 and
    max(_TOL_FLOOR, _TOL_FRACTION * d_2) from iteration 2 on: the coupled
    first iterate and its first frozen correction are two discretizations
    of one order, so d_2 estimates the discretization error, and the
    iteration stops at a fraction of it. The record's tol is the value
    the iteration stopped at. Every returned
    iterate is judged by reject_rows against plan.K (with _CAP_SLACK),
    the one check its rows must pass; the step gets the cap only as a
    hint to stop a doomed iterate early, as the transport step does.

    Raises NoContractionWindow naming the window when its m + 1 grid
    times are not distinct, and WindowFailure subclasses when the window
    has to shrink: ContractionFailureError (ratio above 1 twice in a
    row), CapExceeded, NonFiniteState (from reject_rows, here or in a
    step that stops early), or IterBudgetExceeded.
    """
    if x0.strong_norm > plan.K / cfg.kappa * (1.0 + _CAP_SLACK):
        raise InvalidCap(
            f"initial strong norm {x0.strong_norm} exceeds plan.K/kappa = "
            f"{plan.K / cfg.kappa}")
    m = cfg.substeps_per_window
    times = np.linspace(plan.t_start, plan.t_end, m + 1)
    if not (times[1:] > times[:-1]).all():
        raise NoContractionWindow(f"window [{plan.t_start}, {plan.t_end}] is too short for "
                                  f"{m + 1} distinct grid times")
    analytic = instance.bounds is not None and not cfg.empirical_mode
    cap = plan.K * (1.0 + _CAP_SLACK)

    prev = TrajectorySegment.constant(times, x0)
    d_prev = None
    tol = _TOL_FLOOR if cfg.tol is None else cfg.tol
    ratios: list[float] = []
    for iteration in range(1, cfg.max_picard_iters + 1):
        cur = instance.step(prev, x0, substeps=m, cap=cap, coupled=iteration == 1)
        if cur.start is not x0:
            raise SolverError("step operator must start its output from the x0 element")
        reject_rows(cur.times, cur.weak, cur.strong, cap)
        d = instance.weak_dist(cur.values, prev.values)
        if iteration == 2 and cfg.tol is None:
            tol = max(_TOL_FLOOR, _TOL_FRACTION * d)
        if d_prev is not None and d_prev > 0.0:
            ratio = d / d_prev
            ratios.append(ratio)
            if ratio > 1.0 and len(ratios) > 1 and ratios[-2] > 1.0:
                raise ContractionFailureError(
                    f"ratios exceeded 1 twice in a row (last {ratio:.3g})")
        prev, d_prev = cur, d
        if d == 0.0:
            break
        if analytic:
            theta_stop = cfg.theta_target
        elif ratios:
            theta_stop = estimate_theta_empirical(ratios)
        else:
            continue  # no contraction evidence yet
        if theta_stop < 1.0 and theta_stop / (1.0 - theta_stop) * d <= tol:
            break
    else:
        raise IterBudgetExceeded(
            f"no convergence in {cfg.max_picard_iters} iterations (d={d_prev:.3g})")

    record = WindowRecord(
        t_start=float(times[0]),
        t_end=float(times[-1]),
        picard_iters=iteration,
        observed_ratios=tuple(ratios),
        end_strong_norm=float(prev.strong[-1]),
        tol=tol,
    )
    return prev, record


# -- continuation by gluing --------------------------------------------------

def _cap_crossing_time(times, strong, kappa: float) -> float | None:
    """Fitted time for a growing strong norm to go from its last row's value to kappa x it.

    Needs a positive norm that rises from each row to the next (a norm
    that dips between rows, as |x| does where x changes sign, is no
    blow-up evidence) and reads it at the rows a = 0, m = len // 2 and
    b = -1. With g1 = ln(r_m / r_a), g2 = ln(r_b / r_m) over the halves h1 =
    t_m - t_a and h2 = t_b - t_m, a norm whose log-growth rate is larger
    over the second half fits the power law r = c (T - t)^(-alpha), and
    the time is (T - t_b)(1 - kappa^(-1/alpha)); otherwise it fits the
    exponential limit r = c e^(lambda t) with lambda = g2 / h2, and the
    time is ln(kappa) / lambda. None (no prediction) when the norm does
    not rise from row to row, a log-growth is 0 or not finite, or the
    fitted T - t_a leaves its bracket (t_b - t_a, inf).

    With beta = 1/alpha the power law gives h1 = (T - t_a)(1 - e^(-g1 beta))
    and h2 = (T - t_a) e^(-g1 beta)(1 - e^(-g2 beta)), so beta is the root
    of G(beta) = ln(1 - e^(-g2 beta)) - ln(e^(g1 beta) - 1) - ln(h2 / h1),
    evaluated as G(0+) = ln(g2 h1 / (g1 h2)) plus the logs of
    (1 - e^(-x)) / x and (e^x - 1) / x, which stay near 1 for small x. G
    falls from G(0+) > 0 and is convex (g2 > g1 as h2 >= h1), so secant
    steps from 0+ (the first one along G'(0+) = -(g1 + g2) / 2) climb to
    the root from below; it lies below ln(1 + h1 / h2) / g1, where
    T - t_a = h1 + h2.
    """
    if not (strong[0] > 0.0 and (strong[1:] > strong[:-1]).all()):
        return None
    k = (len(times) - 1) // 2
    r_a, r_m, r_b = float(strong[0]), float(strong[k]), float(strong[-1])
    g1, g2 = math.log(r_m / r_a), math.log(r_b / r_m)
    if not (0.0 < g1 < math.inf and 0.0 < g2 < math.inf):
        return None
    h1, h2 = float(times[k] - times[0]), float(times[-1] - times[k])
    lead = math.log(g2 / g1 * (h1 / h2))  # G(0+)
    if not lead > 0.0:
        return math.log(kappa) * h2 / g2
    top = math.log1p(h1 / h2) / g1

    def gap(beta):
        x1, x2 = g1 * beta, g2 * beta
        return lead + math.log(-math.expm1(-x2) / x2) - math.log(math.expm1(x1) / x1)

    lo, gap_lo, beta = 0.0, lead, 2.0 * lead / (g1 + g2)
    for _ in range(100):  # a guard: the climb settles in a few steps
        if not beta < top:
            return None
        gap_beta = gap(beta)
        if not 0.0 < gap_beta < gap_lo:  # at the root to float precision
            break
        lo, gap_lo, beta = beta, gap_beta, beta + gap_beta * (beta - lo) / (gap_lo - gap_beta)
    else:
        return None
    tail = h1 * math.exp(-(g1 + g2) * beta) / -math.expm1(-g1 * beta)  # T - t_b
    return -tail * math.expm1(-beta * math.log(kappa))


def _plan_window(bounds, cfg: SolverConfig, r0: float, k_cap: float, remaining: float) -> float:
    """A round's first analytic attempt from the instance's bounds.

    Raises NoContractionWindow when the a-priori window is 0 (here) or
    there is no contraction window (select_contraction_window).
    """
    apriori, stability = bounds
    t1 = select_window(apriori, r0, k_cap, remaining)
    if not t1 > 0:
        raise NoContractionWindow(f"the a-priori bound leaves no window from strong norm {r0} "
                                  f"under cap {k_cap}")
    return select_contraction_window(stability, k_cap, t1, cfg.theta_target, cfg.swap_roles,
                                     min_t=cfg.min_window)


def continuation_solve(instance, x0: NormedPairElement, t_max: float,
                       cfg: SolverConfig) -> tuple[list[TrajectorySegment], SolveReport]:
    """Advance to t_max by planning, solving and gluing windows.

    The outer loop makes one pass per round, which ends in one accepted
    window, and the inner loop one pass per attempt of that round.
    Each round caps the strong norm at kappa times its current value and
    plans a first attempt from the instance's analytic bounds or, when
    there are none or cfg.empirical_mode is set, as min(remaining,
    proposal), the remaining horizon in the first round. The proposal is
    min(2 x the last accepted window, _RETRY_MARGIN x D), where D is the
    time _cap_crossing_time fits from that window's strong norms for the
    norm to reach kappa times its end value, just short of the next cap
    crossing, but never below cfg.min_window; where the fit gives none, it
    is 2 x the window, or 1 x after a round that needed a retry. In both
    modes a failed attempt a is retried at max(cfg.window_shrink x a,
    _RETRY_MARGIN x (t - t0), cfg.min_window), where t - t0 is how far
    past the window's start t0 its failure names a time t (0 where it
    names none, and at most a): just short of the crossing, and never below
    cfg.min_window. An accepted attempt is glued on and the next round
    restarts from its exact end state. NoContractionWindow from a round's
    planning or attempts is a contraction failure, the one exit with that
    verdict: an analytic plan of length 0 or with no contraction window,
    or an attempt too short for m + 1 distinct grid times (picard_window)
    or to end after its start. Blow-up is declared once the strong norm passes the
    configured threshold (the window is cut at the first stored time over
    it) or an attempt planned at most cfg.min_window long fails (planned:
    one within float jitter of the remaining horizon ends on it, a little
    longer): a failure of a longer attempt says nothing about blow-up, so the retries try
    cfg.min_window once before they give up. The fit only proposes: a D
    below cfg.min_window ends the run only once the min_window attempt it
    yields fails. t_c is the end of the last
    accepted window (0.0 if none): the detection time, not a bound on either side of the
    true critical time. A norm that grows without limit is detected
    before it (Riccati: t_c < 1), while a discrete norm that saturates on
    a fixed grid passes the threshold early or late (Burgers: 2.3 % early
    at n = 256, 0.65 % late at n = 1024).

    Raises ValueError when x0's strong norm is not finite, t_max is not
    positive and finite, 2 x kappa x the initial strong norm (the
    largest radius window planning samples) overflows, or, with no
    cfg.strong_norm_cap, the default blow-up threshold BLOWUP_FACTOR x the
    initial strong norm overflows.
    """
    if not math.isfinite(x0.strong_norm):
        raise ValueError("initial state must have a finite strong norm")
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    # window planning samples radii up to 2K = 2 kappa max(r, _R0_FLOOR)
    if not math.isfinite(2.0 * cfg.kappa * max(x0.strong_norm, _R0_FLOOR)):
        raise ValueError(f"2 x kappa x the initial strong norm overflows: kappa {cfg.kappa:g}, "
                         f"initial strong norm {x0.strong_norm:g}")
    blowup_cap = cfg.strong_norm_cap
    if blowup_cap is None:
        blowup_cap = BLOWUP_FACTOR * float(max(x0.strong_norm, _R0_FLOOR))
        if not math.isfinite(blowup_cap):
            raise ValueError(f"the blow-up threshold {BLOWUP_FACTOR:g} x the initial strong "
                             f"norm overflows: initial strong norm {x0.strong_norm:g}; "
                             f"give a finite strong_norm_cap")
    horizon_slack = 1e-12 * max(1.0, abs(t_max))
    empirical = instance.bounds is None or cfg.empirical_mode

    segments: list[TrajectorySegment] = []
    records: list[WindowRecord] = []

    def finish(termination: Termination, t_c: float | None = None):
        return segments, SolveReport(windows=tuple(records), termination=termination,
                                     t_c_estimate=t_c)

    x_cur = x0
    t_cur = 0.0
    proposal = math.inf  # the next empirical round's first attempt, before the horizon cut
    while True:
        if t_cur >= t_max - horizon_slack:
            return finish(Termination.HORIZON_REACHED)
        if x_cur.strong_norm > blowup_cap:
            return finish(Termination.BLOW_UP_DETECTED, t_cur)
        if len(records) >= cfg.max_windows:
            return finish(Termination.BUDGET_EXHAUSTED)
        remaining = t_max - t_cur
        k_cap = cfg.kappa * max(x_cur.strong_norm, _R0_FLOOR)
        retried = False  # whether this round has failed an attempt
        try:
            window = min(remaining, proposal) if empirical else _plan_window(
                instance.bounds, cfg, x_cur.strong_norm, k_cap, remaining)
            while True:
                if window < remaining * (1.0 - 1e-9):
                    a, t_end = window, t_cur + window
                else:  # a window within float jitter of the remaining horizon ends on it
                    a, t_end = remaining, t_max
                if not t_end > t_cur:
                    raise NoContractionWindow(f"window {window} ends where it starts, at {t_cur}")
                try:
                    seg, rec = picard_window(instance, x_cur, WindowPlan(k_cap, t_cur, t_end), cfg)
                    break
                except WindowFailure as exc:
                    if window <= cfg.min_window:  # collapse, judged on the window as planned
                        return finish(Termination.BLOW_UP_DETECTED, t_cur)
                    # at most a: t_end - t_cur can round past a, and a retry of
                    # 0.9 x that past-a length need not be shorter than a
                    since = 0.0 if exc.t is None else min(exc.t - t_cur, a)
                    window = max(cfg.window_shrink * a, _RETRY_MARGIN * since, cfg.min_window)
                    retried = True
        except NoContractionWindow:
            return finish(Termination.CONTRACTION_FAILURE)

        # substep-resolution blow-up detection: cut the window at the first
        # stored time over the threshold (row 0 passed this round's check)
        over = seg.strong > blowup_cap
        if over.any():
            k = max(int(over.argmax()), 1) + 1
            seg = replace(seg, times=seg.times[:k], values=seg.values[:k],
                          weak=seg.weak[:k], strong=seg.strong[:k])
            segments.append(seg)
            records.append(replace(rec, t_end=seg.t_end,
                                   end_strong_norm=float(seg.strong[-1])))
            return finish(Termination.BLOW_UP_DETECTED, seg.t_end)

        segments.append(seg)
        records.append(rec)
        x_cur = seg.end  # exact handle: junction states are identical
        t_cur = seg.t_end
        length = seg.t_end - seg.t_start
        reach = _cap_crossing_time(seg.times, seg.strong, cfg.kappa) if empirical else None
        if reach is None:
            proposal = (1.0 if retried else 2.0) * length
        else:  # never below min_window: a real blow-up fails it, and that failure collapses
            proposal = max(cfg.min_window, min(2.0 * length, _RETRY_MARGIN * reach))
