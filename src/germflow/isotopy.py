"""Ambient-isotopy construction between equisingular branches.

``invariants.equisingular`` decides the pair, and the plan walks both
branches at full precision, once each, blowing each up at every level in
the chart the target's own state picks there (``resolution.state_slope``,
as ``resolution.blowup_step`` picks it), until the target is resolved; no
separate ``resolution.resolve`` walks the target first.  Each stage of the
plan is one of three field types, each pushing one chart coordinate.  They
are written below for a field pushing v; one pushing u is the same field
after x and y are exchanged (``resolution.swapped``), as chart B is chart A:

- ``Shear``: a global linear shear at level 0 (no exceptional divisor
  exists yet) that moves a tangent off 0 or infinity before the
  multiplicative stages can act.
- ``Multiplicative``: a compactly supported field rho * (0, lambda*(v - a*u))
  whose time-1 flow rotates the moving branch's tangent onto the target's
  recorded slope (lambda = principal log of the slope ratio; the shear a is
  0 whenever both slopes are finite nonzero, and keeps every labeled axis
  invariant otherwise).
- ``GraphMatch``: once the source is resolved, a translation field
  rho * (0, s2(u) - s1(u)) that matches its graph s1 to the target's
  recorded final graph s2 over the exceptional coordinate; each graph s(u)
  is read off the chart series by deflation through t/u
  (``TruncatedSeries.in_terms_of``), and the stage keeps their difference.

After a shear or multiplicative stage the moving branch's chart series is
updated by the stage's exact rational time-1 map, so deeper stages are
still built from exact data.  The plan records the target's chart path once
(a stage at level k acts in the chart of its first k steps) and the sample
window its bumps were sized for.  Samples are carried in chart coordinates
(``apply_plan``).  A stage's ``bump`` is the radius of the ball on which its
cut-off rho is 1 (a shear has none).  Each raw field is a translation or a
linear map in the coordinate it moves, so wherever a trajectory stays in that
ball its time-1 flow is closed form; a sample that a stage cannot carry (a
lift or trajectory for which ``lift_point`` or ``integrate_flow`` returns
None) is reported as uncontained, and FAILs.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .branch import DEFAULT_PRECISION, Branch, eval_branch
from .bivar import implicitize
from .errors import (DegenerateSlopeError, NotEquisingularError, NumericError,
                     PlanError, PrecisionError, SeriesError)
from .invariants import equisingular
from .resolution import (INF, ChartState, apply_step, initial_state, is_terminal, reciprocal,
                         state_slope, step_chart, swapped)
from .series import TruncatedSeries

Point = tuple[complex, complex]
ChartPath = tuple[tuple[str, Fraction], ...]


def _norm(p: Point) -> float:
    return math.hypot(p[0].real, p[0].imag, p[1].real, p[1].imag)


# -- stage fields ----------------------------------------------------------------
# A field pushes one coordinate w (its orientation, "v" or "u") and is zero in
# the other, `fixed`.  `flow(fixed, w)` is its float time-1 raw map of a point,
# `contains(fixed, w, w1)` whether the raw trajectory from w to
# w1 = flow(fixed, w) stays in the ball of radius `bump` (where the glued field
# is the raw one), `time_one` the exact time-1 raw map on chart series,
# `params` the parameter text of a `germflow isotopy` stage line.

def _push(state: ChartState, orientation: str, move) -> ChartState:
    """The chart state with its moving series w replaced by move(fixed, w)."""
    if orientation == "v":
        return replace(state, ys=move(state.xs, state.ys))
    return replace(state, xs=move(state.ys, state.xs))


@dataclass(frozen=True)
class Shear:
    """Global linear shear (0, amount*u) or (amount*v, 0) at level 0."""
    orientation: str
    amount: Fraction
    kind = "shear"
    level = 0
    bump = None

    def flow(self, fixed: complex, w: complex) -> complex:
        return w + float(self.amount) * fixed

    def contains(self, fixed: complex, w: complex, w1: complex) -> bool:
        return True  # global: no cut-off

    def time_one(self, state: ChartState) -> ChartState:
        return _push(state, self.orientation,
                     lambda fixed, w: w.add(fixed.scale(self.amount)))

    def params(self) -> str:
        return f" amount={self.amount} orientation={self.orientation}"


@dataclass(frozen=True)
class Multiplicative:
    """Field rho * lambda * (w - a*fixed), lambda = principal log of the ratio;
    its time-1 raw flow carries the line w = c*fixed onto w = (a + ratio*(c - a))*fixed."""
    orientation: str
    ratio: Fraction
    shear: Fraction
    bump: float
    level: int
    kind = "multiplicative"

    def __post_init__(self):
        if self.ratio == 0:
            raise DegenerateSlopeError("multiplicative field needs a nonzero ratio")

    def flow(self, fixed: complex, w: complex) -> complex:
        af = float(self.shear) * fixed
        return af + (w - af) * float(self.ratio)

    def contains(self, fixed: complex, w: complex, w1: complex) -> bool:
        # w(t) - a*fixed = (w - a*fixed) * ratio^t with |ratio^t| <= max(1, |ratio|)
        # for 0 <= t <= 1, also for a negative ratio, where lambda is complex
        af = float(self.shear) * fixed
        reach = abs(af) + abs(w - af) * max(1.0, abs(float(self.ratio)))
        return math.hypot(abs(fixed), reach) <= self.bump

    def time_one(self, state: ChartState) -> ChartState:
        def move(fixed, w):
            af = fixed.scale(self.shear)
            return af.add(w.sub(af).scale(self.ratio))
        return _push(state, self.orientation, move)

    def params(self) -> str:
        return f" ratio={self.ratio} shear={self.shear}"


@dataclass(frozen=True)
class GraphMatch:
    """Translation field rho * gap(fixed), gap = s2 - s1; its time-1 raw flow
    carries the graph of s1 onto the graph of s2 and keeps the fixed = 0 axis
    invariant."""
    orientation: str
    gap: TruncatedSeries
    bump: float
    level: int
    kind = "graph-match"

    def flow(self, fixed: complex, w: complex) -> complex:
        return w + self.gap.eval(fixed)

    def contains(self, fixed: complex, w: complex, w1: complex) -> bool:
        # the trajectory is the segment from w to w1, and the ball is convex
        across, r = abs(fixed), self.bump
        return math.hypot(across, abs(w)) <= r and math.hypot(across, abs(w1)) <= r

    def params(self) -> str:
        return ""


StageField = Shear | Multiplicative | GraphMatch

def integrate_flow(f: StageField, p: Point) -> Point | None:
    """Time-1 flow of the glued field, or None where the raw trajectory may
    leave the ball of radius f.bump.

    The coordinate the field does not push is constant along the trajectory
    and is returned as given.  In that ball (everywhere, for a field without
    a bump) the glued field is the raw one, so the flow is its closed form."""
    moves_v = f.orientation == "v"
    fixed, w = p if moves_v else p[::-1]
    w1 = f.flow(fixed, w)
    if not f.contains(fixed, w, w1):
        return None
    if not cmath.isfinite(w1):
        raise NumericError("non-finite value during flow integration")
    return (fixed, w1) if moves_v else (w1, fixed)


# -- chart transport -------------------------------------------------------------

_LIFT_EPS = 1e-12


def lift_point(path: ChartPath, p: Point) -> Point | None:
    """Coordinates of p in the chart at the end of the blowup path, or None
    where a step's lift is ill-conditioned (p on or near the blown-down set);
    a chart-B step is the chart-A step with x and y exchanged."""
    x, y = p
    for chart, c in path:
        if chart == "B":
            x, y = y, x
        if abs(x) < _LIFT_EPS * (1.0 + abs(y)):
            return None
        x, y = x, y / x - float(c)
        if chart == "B":
            x, y = y, x
    return (x, y)


def pushdown_point(path: ChartPath, q: Point) -> Point:
    """Exact inverse of lift_point: apply the chart maps forward."""
    x, y = q
    for chart, c in reversed(path):
        if chart == "B":
            x, y = y, x
        x, y = x, x * (y + float(c))
        if chart == "B":
            x, y = y, x
    return (x, y)


# -- plans ------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStage:
    field: StageField  # acts in the chart chart_path[:field.level] of its plan


@dataclass(frozen=True)
class IsotopyPlan:
    stages: tuple[PlanStage, ...]
    source: Branch
    target: Branch
    chart_path: ChartPath
    radius: float  # the sample window the bumps are sized for
    t_max: float  # find_parameter_radius(source, radius)


def find_parameter_radius(b: Branch, radius: float) -> float:
    """Largest real t with |(x(t), y(t))| ~ radius (bisection near 0).

    Raises NumericError unless radius is finite and positive: a nan or
    non-positive radius would put every sample at t = 0."""
    if not 0.0 < radius < math.inf:
        raise NumericError(f"radius {radius!r} is not finite and positive")

    def mag(t):
        return math.hypot(b.xs.eval_real(t), b.ys.eval_real(t))

    hi = 1e-6
    while mag(hi) < radius and hi < 1e9:
        hi *= 2.0
    # a coefficient far beyond float range can put the answer below 1e-6 * 2**-200
    while hi > 1e-300 and mag(0.5 * hi) >= radius:
        hi *= 0.5
    lo, mid = 0.0, 0.5 * hi
    while lo < mid < hi:  # until lo and hi are adjacent floats
        if mag(mid) < radius:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return hi


def _bump(state: ChartState, tmax: float, reach) -> float:
    """Twice reach(bu, bv), and at least 0.05: a bump radius sized from the
    bounds bu and bv of state's chart coordinates over |t| <= tmax.  Only
    lifts of the (moved) source germ are ever flowed, so the bump has to
    hold their trajectories, which reach estimates from those bounds."""
    return max(2.0 * reach(state.xs.abs_bound(tmax), state.ys.abs_bound(tmax)), 0.05)


_SHEAR_CANDIDATES = [Fraction(k) for k in (1, -1, 2)]  # each use excludes at most two


def _level0_alignment_shears(c1, c2):
    """Global shear stages carrying slope c1 onto c2 when 0/INF is involved;
    for a target along {u = 0} they are the exchanged stages onto slope 0."""
    if c2 is INF:
        return [("u" if orientation == "v" else "v", amount) for orientation, amount
                in _level0_alignment_shears(reciprocal(c1), Fraction(0))]
    stages = []
    cur = c1
    if cur is INF:
        s = next(s for s in _SHEAR_CANDIDATES if 1 / s != c2)
        stages.append(("u", s))
        cur = 1 / s
    if cur != c2:
        stages.append(("v", c2 - cur))
    return stages


def build_plan(g1: Branch, g2: Branch, sample_radius: float = 0.05,
               precision: int = DEFAULT_PRECISION) -> IsotopyPlan:
    """Stage list whose composed time-1 flows carry g1 onto g2.

    Bump radii are sized so that every sample taken within sample_radius of
    the origin, and its whole flow trajectory, stays in the region where the
    glued field equals the raw field.

    Raises NotEquisingularError with the certificate of ``equisingular``,
    PlanError should the source, walked along the target's chart path, fall
    out of step with it, NumericError for a sample_radius that is not finite
    and positive, and PrecisionError for a precision outside 1..MAX_PRECISION
    (``Branch.with_precision``) or below the order of an exact branch, which
    the plan would otherwise keep.
    """
    h1, h2 = (g.with_precision(precision) if g.exact else g for g in (g1, g2))
    for h in (h1, h2):
        order = max(h.xs.precision, h.ys.precision)
        if h.exact and order > precision:
            raise PrecisionError(f"precision {precision} is below the order {order} "
                                 f"of branch {h.label!r}")
    verdict = equisingular(h1, h2)
    if not verdict.equal:
        raise NotEquisingularError(verdict.certificate)

    s1, s2 = initial_state(h1), initial_state(h2)
    t1max = find_parameter_radius(g1, sample_radius)
    stages: list[PlanStage] = []
    path: list[tuple[str, Fraction]] = []

    # the target's own blowup walk, in the charts blowup_step picks; each
    # step lowers a truncation order, so it ends (at the latest in a
    # PrecisionError once no precision is left)
    while not (s2.level > 0 and is_terminal(s2)):
        if s1.level > 0 and is_terminal(s1):
            raise PlanError("resolutions desynchronized; equisingularity violated")
        c1, c2 = state_slope(s1), state_slope(s2)
        chart, c = step_chart(c2)
        if c1 != c2 and s1.level == 0 and (INF in (c1, c2) or 0 in (c1, c2)):
            for orientation, amount in _level0_alignment_shears(c1, c2):
                f = Shear(orientation, amount)
                stages.append(PlanStage(f))
                s1 = f.time_one(s1)
        elif c1 != c2:
            stages.append(_multiplicative_stage(s1, c1, c2, t1max))
            s1 = stages[-1].field.time_one(s1)
        if state_slope(s1) != c2:
            raise PlanError("internal: the stages missed the target slope")
        s1, s2 = apply_step(s1, chart, c), apply_step(s2, chart, c)
        path.append((chart, c))

    if not is_terminal(s1):
        raise PlanError("resolutions desynchronized; equisingularity violated")
    stages.append(_graph_match_stage(s1, s2, t1max))
    return IsotopyPlan(tuple(stages), g1, g2, tuple(path), sample_radius, t1max)


def _multiplicative_stage(s1, c1, c2, t1max) -> PlanStage:
    """Stage rotating slope c1 onto c2 in the v-direction; when only {v = 0}
    is exceptional it is built on the exchanged state, with reciprocal
    slopes, and pushes u."""
    moves_u = s1.u_label is None and s1.v_label is not None
    s, d1, d2 = (swapped(s1), reciprocal(c1), reciprocal(c2)) if moves_u else (s1, c1, c2)
    # s has {v = 0} exceptional only at a satellite point.  A slope INF lies
    # along {u = 0}; a slope 0 needs a shear a != 0, which moves {v = 0}, and
    # at level 0 the global shears act instead
    if INF in (d1, d2) or (0 in (d1, d2) and (s.v_label is not None or s.level == 0)):
        raise DegenerateSlopeError(
            f"no multiplicative stage carries slope {c1} to {c2} at level {s.level}")
    a = Fraction(0) if 0 not in (d1, d2) else \
        next(k for k in _SHEAR_CANDIDATES if k != d1 and k != d2)
    ratio = (d2 - a) / (d1 - a)
    m = max(1.0, abs(float(ratio)))  # positions scale by at most the ratio
    bump = _bump(s1, t1max, lambda bu, bv: (1.0 + m) * (1.0 + abs(float(a))) * (bu + bv))
    return PlanStage(Multiplicative("u" if moves_u else "v", ratio, a, bump, s1.level))


def _graph_match_stage(s1, s2, t1max) -> PlanStage:
    """Graph match over the exceptional coordinate, read from the exchanged
    states when {v = 0} is the exceptional axis."""
    moves_u = s1.u_label is None
    a, b = (swapped(s1), swapped(s2)) if moves_u else (s1, s2)
    gap = b.ys.in_terms_of(b.xs).sub(a.ys.in_terms_of(a.xs))
    # the gap is only ever evaluated over the transversal-coordinate range of
    # the moved source germ's lifts
    bump = _bump(a, t1max, lambda across, bw: across + bw + gap.abs_bound(across))
    return PlanStage(GraphMatch("u" if moves_u else "v", gap, bump, s1.level))


def apply_plan(plan: IsotopyPlan, points: list[Point]) -> tuple[list[Point], list[int | None]]:
    """Images of the sample points under every stage, carried in chart
    coordinates, and per point the stage (from 1) it stopped at, or None.

    A stage acts in the chart its level names, plan.chart_path[:level], and
    levels must not decrease (PlanError otherwise): a point is lifted only
    along the steps a stage adds, and pushed down to the plane once, after
    the last stage.  The origin stays put (every stage fixes it); any other
    point stops at the first stage that cannot carry it.  A refused lift
    leaves it where the stages before put it; a trajectory that may leave
    the stage's bump leaves it at its lift into the stage's chart."""
    path, level = plan.chart_path, 0
    carried = [(p, 0) for p in points]  # (coordinates in the chart path[:depth], depth)
    stops: list[int | None] = [None] * len(points)
    moving = [i for i, p in enumerate(points) if p != (0, 0)]  # every stage fixes the origin
    for k, stage in enumerate(plan.stages, start=1):
        if stage.field.level < level:
            raise PlanError(f"stage {k} is at a level below the previous stage's")
        level = stage.field.level
        for i in moving:
            q, depth = carried[i]
            q = lift_point(path[depth:level], q)
            if q is not None:
                carried[i] = (q, level)
                q = integrate_flow(stage.field, q)
            if q is None:
                stops[i] = k
            else:
                carried[i] = (q, level)
        moving = [i for i in moving if stops[i] is None]
    return [pushdown_point(path[:depth], q) for q, depth in carried], stops


# -- verification ------------------------------------------------------------------

@dataclass(frozen=True)
class SampleRecord:
    t: complex
    start: Point
    end: Point  # for an uncontained sample, where its transport stopped
    dist: float  # inf for an uncontained sample
    dist_implicit: float  # inf for an uncontained sample too
    uncontained_stage: int | None  # the first stage (from 1) that could not carry the sample


@dataclass(frozen=True)
class FlowReport:
    records: tuple[SampleRecord, ...]
    max_distance: float
    passed: bool
    max_step_error: float = 0.0  # no flow is integrated; germbench's digest still reads it


_GAUSS_NEWTON_ITERS = 50  # per start; each iterate is a point of the trace


def distance_to_branch(p: Point, b: Branch) -> float:
    """Distance from p to the real trace of b (real t), for x(t) = t^n.

    Gauss-Newton on |b(t) - p| over real t (Nocedal-Wright, Numerical
    Optimization, 10.3) from both real points t = +-|Re x_p|^(1/n) of the
    fibre of x = t^n over p, one per sheet when n is even.  The origin
    (t = 0) lies on every branch, so the distance is at most |p|."""
    n, xs, ys, dy = b.n, b.xs, b.ys, b.ys.derivative()
    best = _norm(p)
    t0 = abs(p[0].real) ** (1.0 / n)
    for t in (t0, -t0):
        for _ in range(_GAUSS_NEWTON_ITERS):
            try:
                x, y, jy = xs.eval_real(t), ys.eval_real(t), dy.eval_real(t)
                jx = n * t ** (n - 1)
                jj = jx * jx + abs(jy) ** 2
            except OverflowError:
                break
            fx, fy = x - p[0], y - p[1]
            best = min(best, _norm((fx, fy)))
            if not 0.0 < jj < math.inf:
                break
            step = (jx * fx + jy.conjugate() * fy).real / jj
            if abs(step) < 1e-16 * abs(t):
                break
            t -= step
    return best


MAX_SAMPLES = 10_000  # per check; the CLI default is 40


def verify_isotopy(g1: Branch, g2: Branch, plan: IsotopyPlan, n_samples: int = 40,
                   radius: float = 0.05, tol: float = 1e-3, h: float = 1e-3) -> FlowReport:
    """Carry log-spaced samples of g1, up to the plan's t_max, through the
    plan and measure how far the images land from g2 (geometric distance,
    cross-checked against the value of the implicit equation normalized by
    its gradient).  A sample that some stage cannot carry is uncontained:
    its record names the stage, and both its distances are inf, so the check
    FAILs.

    Every stage flow is closed form, so there is no integrator step: `h` is
    accepted and ignored, because germbench still passes it.

    Raises SeriesError when the target's x is not t^n, NumericError for
    n_samples outside 1..MAX_SAMPLES or a tol that is not finite and positive
    (a vacuous check), and PlanError unless g1, g2 and radius are the plan's."""
    if not g2.monomial_x():
        raise SeriesError("verify_isotopy requires the target's x to be the monomial t^n")
    if not n_samples >= 1:
        raise NumericError(f"n_samples {n_samples!r} is below 1")
    if n_samples > MAX_SAMPLES:
        raise NumericError(f"n_samples {n_samples!r} is above {MAX_SAMPLES}")
    if not 0.0 < tol < math.inf:
        raise NumericError(f"tol {tol!r} is not finite and positive")
    if (g1, g2, radius) != (plan.source, plan.target, plan.radius):
        raise PlanError("verify_isotopy needs the branches and radius the plan was built for")
    tmax = plan.t_max
    ts = [tmax * 10.0 ** (-2.0 * (1.0 - j / (n_samples - 1.0))) if n_samples > 1 else tmax
          for j in range(n_samples)]
    starts = [eval_branch(g1, complex(t)) for t in ts]

    ends, stops = apply_plan(plan, starts)

    f2 = implicitize(g2)
    records = [SampleRecord(complex(t), p0, p1, math.inf, math.inf, stop) if stop else
               SampleRecord(complex(t), p0, p1, distance_to_branch(p1, g2),
                            f2.implicit_distance(*p1), None)
               for t, p0, p1, stop in zip(ts, starts, ends, stops)]

    max_distance = max(rec.dist for rec in records)
    return FlowReport(tuple(records), max_distance, max_distance < tol)
