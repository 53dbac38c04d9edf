"""Ambient-isotopy construction between equisingular branches.

The plan is built by walking the two resolutions in lockstep through shared
blowup charts.  While the infinitely-near centres coincide the walk simply
descends; at the first level where the tangent directions of the two strict
transforms differ, a compactly supported multiplicative vector field
rho * (0, lambda*(v - a*u)) is emitted whose time-1 flow rotates the moving
branch's tangent onto the target's (lambda = principal log of the slope
ratio; the shear a is 0 whenever both slopes are finite nonzero, and keeps
every labeled axis invariant otherwise).  The moving branch's chart series
is then updated by the exact rational time-1 map, so deeper stages are
still built from exact data.  Once both strict transforms are resolved the
base case matches their graphs over the exceptional coordinate with a
translation field rho * (0, s2(u) - s1(u)).

All stage flows are integrated with fixed-step RK4 in the stage chart;
points are carried between the plane and the chart by the recorded chart
path.  Degenerate tangent directions at level 0 (where no exceptional
divisor exists yet) are removed beforehand by global linear shear stages.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .branch import Branch, eval_branch
from .bivar import implicitize
from .errors import (DegenerateSlopeError, LiftError, NotEquisingularError,
                     NumericError, PlanError)
from .invariants import equisingular
from .resolution import (INF, ChartState, apply_step, initial_state,
                         is_terminal, state_slope)
from .series import TruncatedSeries

Point = tuple[complex, complex]
ChartPath = tuple[tuple[str, Fraction], ...]


# -- bump ---------------------------------------------------------------------

@dataclass(frozen=True)
class BumpSpec:
    r_inner: float
    r_outer: float
    center: Point = (0j, 0j)


def bump_value(b: BumpSpec, p: Point) -> float:
    """1 on the closed r_inner ball, 0 outside r_outer, smooth in between."""
    dx, dy = p[0] - b.center[0], p[1] - b.center[1]
    r = math.hypot(dx.real, dx.imag, dy.real, dy.imag)
    if r <= b.r_inner:
        return 1.0
    if r >= b.r_outer:
        return 0.0
    s = (r - b.r_inner) / (b.r_outer - b.r_inner)
    hi = math.exp(-1.0 / (1.0 - s))
    lo = math.exp(-1.0 / s)
    return hi / (hi + lo)


# -- vector fields --------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    kind: str                      # "multiplicative" | "graph-match" | "shear"
    orientation: str = "v"         # which coordinate the field pushes
    bump: BumpSpec | None = None   # None: global field (level-0 shears only)
    level: int = 0
    ratio: object = None           # Fraction or complex slope ratio (multiplicative)
    shear: Fraction = Fraction(0)  # conjugation shear a (multiplicative)
    amount: Fraction = Fraction(0)  # shear stages
    s1: TruncatedSeries | None = None
    s2: TruncatedSeries | None = None

    @property
    def lam(self) -> complex:
        ratio = self.ratio if isinstance(self.ratio, complex) else float(self.ratio)
        return cmath.log(ratio)


def multiplicative_field(c1, c2, bump: BumpSpec, shear=Fraction(0),
                         orientation: str = "v", level: int = 0) -> FieldSpec:
    """Field rho * (0, log(c2/c1) * (v - a*u)); its time-1 raw flow carries the
    line v = c1*u onto v = c2*u."""
    if c1 == 0 or c2 == 0:
        raise DegenerateSlopeError("multiplicative field needs nonzero slopes")
    if isinstance(c1, complex) or isinstance(c2, complex):
        ratio = complex(c2) / complex(c1)
    else:
        ratio = Fraction(c2) / Fraction(c1)
    return FieldSpec(kind="multiplicative", orientation=orientation, bump=bump,
                     level=level, ratio=ratio, shear=Fraction(shear))


def graph_match_field(s1: TruncatedSeries, s2: TruncatedSeries, bump: BumpSpec,
                      orientation: str = "v", level: int = 0) -> FieldSpec:
    """Translation field rho * (0, s2(u) - s1(u)); its time-1 raw flow carries
    the graph of s1 onto the graph of s2 and keeps the u = 0 axis invariant."""
    return FieldSpec(kind="graph-match", orientation=orientation, bump=bump,
                     level=level, s1=s1, s2=s2)


def _raw_field(f: FieldSpec):
    if f.kind == "multiplicative":
        lam = f.lam
        a = float(f.shear)
        if f.orientation == "v":
            return lambda x, y: (0j, lam * (y - a * x))
        return lambda x, y: (lam * (x - a * y), 0j)
    if f.kind == "shear":
        s = float(f.amount)
        if f.orientation == "v":
            return lambda x, y: (0j, s * x)
        return lambda x, y: (s * y, 0j)
    if f.kind == "graph-match":
        diff = f.s2.sub(f.s1)
        if f.orientation == "v":
            return lambda x, y: (0j, diff.eval(x))
        return lambda x, y: (diff.eval(y), 0j)
    raise PlanError(f"unknown field kind {f.kind!r}")


def field_closure(f: FieldSpec):
    raw = _raw_field(f)
    bump = f.bump
    if bump is None:
        return raw

    def glued(x, y):
        rho = bump_value(bump, (x, y))
        if rho == 0.0:
            return (0j, 0j)
        fx, fy = raw(x, y)
        return (rho * fx, rho * fy)

    return glued


def integrate_flow(f: FieldSpec, p: Point, h: float = 1e-3) -> Point:
    """Time-1 flow of the glued field by classical fixed-step RK4."""
    fn = field_closure(f)
    n = max(1, round(1.0 / h))
    step = 1.0 / n
    x, y = p
    for _ in range(n):
        k1 = fn(x, y)
        k2 = fn(x + 0.5 * step * k1[0], y + 0.5 * step * k1[1])
        k3 = fn(x + 0.5 * step * k2[0], y + 0.5 * step * k2[1])
        k4 = fn(x + step * k3[0], y + step * k3[1])
        x = x + step / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y = y + step / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    if not (math.isfinite(x.real) and math.isfinite(x.imag)
            and math.isfinite(y.real) and math.isfinite(y.imag)):
        raise NumericError("non-finite value during flow integration")
    return (x, y)


# -- chart transport -------------------------------------------------------------

_LIFT_EPS = 1e-12


def lift_point(path: ChartPath, p: Point) -> Point:
    """Coordinates of p in the chart at the end of the blowup path."""
    x, y = p
    if x == 0 and y == 0:
        raise LiftError("the origin cannot be lifted")
    for chart, c in path:
        fc = float(c)
        if chart == "A":
            if abs(x) < _LIFT_EPS * (1.0 + abs(y)):
                raise LiftError("lift ill-conditioned near the blown-down set")
            x, y = x, y / x - fc
        else:
            if abs(y) < _LIFT_EPS * (1.0 + abs(x)):
                raise LiftError("lift ill-conditioned near the blown-down set")
            x, y = x / y - fc, y
    return (x, y)


def pushdown_point(path: ChartPath, q: Point) -> Point:
    """Exact inverse of lift_point: apply the chart maps forward."""
    x, y = q
    for chart, c in reversed(path):
        fc = float(c)
        if chart == "A":
            x, y = x, x * (y + fc)
        else:
            x, y = (x + fc) * y, y
    return (x, y)


# -- plans ------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStage:
    field: FieldSpec
    path: ChartPath
    u_label: int | None = None
    v_label: int | None = None


@dataclass(frozen=True)
class IsotopyPlan:
    stages: tuple[PlanStage, ...]
    source: Branch
    target: Branch


def find_parameter_radius(b: Branch, radius: float) -> float:
    """Largest real t with |(x(t), y(t))| ~ radius (bisection near 0)."""
    def mag(t):
        x, y = eval_branch(b, complex(t))
        return math.hypot(x.real, x.imag, y.real, y.imag)

    hi = 1e-6
    while mag(hi) < radius and hi < 1e9:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mag(mid) < radius:
            lo = mid
        else:
            hi = mid
    return hi


def _state_bounds(state: ChartState, tmax: float) -> tuple[float, float]:
    return state.xs.abs_bound(tmax), state.ys.abs_bound(tmax)


def _mult_bump(s1, t1max, ratio, a) -> BumpSpec:
    # only lifts of the (moved) source germ are ever flowed, so the bump has
    # to contain their trajectories: positions scale by at most the ratio
    bu, bv = _state_bounds(s1, t1max)
    m = max(1.0, abs(float(ratio.real if isinstance(ratio, complex) else ratio)))
    r_inner = max(2.0 * (1.0 + m) * (1.0 + abs(float(a))) * (bu + bv), 0.05)
    return BumpSpec(r_inner=r_inner, r_outer=2.0 * r_inner)


_SHEAR_CANDIDATES = [Fraction(k) for k in (1, -1, 2, -2, 3, -3)] + \
                    [Fraction(1, 2), Fraction(-1, 2), Fraction(5), Fraction(-5)]


def _update_moving_state(state: ChartState, field: FieldSpec) -> ChartState:
    """Exact rational time-1 raw map of a stage applied to the chart series."""
    xs, ys = state.xs, state.ys
    if field.kind == "shear":
        if field.orientation == "v":
            ys = ys.add(xs.scale(field.amount))
        else:
            xs = xs.add(ys.scale(field.amount))
    elif field.kind == "multiplicative":
        a, ratio = field.shear, field.ratio
        if field.orientation == "v":
            w = ys.sub(xs.scale(a))
            ys = xs.scale(a).add(w.scale(ratio))
        else:
            w = xs.sub(ys.scale(a))
            xs = ys.scale(a).add(w.scale(ratio))
    else:
        raise PlanError("graph-match stages do not update the walk")
    return ChartState(xs, ys, state.u_label, state.v_label, state.level)


def _slope_after_shear(c, orientation, s):
    if orientation == "v":
        return c + s if c is not INF else INF
    # u-shear: u' = u + s*y, slope c = v/u maps to c / (1 + s*c)
    if c is INF:
        return 1 / s
    den = 1 + s * c
    return INF if den == 0 else c / den


def _level0_alignment_shears(c1, c2):
    """Global shear stages carrying slope c1 onto c2 when 0/INF is involved."""
    stages = []
    cur = c1
    if c2 is INF:
        if cur == 0:
            stages.append(("v", Fraction(1)))
            cur = Fraction(1)
        stages.append(("u", Fraction(-1) / cur))
        return stages
    if cur is INF:
        s = next(s for s in _SHEAR_CANDIDATES if 1 / s != c2)
        stages.append(("u", s))
        cur = 1 / s
    if cur != c2:
        stages.append(("v", c2 - cur))
    return stages


def build_plan(g1: Branch, g2: Branch, sample_radius: float = 0.05,
               precision: int = 64, max_steps: int = 64) -> IsotopyPlan:
    """Stage list whose composed time-1 flows carry g1 onto g2.

    Bump radii are sized so that every sample taken within sample_radius of
    the origin, and its whole flow trajectory, stays in the region where the
    glued field equals the raw field.
    """
    verdict = equisingular(g1, g2, precision=precision, max_steps=max_steps)
    if not verdict.equal:
        raise NotEquisingularError(verdict.certificate)

    s1 = initial_state(g1.with_precision(precision) if g1.exact else g1)
    s2 = initial_state(g2.with_precision(precision) if g2.exact else g2)
    t1max = find_parameter_radius(g1, sample_radius)

    path: list[tuple[str, Fraction]] = []
    stages: list[PlanStage] = []

    for _ in range(3 * max_steps + 8):
        term1 = s1.level > 0 and is_terminal(s1)
        term2 = s2.level > 0 and is_terminal(s2)
        if term1 != term2:
            raise PlanError("resolutions desynchronized; equisingularity violated")
        if term1 and term2:
            stages.append(_graph_match_stage(s1, s2, t1max, tuple(path)))
            return IsotopyPlan(tuple(stages), g1, g2)

        c1, c2 = state_slope(s1), state_slope(s2)
        if c1 != c2:
            if s1.level == 0 and (INF in (c1, c2) or 0 in (c1, c2)):
                for orientation, amount in _level0_alignment_shears(c1, c2):
                    f = FieldSpec(kind="shear", orientation=orientation,
                                  amount=amount, level=0)
                    stages.append(PlanStage(f, ()))
                    s1 = _update_moving_state(s1, f)
                if state_slope(s1) != c2:
                    raise PlanError("internal: level-0 shears missed the target slope")
                continue
            stages.append(_multiplicative_stage(s1, s2, c1, c2, t1max, tuple(path)))
            s1 = _update_moving_state(s1, stages[-1].field)
            if state_slope(s1) != c2:
                raise PlanError("internal: multiplicative stage missed the target slope")
            continue

        chart, c = ("B", Fraction(0)) if c1 is INF else ("A", Fraction(c1))
        s1 = apply_step(s1, chart, c)
        s2 = apply_step(s2, chart, c)
        if (s1.u_label, s1.v_label) != (s2.u_label, s2.v_label):
            raise PlanError("internal: shared blowup gave different divisor labels")
        path.append((chart, c))
    raise PlanError("plan construction did not terminate")


def _multiplicative_stage(s1, s2, c1, c2, t1max, path) -> PlanStage:
    level = s1.level
    if s1.u_label is not None and s1.v_label is not None:
        if INF in (c1, c2) or 0 in (c1, c2):
            raise DegenerateSlopeError(
                "tangent along an exceptional component at a satellite point")
        orientation, a, d1, d2 = "v", Fraction(0), c1, c2
    elif s1.v_label is None:
        # only {u = 0} is exceptional (or level 0): slopes must be finite
        if INF in (c1, c2):
            raise DegenerateSlopeError("tangent along the exceptional axis u = 0")
        orientation = "v"
        d1, d2 = c1, c2
        if 0 in (c1, c2) and level == 0:
            raise PlanError("internal: level-0 degenerate slope reached stage builder")
        a = Fraction(0) if 0 not in (c1, c2) else \
            next(s for s in _SHEAR_CANDIDATES if s != c1 and s != c2)
    else:
        # only {v = 0} is exceptional: work with reciprocal slopes u/v
        if 0 in (c1, c2):
            raise DegenerateSlopeError("tangent along the exceptional axis v = 0")
        orientation = "u"
        d1 = Fraction(0) if c1 is INF else 1 / Fraction(c1)
        d2 = Fraction(0) if c2 is INF else 1 / Fraction(c2)
        a = Fraction(0) if 0 not in (d1, d2) else \
            next(s for s in _SHEAR_CANDIDATES if s != d1 and s != d2)
    ratio = (d2 - a) / (d1 - a)
    bump = _mult_bump(s1, t1max, ratio, a)
    f = FieldSpec(kind="multiplicative", orientation=orientation, bump=bump,
                  level=level, ratio=ratio, shear=a)
    return PlanStage(f, path, s1.u_label, s1.v_label)


def _graph_match_stage(s1, s2, t1max, path) -> PlanStage:
    if s1.u_label is not None:
        orientation = "v"
        g1 = s1.ys.compose(s1.xs.invert_parameter())
        g2 = s2.ys.compose(s2.xs.invert_parameter())
        base_idx = 0
    else:
        orientation = "u"
        g1 = s1.xs.compose(s1.ys.invert_parameter())
        g2 = s2.xs.compose(s2.ys.invert_parameter())
        base_idx = 1
    # flowed points are lifts of the moved source germ; both graphs are only
    # ever evaluated over that germ's transversal-coordinate range
    bu, bv = _state_bounds(s1, t1max)
    across = (bu, bv)[base_idx]
    motion = g2.sub(g1).abs_bound(across)
    r_inner = max(2.0 * (bu + bv + motion), 0.05)
    bump = BumpSpec(r_inner=r_inner, r_outer=2.0 * r_inner)
    f = graph_match_field(g1, g2, bump, orientation=orientation, level=s1.level)
    return PlanStage(f, path, s1.u_label, s1.v_label)


def apply_plan(plan: IsotopyPlan, points: list[Point], h: float = 1e-3) -> list[Point]:
    """Map sample points through every stage: lift, flow, push back down.

    Points whose lift is ill-conditioned (or the origin itself) are fixed:
    the glued field vanishes there.
    """
    out = list(points)
    for stage in plan.stages:
        nxt = []
        for p in out:
            try:
                q = lift_point(stage.path, p)
            except LiftError:
                nxt.append(p)
                continue
            q = integrate_flow(stage.field, q, h)
            nxt.append(pushdown_point(stage.path, q))
        out = nxt
    return out


# -- verification ------------------------------------------------------------------

@dataclass(frozen=True)
class SampleRecord:
    t: complex
    start: Point
    end: Point
    dist: float
    dist_implicit: float


@dataclass(frozen=True)
class FlowReport:
    records: tuple[SampleRecord, ...]
    max_distance: float
    tol: float
    passed: bool
    steps_total: int
    max_step_error: float


def _norm(p: Point) -> float:
    return math.hypot(p[0].real, p[0].imag, p[1].real, p[1].imag)


def _golden_min(fn, lo: float, hi: float, iters: int = 80) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    t = 0.5 * (a + b)
    return t


def distance_to_branch(p: Point, b: Branch, grid: list[float]) -> float:
    """Distance from p to the curve parametrized by b.

    Scans the dense parameter grid, then golden-refines around every local
    minimum (the curve has one sheet per sign of the parameter when the
    multiplicity is even, so the global grid argmin alone can sit on the
    wrong sheet)."""
    def gap(t):
        x, y = eval_branch(b, complex(t))
        return math.hypot((p[0] - x).real, (p[0] - x).imag,
                          (p[1] - y).real, (p[1] - y).imag)

    gaps = [gap(t) for t in grid]
    best = min(gaps)
    last = len(grid) - 1
    for k in range(len(grid)):
        if (k == 0 or gaps[k] <= gaps[k - 1]) and (k == last or gaps[k] <= gaps[k + 1]):
            t = _golden_min(gap, grid[max(0, k - 1)], grid[min(last, k + 1)])
            best = min(best, gap(t))
    return best


def verify_isotopy(g1: Branch, g2: Branch, plan: IsotopyPlan, n_samples: int = 40,
                   radius: float = 0.05, tol: float = 1e-3, h: float = 1e-3) -> FlowReport:
    """Carry log-spaced samples of g1 through the plan and measure how far the
    images land from g2 (geometric distance, cross-checked against the value
    of the implicit equation normalized by its gradient)."""
    tmax = find_parameter_radius(g1, radius)
    ts = [tmax * 10.0 ** (-2.0 * (1.0 - j / (n_samples - 1.0))) if n_samples > 1 else tmax
          for j in range(n_samples)]
    starts = [eval_branch(g1, complex(t)) for t in ts]

    ends = apply_plan(plan, starts, h)
    ends_half = apply_plan(plan, starts, h / 2.0)
    richardson = max((_norm((e[0] - e2[0], e[1] - e2[1]))
                      for e, e2 in zip(ends, ends_half)), default=0.0)

    reach = max(max((_norm(e) for e in ends), default=radius), radius)
    t2max = find_parameter_radius(g2, 1.5 * reach + radius)
    dense = [t2max * 10.0 ** (-4.0 * (1.0 - j / (10.0 * n_samples - 1.0)))
             for j in range(10 * n_samples)]
    grid = sorted([-t for t in dense] + [0.0] + dense)

    f2 = implicitize(g2) if g2.monomial_x() else None
    records = []
    for t, p0, p1 in zip(ts, starts, ends):
        dist = distance_to_branch(p1, g2, grid)
        if f2 is not None:
            val = abs(f2.eval(p1[0], p1[1]))
            gx, gy = f2.grad(p1[0], p1[1])
            gnorm = math.hypot(gx.real, gx.imag, gy.real, gy.imag)
            dist_implicit = val / gnorm if val < math.inf and gnorm > 1e-300 else math.inf
        else:
            dist_implicit = math.nan
        records.append(SampleRecord(complex(t), p0, p1, dist, dist_implicit))

    max_distance = max((rec.dist for rec in records), default=0.0)
    steps_total = len(plan.stages) * max(1, round(1.0 / h)) * len(ts)
    return FlowReport(tuple(records), max_distance, tol, max_distance < tol,
                      steps_total, richardson)
