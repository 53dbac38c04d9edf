"""Iterated point blowups of a branch germ and the weighted dual graph.

Chart conventions for the blowup of the origin of a chart with coordinates
(x, y):

    chart A: (x, y) = (u, u*v)   exceptional divisor {u = 0}
    chart B: (x, y) = (u*v, v)   exceptional divisor {v = 0}

Chart B is chart A with x and y exchanged (``swapped``; Casas-Alvero,
Singularities of Plane Curves, 2000, 3.2), so each chart rule is written for
chart A alone; the blowup step itself reads the two coordinates the other
way round for chart B.  Chart A is used when ord y(t) >= ord x(t) (the branch
direction is a finite slope), chart B otherwise.  After the substitution the
new point on the exceptional line is moved to the chart origin by
translating the non-exceptional coordinate by its constant term c.  The
divisor labels carried by the two coordinate axes are the bookkeeping that
yields proximities: the centre blown up at each step is proximate to
exactly the earlier divisors whose labels sit on the current axes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .branch import MAX_PRECISION, Branch
from .errors import PrecisionError, ResolutionError
from .series import TruncatedSeries, _quotient, _series

INF = float("inf")  # slope of a branch tangent to {u = 0}


@dataclass(frozen=True)
class ChartState:
    xs: TruncatedSeries
    ys: TruncatedSeries
    u_label: int | None = None
    v_label: int | None = None
    level: int = 0

    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(l for l in (self.u_label, self.v_label) if l is not None))


@dataclass(frozen=True)
class StepRecord:
    centre: int
    multiplicity: int
    proximate_to: tuple[int, ...]
    satellite: bool
    chart: str
    translation: Fraction


@dataclass(frozen=True)
class ResolutionData:
    steps: tuple[StepRecord, ...]

    @property
    def r(self) -> int:
        return len(self.steps)

    @property
    def chart_path(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((s.chart, s.translation) for s in self.steps)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(s.multiplicity for s in self.steps)


@dataclass(frozen=True)
class DualGraph:
    vertices: tuple[tuple[int, int], ...]  # (label, self-intersection)
    edges: tuple[tuple[int, int], ...]

    @property
    def arrow(self) -> int:
        """The strict transform meets the last exceptional curve, E_r."""
        return self.vertices[-1][0]


def swapped(state: ChartState) -> ChartState:
    """The same chart state with x and y, and their axis labels, exchanged."""
    return ChartState(state.ys, state.xs, state.v_label, state.u_label, state.level)


def reciprocal(slope):
    """The slope of the same direction after x and y are exchanged (0 <-> INF)."""
    return INF if slope == 0 else Fraction(0) if slope is INF else 1 / Fraction(slope)


def _multiplicity(xs: TruncatedSeries, ys: TruncatedSeries) -> int:
    """The multiplicity of the branch (xs, ys)."""
    ox, oy = xs.order(), ys.order()
    if ox is None:
        if oy is None:
            raise ResolutionError("degenerate state: both coordinates vanish identically")
        xs, ys, ox, oy = ys, xs, oy, ox
    if oy is None and ox > ys.precision:
        raise PrecisionError("cannot compare orders at this precision")
    return ox if oy is None else min(ox, oy)


def state_slope(state: ChartState):
    """Tangent direction of the branch at the chart origin.

    Returns a Fraction (possibly 0) for the direction v = slope * u, or INF
    for the direction along {u = 0}, the reciprocal of the exchanged state's.
    """
    xs, ys = state.xs, state.ys
    ox, oy = xs.order(), ys.order()
    if ox is None and oy is None:
        raise ResolutionError("degenerate state")
    if ox is None or (oy is not None and oy < ox):  # tangent to {u = 0}
        if ox is None and oy >= xs.precision:
            raise PrecisionError("cannot decide the tangent direction at this precision")
        return INF
    if oy is None and ox >= ys.precision:
        raise PrecisionError("cannot decide the tangent direction at this precision")
    if oy is None or oy > ox:
        return Fraction(0)
    return Fraction(ys.num[oy] * xs.den, xs.num[ox] * ys.den)


def step_chart(slope) -> tuple[str, Fraction]:
    """The chart and translation of the blowup at a tangent of this slope."""
    return ("B", Fraction(0)) if slope is INF else ("A", slope)


def apply_step(state: ChartState, chart: str, c: Fraction) -> ChartState:
    """One blowup in the given chart, recentred by translation c.

    An exact kernel: in chart A the moving coordinate is y and the fixed one
    x (in chart B the other way round), and the new moving coordinate
    moving / fixed - c is one integer pass, ``series._quotient``, whose
    constant numerator must equal c over the quotient's denominator (else
    ResolutionError) and is then set to zero; ``_series`` reduces the result
    once.
    """
    fixed, moving = (state.ys, state.xs) if chart == "B" else (state.xs, state.ys)
    num, den, prec = _quotient(moving, fixed)
    if (num[0] if num else 0) * c.denominator != c.numerator * den:
        raise ResolutionError("translation does not move the centre to the chart origin")
    if num:
        num[0] = 0
    v = _series(num, den, prec)
    level = state.level + 1
    if chart == "B":
        return ChartState(xs=v, ys=fixed, u_label=state.u_label if c == 0 else None,
                          v_label=level, level=level)
    return ChartState(xs=fixed, ys=v, u_label=level,
                      v_label=state.v_label if c == 0 else None, level=level)


def blowup_step(state: ChartState) -> tuple[ChartState, StepRecord]:
    """Blow up the origin in the chart its tangent picks, and record the step."""
    m = _multiplicity(state.xs, state.ys)
    prox = state.labels()
    chart, c = step_chart(state_slope(state))
    rec = StepRecord(
        centre=state.level + 1,
        multiplicity=m,
        proximate_to=prox,
        satellite=len(prox) == 2,
        chart=chart,
        translation=c,
    )
    return apply_step(state, chart, c), rec


def is_terminal(state: ChartState) -> bool:
    """Minimal embedded resolution reached: smooth branch, transverse to a
    single exceptional component at a free point."""
    if (state.u_label is None) == (state.v_label is None):  # not a single label
        return False
    if _multiplicity(state.xs, state.ys) != 1:
        return False
    return (state.xs if state.u_label is not None else state.ys).order() == 1


def initial_state(b: Branch) -> ChartState:
    """The chart state of b at the origin; an exact b must be primitive (its
    exponents have gcd 1), so a coordinate that vanishes makes b an axis."""
    ox, oy = b.xs.order(), b.ys.order()
    if ox is None and not b.exact:
        raise PrecisionError("x(t) is zero up to the truncation order of the branch")
    if 0 in (ox, oy):
        raise ResolutionError("branch does not pass through the origin")
    g = math.gcd(*b.xs.support(), *b.ys.support()) if b.exact else 1
    if g != 1:
        raise ResolutionError("both coordinates vanish identically" if g == 0 else
                              f"non-primitive parametrization (gcd of exponents is {g})")
    return ChartState(b.xs, b.ys)


def _blowup_bound(state: ChartState) -> int:
    """More blowups than resolving from state can take: each one divides a
    coordinate by the other, lowering its truncation order by at least 1,
    and a quotient with no precision left raises PrecisionError."""
    return state.xs.precision + state.ys.precision


def _walk(b: Branch) -> ResolutionData:
    """Blow up until the total transform has normal crossings and the strict
    transform meets a single exceptional component transversally."""
    state = initial_state(b)
    bound = _blowup_bound(state)
    steps: list[StepRecord] = []
    while not (state.level > 0 and is_terminal(state)):
        if len(steps) >= bound:
            raise ResolutionError(f"internal: no termination within {bound} blowups")
        state, rec = blowup_step(state)
        if steps and rec.multiplicity > steps[-1].multiplicity:
            raise ResolutionError("internal: multiplicity sequence increased")
        steps.append(rec)
    return ResolutionData(tuple(steps))


def resolve(b: Branch) -> ResolutionData:
    """The minimal embedded resolution of b, read only as deep as its blowups need.

    An exact b is known to every order, so it is extended to MAX_PRECISION;
    a truncated b keeps its own.  b is resolved cut to order 2 (ord x + 1),
    then to twice the previous cut on each PrecisionError (a cut at ord x + 1
    would keep y(t) only up to t^(ord x)); once the cut reaches b's order the
    whole branch is resolved and its error raised.  A resolution that
    completes on a cut never read an unknown coefficient, so its steps are
    those of the whole branch.  To follow the chart series at full
    precision, replay ``chart_path`` with ``apply_step``.
    """
    b = b.with_precision(MAX_PRECISION) if b.exact else b
    top = max(b.xs.precision, b.ys.precision)
    ox = b.xs.order()
    cut = top if ox is None else 2 * (ox + 1)
    while cut < top:
        try:
            return _walk(Branch(b.xs.truncate(cut), b.ys.truncate(cut), b.label, exact=False))
        except PrecisionError:
            cut *= 2
    return _walk(b)


def dual_graph(rd: ResolutionData) -> DualGraph:
    r = rd.r
    prox_to = {i: [] for i in range(1, r + 1)}  # i -> later centres proximate to i
    for rec in rd.steps:
        for i in rec.proximate_to:
            prox_to[i].append(rec.centre)
    vertices = tuple((i, -1 - len(prox_to[i])) for i in range(1, r + 1))
    # E_i meets the last centre proximate to it, which comes after i
    edges = tuple((i, max(prox_to[i])) for i in range(1, r + 1) if prox_to[i])
    return DualGraph(vertices, edges)
