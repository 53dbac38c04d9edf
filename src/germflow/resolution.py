"""Iterated point blowups of a branch germ and the weighted dual graph.

Chart conventions for the blowup of the origin of a chart with coordinates
(x, y):

    chart A: (x, y) = (u, u*v)   exceptional divisor {u = 0}
    chart B: (x, y) = (u*v, v)   exceptional divisor {v = 0}

Chart A is used when ord y(t) >= ord x(t) (the branch direction is a finite
slope), chart B otherwise.  After the substitution the new point on the
exceptional line is moved to the chart origin by translating the
non-exceptional coordinate by its constant term c.  The divisor labels
carried by the two coordinate axes are the bookkeeping that yields
proximities: the centre blown up at each step is proximate to exactly the
earlier divisors whose labels sit on the current axes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .branch import Branch
from .errors import PrecisionError, ResolutionError
from .series import TruncatedSeries

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
    final: ChartState

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


def state_multiplicity(state: ChartState) -> int:
    ox, oy = state.xs.order(), state.ys.order()
    if ox is None and oy is None:
        raise ResolutionError("degenerate state: both coordinates vanish identically")
    if ox is None:
        if oy > state.xs.precision:
            raise PrecisionError("cannot compare orders at this precision")
        return oy
    if oy is None:
        if ox > state.ys.precision:
            raise PrecisionError("cannot compare orders at this precision")
        return ox
    return min(ox, oy)


def state_slope(state: ChartState):
    """Tangent direction of the branch at the chart origin.

    Returns a Fraction (possibly 0) for the direction v = slope * u, or INF
    for the direction along {u = 0}.
    """
    ox, oy = state.xs.order(), state.ys.order()
    if ox is None and oy is None:
        raise ResolutionError("degenerate state")
    if oy is None:
        if ox >= state.ys.precision:
            raise PrecisionError("cannot decide the tangent direction at this precision")
        return Fraction(0)
    if ox is None:
        if oy >= state.xs.precision:
            raise PrecisionError("cannot decide the tangent direction at this precision")
        return INF
    if oy > ox:
        return Fraction(0)
    if oy < ox:
        return INF
    return state.ys.leading() / state.xs.leading()


def choose_step(state: ChartState):
    """Chart and recentring translation dictated by the branch direction."""
    slope = state_slope(state)
    if slope is INF:
        return "B", Fraction(0)
    return "A", Fraction(slope)


def apply_step(state: ChartState, chart: str, c: Fraction) -> ChartState:
    """One blowup in the given chart, recentred by translation c."""
    if chart == "A":
        v = state.ys.divide(state.xs).add_const(-c)
        if v.order() == 0:
            raise ResolutionError("translation does not move the centre to the chart origin")
        return ChartState(
            xs=state.xs,
            ys=v,
            u_label=state.level + 1,
            v_label=state.v_label if c == 0 else None,
            level=state.level + 1,
        )
    u = state.xs.divide(state.ys).add_const(-c)
    if u.order() == 0:
        raise ResolutionError("translation does not move the centre to the chart origin")
    return ChartState(
        xs=u,
        ys=state.ys,
        u_label=state.u_label if c == 0 else None,
        v_label=state.level + 1,
        level=state.level + 1,
    )


def blowup_step(state: ChartState) -> tuple[ChartState, StepRecord]:
    m = state_multiplicity(state)
    prox = state.labels()
    chart, c = choose_step(state)
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
    labels = state.labels()
    if len(labels) != 1:
        return False
    if state_multiplicity(state) != 1:
        return False
    cutting = state.xs if state.u_label is not None else state.ys
    return cutting.order() == 1


def initial_state(b: Branch) -> ChartState:
    ox = b.xs.order()
    oy = b.ys.order()
    if ox is None or ox < 1 or (oy is not None and oy < 1):
        raise ResolutionError("branch does not pass through the origin")
    return ChartState(b.xs, b.ys)


def resolve(b: Branch, max_steps: int = 64) -> ResolutionData:
    """Blow up until the total transform has normal crossings and the strict
    transform meets a single exceptional component transversally."""
    state = initial_state(b)
    steps: list[StepRecord] = []
    while not (state.level > 0 and is_terminal(state)):
        if len(steps) >= max_steps:
            raise ResolutionError(f"no termination within {max_steps} blowups")
        state, rec = blowup_step(state)
        if steps and rec.multiplicity > steps[-1].multiplicity:
            raise ResolutionError("internal: multiplicity sequence increased")
        steps.append(rec)
    return ResolutionData(tuple(steps), state)


def dual_graph(rd: ResolutionData) -> DualGraph:
    r = rd.r
    prox_to = {i: [] for i in range(1, r + 1)}  # i -> later centres proximate to i
    for rec in rd.steps:
        for i in rec.proximate_to:
            prox_to[i].append(rec.centre)
    vertices = tuple((i, -1 - len(prox_to[i])) for i in range(1, r + 1))
    edges = []
    for i in range(1, r + 1):
        if prox_to[i]:
            j = max(prox_to[i])
            edges.append((i, j))
    edges = tuple(sorted(tuple(sorted(e)) for e in edges))
    return DualGraph(vertices, edges)
