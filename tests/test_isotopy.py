import cmath
import math
import random
import re
import struct
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_NAMES
from oracles import (bisect_parameter_radius, bump_value, distance_by_complex_eval, glued_flow,
                     grid_distance, log_ratio, raw_speed, two_sheet_grid)

from germflow import (BivarPoly, Branch, GraphMatch, IsotopyPlan, Multiplicative, Shear, apply_plan,
                      build_plan, integrate_flow, isotopy, lift_point, parse_branch,
                      pushdown_point, verify_isotopy)
from germflow.branch import eval_branch
from germflow.errors import (DegenerateSlopeError, GermflowError, NotEquisingularError,
                             NumericError, PlanError, SeriesError)
from germflow.isotopy import (MAX_SAMPLES, PlanStage, _level0_alignment_shears,
                              _multiplicative_stage, distance_to_branch,
                              find_parameter_radius)
from germflow.resolution import INF, ChartState
from germflow.series import TruncatedSeries


def S(terms, precision=32):
    return TruncatedSeries.from_terms({e: Fraction(c) for e, c in terms.items()}, precision)


BUMP = 10.0


def mult(c1, c2, bump):
    """Unsheared level-0 field carrying the line v = c1*u onto v = c2*u."""
    return Multiplicative("v", Fraction(c2) / Fraction(c1), Fraction(0), bump, 0)


def match(s1, s2, bump, orientation="v"):
    return GraphMatch(orientation, s2.sub(s1), bump, 0)


# -- bump ------------------------------------------------------------------

def test_bump_inside_is_one():
    b = 0.5
    assert bump_value(b, (0j, 0j)) == 1.0
    assert bump_value(b, (0.3 + 0j, 0.2j)) == 1.0


def test_bump_outside_is_zero():
    b = 0.5
    assert bump_value(b, (2.0 + 0j, 0j)) == 0.0


def test_bump_transition_monotone():
    b = 0.5
    radii = [0.5 + 0.05 * k for k in range(11)]
    values = [bump_value(b, (complex(r), 0j)) for r in radii]
    mid = bump_value(b, (complex(0.75), 0j))
    assert 0.0 < mid < 1.0
    assert all(a >= c for a, c in zip(values, values[1:]))
    assert values[0] == 1.0 and values[-1] == 0.0


# -- multiplicative field -----------------------------------------------------

def test_multiplicative_lambda_ln2():
    f = mult(1, 2, BUMP)
    assert log_ratio(f) == pytest.approx(math.log(2.0))
    # the field moves v alone: u is returned as given, and v moves at lam * v
    assert integrate_flow(f, (0.3 + 0j, 0.4 + 0j))[0] == 0.3 + 0j
    assert raw_speed(f, 0.3 + 0j)(0.4 + 0j) == pytest.approx(math.log(2.0) * 0.4)


def test_multiplicative_identity_when_equal():
    f = mult(3, 3, BUMP)
    assert log_ratio(f) == 0
    p = (0.01 + 0j, 0.02 + 0j)
    assert integrate_flow(f, p) == p


def test_multiplicative_zero_slope_rejected():
    with pytest.raises(DegenerateSlopeError):
        Multiplicative("v", Fraction(0), Fraction(0), BUMP, 0)


DEGENERATE_SLOPES = [  # (labels of the chart state, c1, c2)
    (dict(u_label=1, v_label=2, level=2), Fraction(0), Fraction(1)),  # satellite point
    (dict(u_label=1, v_label=2, level=2), Fraction(1), INF),
    (dict(u_label=1, level=1), INF, Fraction(1)),  # only {u = 0} exceptional
    (dict(v_label=1, level=1), Fraction(1), Fraction(0)),  # only {v = 0} exceptional
    (dict(), Fraction(0), Fraction(1)),  # level 0: the global shears act there
]


@pytest.mark.parametrize("labels, c1, c2", DEGENERATE_SLOPES)
def test_multiplicative_stage_refuses_a_tangent_along_an_exceptional_axis(labels, c1, c2):
    state = ChartState(S({1: 1}), S({1: 1}), **labels)
    with pytest.raises(DegenerateSlopeError):
        _multiplicative_stage(state, c1, c2, 0.1)


@pytest.mark.parametrize("labels, c1, orientation, ratio, shear", [
    (dict(u_label=1, level=1), Fraction(1), "v", 2, 0),
    (dict(u_label=1, level=1), Fraction(0), "v", -1, 1),  # the shear moves {v = 0}
    # with only {v = 0} exceptional the stage pushes u, with slopes u/v
    (dict(v_label=1, level=1), Fraction(1), "u", Fraction(1, 2), 0),
    (dict(v_label=1, level=1), INF, "u", Fraction(1, 2), 1),
])
def test_multiplicative_stage_moves_the_non_exceptional_axis(labels, c1, orientation,
                                                            ratio, shear):
    state = ChartState(S({1: 1}), S({1: 1}), **labels)
    f = _multiplicative_stage(state, c1, Fraction(2), 0.1).field
    assert (f.orientation, f.ratio, f.shear, f.level) == (orientation, ratio, shear, 1)


@pytest.mark.parametrize("c1, c2, shears", [
    # onto a tangent along {u = 0}: the exchanged shears onto slope 0
    (Fraction(0), INF, [("v", 1), ("u", -1)]),
    (Fraction(3), INF, [("u", Fraction(-1, 3))]),
    (INF, Fraction(1), [("u", -1), ("v", 2)]),
    (INF, Fraction(0), [("u", 1), ("v", -1)]),
])
def test_level0_alignment_shears(c1, c2, shears):
    assert _level0_alignment_shears(c1, c2) == shears


def test_plan_onto_the_exchanged_cusp_passes():
    # the target's tangent lies along {u = 0}, the source's along {v = 0}
    a, b = parse_branch("x = t^2\ny = t^3"), parse_branch("x = t^3\ny = t^2")
    plan = build_plan(a, b)
    assert [(s.field.kind, s.field.orientation) for s in plan.stages] == [
        ("shear", "v"), ("shear", "u"), ("graph-match", "v")]
    assert verify_isotopy(a, b, plan).passed


def test_multiplicative_time_one_scales():
    f = mult(1, 4, BUMP)
    end = integrate_flow(f, (0.01 + 0j, 0.01 + 0j))
    assert abs(end[0] - 0.01) < 1e-12
    assert abs(end[1] - 0.04) < 1e-9


def test_multiplicative_closed_form_interior():
    f = mult(1, 2, BUMP)
    rng = random.Random(11)
    lam = math.log(2.0)
    for _ in range(100):
        p = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        end = integrate_flow(f, p)
        assert abs(end[0] - p[0]) < 1e-12
        assert abs(end[1] - p[1] * math.e ** lam) < 1e-9


def test_negative_ratio_uses_principal_log():
    f = mult(1, -2, BUMP)
    assert log_ratio(f).imag == pytest.approx(math.pi)
    end = integrate_flow(f, (0.1 + 0j, 0.1 + 0j))
    expected = 0.1 * cmath.exp(log_ratio(f))
    assert abs(end[1] - expected) < 1e-9


# -- graph-match field ---------------------------------------------------------

def test_graph_match_zero_when_equal():
    s = S({1: 1, 2: -1})
    f = match(s, s, BUMP)
    p = (0.2 + 0j, 0.3 + 0j)
    assert integrate_flow(f, p) == p


def test_graph_match_constant_translation():
    f = match(S({0: 1}), S({0: 4}), BUMP)
    end = integrate_flow(f, (0j, 1 + 0j))
    assert abs(end[1] - 4.0) < 1e-9


def test_graph_match_moves_graph_pointwise():
    s1, s2 = S({1: 1}), S({1: 2, 2: 1})
    f = match(s1, s2, BUMP)
    end = integrate_flow(f, (0.1 + 0j, 0.1 + 0j))
    assert abs(end[0] - 0.1) < 1e-12
    assert abs(end[1] - 0.21) < 1e-9


def test_graph_match_closed_form_linear_in_time():
    s1, s2 = S({1: 1}), S({1: 2, 2: 1})
    f = match(s1, s2, BUMP)
    u = 0.25
    delta = s2.eval(u) - s1.eval(u)
    end = integrate_flow(f, (complex(u), 0.7 + 0j))
    assert abs(end[1] - (0.7 + delta)) < 1e-9


# -- gluing ---------------------------------------------------------------------

def test_outside_support_bit_identical():
    f = mult(1, 2, 0.1)
    p = (1.0 + 0j, 1.0 + 0j)
    assert glued_flow(f, p, 1e-2) == p


def test_outside_support_trajectory_stays_outside():
    # radius can only change where the field is nonzero, so points beyond
    # twice the bump never enter the support
    bump = 0.1
    f = mult(1, 2, bump)
    rng = random.Random(3)
    for _ in range(25):
        z = cmath.exp(complex(0, rng.uniform(0, 2 * math.pi)))
        p = (0.3 * z, 0j)
        assert glued_flow(f, p, 1e-2) == p


def test_axis_invariance_multiplicative():
    f = mult(1, 3, 0.5)
    # u = 0 axis
    end = glued_flow(f, (0j, 0.2 + 0j), 1e-3)
    assert abs(end[0]) <= 1e-9
    # v = 0 axis (zero shear)
    end = glued_flow(f, (0.2 + 0j, 0j), 1e-3)
    assert abs(end[1]) <= 1e-9


def test_sheared_multiplicative_keeps_labeled_axis():
    f = Multiplicative("v", Fraction(2), Fraction(1), 0.5, level=1)
    end = integrate_flow(f, (0j, 0.2 + 0j))
    assert abs(end[0]) <= 1e-9  # {u = 0} invariant even with a shear


def test_time_reversal_returns_to_start():
    f = mult(1, 3, 0.3)
    back = mult(3, 1, 0.3)
    p = (0.25 + 0.05j, 0.33 - 0.02j)  # partially in the transition annulus
    fwd = glued_flow(f, p, 1e-3)
    ret = glued_flow(back, fwd, 1e-3)
    fwd_half = glued_flow(f, p, 5e-4)
    fwd_err = math.hypot((fwd[0] - fwd_half[0]).real, (fwd[0] - fwd_half[0]).imag,
                         (fwd[1] - fwd_half[1]).real, (fwd[1] - fwd_half[1]).imag)
    ret_err = math.hypot((ret[0] - p[0]).real, (ret[0] - p[0]).imag,
                         (ret[1] - p[1]).real, (ret[1] - p[1]).imag)
    assert ret_err <= 2.0 * fwd_err + 1e-12


# -- chart transport ---------------------------------------------------------------

def test_lift_empty_path_identity():
    p = (0.1 + 0.2j, -0.3 + 0j)
    assert lift_point((), p) == p
    assert pushdown_point((), p) == p
    assert lift_point((), (0j, 0j)) == (0j, 0j)


def test_lift_chart_a():
    assert lift_point((("A", Fraction(0)),), (0.01 + 0j, 0.001 + 0j)) == \
        (0.01 + 0j, 0.1 + 0j)


def test_lift_chart_a_translated():
    q = lift_point((("A", Fraction(1)),), (0.01 + 0j, 0.0101 + 0j))
    assert abs(q[0] - 0.01) < 1e-15
    assert abs(q[1] - 0.01) < 1e-12


def test_pushdown_chart_a():
    assert pushdown_point((("A", Fraction(0)),), (0.01 + 0j, 0.1 + 0j)) == \
        (0.01 + 0j, 0.001 + 0j)


def test_lift_origin_rejected():
    assert lift_point((("A", Fraction(0)),), (0j, 0j)) is None


def test_lift_on_divisor_ill_conditioned():
    assert lift_point((("A", Fraction(0)),), (0j, 0.5 + 0j)) is None


@given(st.integers(0, 3),
       st.lists(st.sampled_from(["A", "B"]), min_size=0, max_size=4),
       st.floats(0.01, 0.5), st.floats(0.01, 0.5),
       st.floats(0.0, 2 * math.pi))
def test_lift_pushdown_roundtrip(tr, charts, r1, r2, phase):
    path = tuple((c, Fraction(tr if c == "A" else 0)) for c in charts)
    p = (complex(r1 * math.cos(phase), r1 * math.sin(phase)),
         complex(r2 * math.sin(phase), r2 * math.cos(phase)))
    q = lift_point(path, p)
    if q is None:
        return
    back = pushdown_point(path, q)
    scale = 1.0 + abs(p[0]) + abs(p[1])
    assert abs(back[0] - p[0]) <= 1e-12 * scale
    assert abs(back[1] - p[1]) <= 1e-12 * scale


def test_roundtrip_100_random_points():
    rng = random.Random(5)
    path = (("A", Fraction(0)), ("B", Fraction(0)), ("A", Fraction(4)))
    for _ in range(100):
        p = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        q = lift_point(path, p)
        if q is None:
            continue
        back = pushdown_point(path, q)
        scale = 1.0 + abs(p[0]) + abs(p[1])
        assert abs(back[0] - p[0]) <= 1e-12 * scale
        assert abs(back[1] - p[1]) <= 1e-12 * scale


# -- plans -------------------------------------------------------------------------

def test_plan_identity_pair():
    g = parse_branch("x = t^2\ny = t^3")
    plan = build_plan(g, g)
    assert len(plan.stages) == 1
    f = plan.stages[0].field
    assert f.kind == "graph-match"
    assert f.gap.is_zero()


def test_plan_scaled_cusp_structure():
    g1 = parse_branch("x = t^2\ny = t^3")
    g2 = parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(g1, g2)
    kinds = [st.field.kind for st in plan.stages]
    assert kinds == ["multiplicative", "graph-match"]
    mult = plan.stages[0].field
    assert mult.ratio == Fraction(4)      # slopes 1 vs 4 at the satellite centre
    assert mult.level == 2
    assert mult.shear == 0


def test_plan_cusp_t4_single_graph_match():
    g1 = parse_branch("x = t^2\ny = t^3")
    g2 = parse_branch("x = t^2\ny = t^3 + t^4")
    plan = build_plan(g1, g2)
    assert [st.field.kind for st in plan.stages] == ["graph-match"]


def test_plan_levels_weakly_increase():
    pairs = [("x = t^2\ny = t^3", "x = t^2\ny = 2 t^3"),
             ("x = t^2\ny = t^5", "x = t^2\ny = 2 t^4 + t^5"),
             ("x = t^1\ny = t^1", "x = t^1\ny = t^2")]
    for a, b in pairs:
        plan = build_plan(parse_branch(a), parse_branch(b))
        levels = [st.field.level for st in plan.stages]
        assert levels == sorted(levels)
        assert plan.stages[-1].field.kind == "graph-match"


def test_plan_not_equisingular_rejected():
    g1 = parse_branch("x = t^2\ny = t^3")
    g2 = parse_branch("x = t^4\ny = t^6 + t^7")
    with pytest.raises(NotEquisingularError):
        build_plan(g1, g2)


def test_plan_free_point_divergence_uses_shear_conjugation():
    g1 = parse_branch("x = t^2\ny = t^5")
    g2 = parse_branch("x = t^2\ny = 2 t^4 + t^5")
    plan = build_plan(g1, g2)
    mult = plan.stages[0].field
    assert mult.kind == "multiplicative"
    assert mult.shear != 0  # one tangent is along the unlabeled axis


def test_apply_plan_empty_points():
    g = parse_branch("x = t^2\ny = t^3")
    plan = build_plan(g, g)
    assert apply_plan(plan, []) == ([], [])


def test_apply_plan_origin_fixed():
    g1 = parse_branch("x = t^2\ny = t^3")
    g2 = parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(g1, g2)
    # every stage fixes the origin, so no stage stops it, though no chart
    # lift can carry it
    assert apply_plan(plan, [(0j, 0j)]) == ([(0j, 0j)], [None])


def test_apply_plan_identity_within_tolerance():
    g = parse_branch("x = t^2\ny = t^3")
    plan = build_plan(g, g)
    pts = [(0.01 + 0j, 0.001 + 0j), (0.04 + 0j, 0.008 + 0j)]
    out, stops = apply_plan(plan, pts)
    assert stops == [None, None]
    for p, q in zip(pts, out):
        assert abs(p[0] - q[0]) <= 1e-12
        assert abs(p[1] - q[1]) <= 1e-12


def test_divisor_probe_stays_on_axis():
    g1 = parse_branch("x = t^2\ny = t^3")
    g2 = parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(g1, g2)
    stage = plan.stages[0]
    # at level 2, after the charts A0, B0: a satellite point, both axes divisors
    assert stage.field.level == 2 and plan.chart_path[:2] == (("A", 0), ("B", 0))
    bump = stage.field.bump
    for v in (0.1, 0.5 * bump, 0.9 * bump):
        end = glued_flow(stage.field, (0j, complex(v)), 1e-3)
        assert abs(end[0]) <= 1e-9
        end = glued_flow(stage.field, (complex(v), 0j), 1e-3)
        assert abs(end[1]) <= 1e-9


def _oracle_field(f):
    """The glued field as a map of both coordinates, every kind written out."""
    if f.kind == "multiplicative":
        lam, a = log_ratio(f), float(f.shear)
        raw = lambda x, y: (0j, lam * (y - a * x))
        if f.orientation == "u":
            raw = lambda x, y: (lam * (x - a * y), 0j)
    elif f.kind == "shear":
        s = float(f.amount)
        raw = (lambda x, y: (0j, s * x)) if f.orientation == "v" else (lambda x, y: (s * y, 0j))
    else:
        raw = lambda x, y: (0j, f.gap.eval(x))
        if f.orientation == "u":
            raw = lambda x, y: (f.gap.eval(y), 0j)
    if f.bump is None:
        return raw

    def glued(x, y):
        rho = bump_value(f.bump, (x, y))
        if rho == 0.0:
            return (0j, 0j)
        fx, fy = raw(x, y)
        return (rho * fx, rho * fy)

    return glued


def _oracle_flow(f, p, h):
    """Classical RK4 on both coordinates at once."""
    fn = _oracle_field(f)
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
    return (x, y)


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


ORACLE_BUMP = 0.3
ORACLE_FIELDS = {
    "multiplicative": lambda o: Multiplicative(o, Fraction(-3), Fraction(1, 2),
                                               ORACLE_BUMP, level=1),
    "shear": lambda o: Shear(o, Fraction(3, 2)),
    "graph-match": lambda o: match(S({1: 1, 3: Fraction(-1, 3)}),
                                   S({1: 2, 2: Fraction(1, 7), 5: 4}),
                                   ORACLE_BUMP, orientation=o),
}
# inside the bump, starting in or crossing the transition annulus, outside it,
# and with a negative-zero imaginary part on each coordinate
ORACLE_POINTS = [(0.1 + 0.02j, 0.05 - 0.01j), (0.25 + 0.05j, 0.33 - 0.02j),
                 (0.4 + 0j, 0.3 + 0.1j), (0.5 + 0j, 0.7 + 0j),
                 (complex(0.2, -0.0), complex(-0.1, -0.0))]


# indices of the ORACLE_POINTS whose raw trajectory the containment rule keeps
# in the bump's ball; a global shear has no cut-off, so it keeps all of them
CONTAINED = {"multiplicative": {0}, "graph-match": {0, 4}, "shear": set(range(5))}


def _split(f, p):
    return p if f.orientation == "v" else p[::-1]


def _join(f, fixed, w):
    return (fixed, w) if f.orientation == "v" else (w, fixed)


def _closed_form_oracle(f, p):
    """The raw time-1 map on both coordinates, every kind written out."""
    fixed, w = _split(f, p)
    if f.kind == "multiplicative":
        af = float(f.shear) * fixed
        return _join(f, fixed, af + (w - af) * float(f.ratio))
    if f.kind == "shear":
        return _join(f, fixed, w + float(f.amount) * fixed)
    return _join(f, fixed, w + f.gap.eval(fixed))


def _reach(f, p, samples=1001):
    """Largest distance from the bump centre (the origin) along the raw
    trajectory of p, sampled at `samples` times in [0, 1]."""
    fixed, w = _split(f, p)
    if f.kind == "multiplicative":
        af = float(f.shear) * fixed
        at = lambda t: af + (w - af) * cmath.exp(log_ratio(f) * t)
    else:
        gap = f.gap.eval(fixed)
        at = lambda t: w + t * gap
    return max(math.hypot(abs(fixed), abs(at(k / (samples - 1))))
               for k in range(samples))


def _rk4_tolerance(f, h):
    """Relative RK4 error bound at step h against the exact flow: a
    translation is integrated exactly up to rounding, a linear field w' = lam*w
    gains about |lam*h|^5/120 per step (Hairer, Norsett, Wanner, Solving
    ODEs I, section II.1); twice that, plus rounding."""
    if f.kind != "multiplicative":
        return 1e-9
    return 1e-9 + abs(log_ratio(f) * h) ** 5 / 60.0 / h


def _scale(*points):
    return sum(abs(z) for p in points for z in p)


def _gap_norm(p, q):
    return math.hypot(*(c for a, b in zip(p, q) for c in ((a - b).real, (a - b).imag)))


@pytest.mark.parametrize("orientation", ["v", "u"])
@pytest.mark.parametrize("kind", ["graph-match", "multiplicative"])
def test_integrate_flow_matches_two_coordinate_rk4(kind, orientation):
    # a trajectory that leaves the bump's ball has no closed form; there the
    # one-coordinate RK4 of the glued field is the two-coordinate one, bit for bit
    f = ORACLE_FIELDS[kind](orientation)
    moving = 1 if orientation == "v" else 0
    leaving = [p for k, p in enumerate(ORACLE_POINTS) if k not in CONTAINED[kind]]
    assert leaving
    for p in leaving:
        assert _reach(f, p) > ORACLE_BUMP
        assert integrate_flow(f, p) is None
        end = glued_flow(f, p, 1e-2)
        assert _bits(end[1 - moving]) == _bits(p[1 - moving])
        assert end[moving] == _oracle_flow(f, p, 1e-2)[moving]


@pytest.mark.parametrize("orientation", ["v", "u"])
@pytest.mark.parametrize("kind", sorted(ORACLE_FIELDS))
def test_integrate_flow_closed_form_where_contained(kind, orientation):
    f = ORACLE_FIELDS[kind](orientation)
    moving = 1 if orientation == "v" else 0
    for p in (ORACLE_POINTS[k] for k in sorted(CONTAINED[kind])):
        if f.bump is not None:
            assert _reach(f, p) <= ORACLE_BUMP
        end = integrate_flow(f, p)
        assert [_bits(z) for z in end] == [_bits(z) for z in _closed_form_oracle(f, p)]
        rk4 = _oracle_flow(f, p, 1e-2)
        assert abs(end[moving] - rk4[moving]) <= _rk4_tolerance(f, 1e-2) * _scale(p, end)


RATIOS = [Fraction(-3), Fraction(-1, 2), Fraction(1, 3), Fraction(2), Fraction(3)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE_FIELDS)), st.sampled_from(["v", "u"]),
       st.sampled_from(RATIOS), st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-2)]),
       st.complex_numbers(max_magnitude=0.1), st.complex_numbers(max_magnitude=0.05))
def test_closed_form_agrees_with_rk4_over_contained_points(kind, orientation, ratio, a,
                                                           fixed, gap):
    # the containment rule: both ends of a translation, the reach bound of a
    # linear map, no bump on a shear
    if kind == "multiplicative":
        f = Multiplicative(orientation, ratio, a, ORACLE_BUMP, level=1)
        af = float(a) * fixed
        p = _join(f, fixed, af + gap)  # gap = w - a*fixed
        reach = math.hypot(abs(fixed), abs(af) + abs(gap) * max(1.0, abs(ratio)))
    elif kind == "shear":
        f = Shear(orientation, ratio)
        p = _join(f, fixed, gap)
        reach = 0.0
    else:
        f = ORACLE_FIELDS[kind](orientation)
        p = _join(f, fixed, gap)
        reach = _reach(f, p, samples=2)
    assume(reach <= ORACLE_BUMP)
    end = integrate_flow(f, p)
    assert end == _closed_form_oracle(f, p)
    rk4 = _oracle_flow(f, p, 1e-3)
    assert _gap_norm(end, rk4) <= _rk4_tolerance(f, 1e-3) * _scale(p, end)


def test_trajectory_leaving_the_ball_is_uncontained():
    # a translation that starts inside the bump's ball and ends outside it,
    # where the glued flow is not the closed form
    f = match(S({0: 0}), S({0: Fraction(1, 2)}), ORACLE_BUMP)
    p = (0.05 + 0j, 0.1 + 0j)
    assert integrate_flow(f, p) is None
    assert glued_flow(f, p, 1e-2) == _oracle_flow(f, p, 1e-2) != _closed_form_oracle(f, p)
    # a negative ratio whose end points both lie inside the ball while the
    # spiral between them leaves it
    bump = 0.28
    f = Multiplicative("v", Fraction(-3), Fraction(2), bump, level=1)
    p = (0.1j, 0.05 + 0.2j)
    closed = _closed_form_oracle(f, p)
    assert max(math.hypot(*map(abs, q)) for q in (p, closed)) < bump
    assert _reach(f, p) > bump
    assert integrate_flow(f, p) is None
    assert glued_flow(f, p, 1e-2) != closed
    # the same spiral in a ball large enough to hold it takes the closed form
    f = Multiplicative("v", Fraction(-3), Fraction(2), 0.37, 1)
    assert integrate_flow(f, p) == closed


def test_plan_whose_trajectory_leaves_the_ball_fails_and_names_the_stage():
    # stage 2 is the translation of the test above, which carries every
    # sample of the cusp (|p| <= 0.05) out of its bump's ball of radius 0.3
    g = parse_branch("x = t^2\ny = t^3")
    still = match(S({1: 1}), S({1: 1}), ORACLE_BUMP)
    leaving = match(S({0: 0}), S({0: Fraction(1, 2)}), ORACLE_BUMP)
    plan = IsotopyPlan((PlanStage(still), PlanStage(leaving)), g, g, (), 0.05,
                       find_parameter_radius(g, 0.05))
    rep = verify_isotopy(g, g, plan, n_samples=4)
    assert [rec.uncontained_stage for rec in rep.records] == [2] * 4
    assert all(rec.dist == math.inf and rec.end == rec.start for rec in rep.records)
    assert rep.max_distance == math.inf and not rep.passed
    # a built plan whose first bump is far too small for the samples
    a, b = parse_branch("x = t^2\ny = t^3"), parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(a, b)
    assert [rec.uncontained_stage for rec in verify_isotopy(a, b, plan, n_samples=4).records] \
        == [None] * 4
    first = plan.stages[0]
    tiny = replace(first, field=replace(first.field, bump=1e-9))
    rep = verify_isotopy(a, b, replace(plan, stages=(tiny,) + plan.stages[1:]), n_samples=4)
    assert [rec.uncontained_stage for rec in rep.records] == [1] * 4 and not rep.passed


def test_a_stopped_sample_gets_no_implicit_distance(monkeypatch):
    # a stopped sample's end is not an image of the isotopy, so neither of
    # its distances is measured; both read inf
    calls, original = [], BivarPoly.implicit_distance

    def counted(f, x, y):
        calls.append((x, y))
        return original(f, x, y)

    monkeypatch.setattr(BivarPoly, "implicit_distance", counted)
    a, b = parse_branch("x = t^2\ny = t^3"), parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(a, b)
    assert len(verify_isotopy(a, b, plan, n_samples=4).records) == len(calls) == 4
    calls.clear()
    first = plan.stages[0]
    tiny = replace(first, field=replace(first.field, bump=1e-9))
    rep = verify_isotopy(a, b, replace(plan, stages=(tiny,) + plan.stages[1:]), n_samples=4)
    assert [rec.uncontained_stage for rec in rep.records] == [1] * 4 and calls == []
    assert all(rec.dist == rec.dist_implicit == math.inf for rec in rep.records)


def test_apply_plan_refuses_stage_paths_that_do_not_extend_each_other():
    # a stage acts in the chart chart_path[:level], so the charts of the
    # stages extend each other exactly when their levels do not decrease
    a, b = parse_branch("x = t^2\ny = t^3"), parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(a, b)
    assert [stage.field.level for stage in plan.stages] == [2, 3] == [2, len(plan.chart_path)]
    with pytest.raises(PlanError, match="^stage 2 is at a level below the previous stage's$"):
        apply_plan(replace(plan, stages=plan.stages[::-1]), [(0.01 + 0j, 0.001 + 0j)])


def test_a_refused_lift_stops_the_sample():
    # a coefficient far beyond float range puts every sample at |x| ~ 1e-161,
    # where the lift into the graph match's chart is ill-conditioned; such a
    # sample once skipped the stage unmoved and FAILed on its distance alone
    a = parse_branch("x = t^2\ny = t^3 + 1" + "0" * 400 + " t^5")
    b = parse_branch("x = t^2\ny = t^3")
    plan = build_plan(a, b)
    rep = verify_isotopy(a, b, plan)
    assert lift_point((("A", 0), ("B", 0), ("A", 1)), rep.records[-1].start) is None
    assert [rec.uncontained_stage for rec in rep.records] == [1] * 40
    assert all(rec.dist == math.inf and rec.end == rec.start for rec in rep.records)
    assert rep.max_distance == math.inf and not rep.passed


def test_a_stopped_sample_ends_where_its_transport_stopped():
    # a refused lift keeps the image of the stages before it, pushed down from
    # their chart: stage 1 moves the lift (0.1, 0.5) of (0.1, 0.05) onto
    # {v = 0}, where the chart-B lift of stage 2 is refused
    g = parse_branch("x = t^2\ny = t^3")
    path = (("A", Fraction(0)), ("B", Fraction(0)))
    onto_axis = GraphMatch("v", S({0: Fraction(-1, 2)}), BUMP, 1)
    still = GraphMatch("v", S({}), BUMP, 2)
    plan = IsotopyPlan((PlanStage(onto_axis), PlanStage(still)), g, g, path, 0.05, 1.0)
    p = (0.1 + 0j, 0.05 + 0j)
    assert lift_point(path[1:], (0.1 + 0j, 0j)) is None
    ends, stops = apply_plan(plan, [p])
    assert ends == [pushdown_point(path[:1], (0.1 + 0j, 0j))] == [(0.1 + 0j, 0j)]
    assert stops == [2]
    # a trajectory that may leave the ball keeps the sample's lift to the
    # stage's chart, pushed down: a float round trip, not the start itself
    leaving = GraphMatch("v", S({0: Fraction(1, 2)}), ORACLE_BUMP, 1)
    plan = IsotopyPlan((PlanStage(leaving),), g, g, path[:1], 0.05, 1.0)
    p = (0.07 + 0j, 0.003 + 0j)
    (end,), stops = apply_plan(plan, [p])
    assert stops == [1]
    assert end == pushdown_point(path[:1], lift_point(path[:1], p)) != p


def test_one_plan_and_its_check_find_the_parameter_radius_once(monkeypatch):
    calls = []

    def counted(b, radius):
        calls.append(radius)
        return find_parameter_radius(b, radius)

    monkeypatch.setattr(isotopy, "find_parameter_radius", counted)
    a, b = parse_branch("x = t^2\ny = t^3"), parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(a, b, sample_radius=0.01)
    rep = verify_isotopy(a, b, plan, n_samples=4, radius=0.01)
    assert calls == [0.01] and rep.passed
    assert plan.t_max == find_parameter_radius(a, 0.01)
    assert rep.records[-1].t == plan.t_max


@pytest.mark.parametrize("other", ["radius", "source", "target"])
def test_verify_refuses_a_window_or_pair_the_plan_was_not_built_for(other):
    # the bumps are sized for the plan's own source and radius
    a, b = parse_branch("x = t^2\ny = t^3"), parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(a, b, sample_radius=0.01)
    c = parse_branch("x = t^2\ny = 3 t^3")
    g1, g2, radius = {"radius": (a, b, 0.05), "source": (c, b, 0.01),
                      "target": (a, c, 0.01)}[other]
    with pytest.raises(PlanError, match="^verify_isotopy needs the branches and radius "
                                        "the plan was built for$"):
        verify_isotopy(g1, g2, plan, n_samples=4, radius=radius)


def test_deep_pair_whose_float_relift_left_the_ball_passes_by_closed_form():
    # isotopy_plan seed 4 op 52: lifting the innermost sample from the plane
    # at every stage gave w = 0.638 at the level-6 graph match (bump
    # 0.457), and that flow once ran 20 RK4 steps; carried in chart
    # coordinates every sample stays in every ball
    a = parse_branch("x = t^4\ny = -2 t^6 + t^9 + 2 t^12").with_precision(32)
    b = parse_branch("x = t^4\ny = 2 t^4 + t^6 - t^9").with_precision(32)
    plan = build_plan(a, b, sample_radius=0.002, precision=32)
    rep = verify_isotopy(a, b, plan, n_samples=3, radius=0.002)
    assert [rec.uncontained_stage for rec in rep.records] == [None] * 3
    assert rep.passed, rep.max_distance


# -- end-to-end verification ---------------------------------------------------------

def run_pair(a, b, radius=0.05, tol=1e-3):
    g1, g2 = parse_branch(a), parse_branch(b)
    plan = build_plan(g1, g2, sample_radius=radius)
    return verify_isotopy(g1, g2, plan, n_samples=40, radius=radius, tol=tol)


def test_verify_identity_machine_precision():
    rep = run_pair("x = t^2\ny = t^3", "x = t^2\ny = t^3")
    assert rep.max_distance < 1e-12
    assert rep.passed


def test_verify_scaled_cusp():
    rep = run_pair("x = t^2\ny = t^3", "x = t^2\ny = 2 t^3")
    assert rep.passed
    assert rep.max_distance < 1e-3


def test_verify_cusp_t4():
    rep = run_pair("x = t^2\ny = t^3", "x = t^2\ny = t^3 + t^4")
    assert rep.passed


@pytest.mark.parametrize("a,b", [
    ("x = t^2\ny = t^5", "x = t^2\ny = 2 t^4 + t^5"),      # shear-conjugated stage
    ("x = t^1\ny = t^1", "x = t^1\ny = t^2"),               # level-0 shear alignment
    ("x = t^1\ny = t^1", "x = t^1\ny = 2 t^1"),             # level-0 multiplicative
    ("x = t^3\ny = t^1", "x = t^5\ny = t^1"),               # graphs over the v axis
    ("x = t^3\ny = t^1", "x = t^1\ny = t^1"),               # infinite vs finite slope
    ("x = t^1\ny = t^2", "x = t^3\ny = t^1"),               # slope 0 vs infinity
])
def test_verify_equisingular_pairs_depth_le_4(a, b):
    rep = run_pair(a, b)
    assert rep.passed, rep.max_distance


@pytest.mark.parametrize("a,b", [
    ("x = t^3\ny = t^4", "x = t^3\ny = t^4 + t^5"),
    ("x = t^3\ny = t^5", "x = t^3\ny = t^5 + t^7"),
])
def test_verify_multiplicity_three_pairs_at_local_radius(a, b):
    # triple points lift samples to |u| ~ radius^(1/3); keep the germ window
    # inside the convergence disc of the strict-transform graphs
    rep = run_pair(a, b, radius=0.01)
    assert rep.passed, rep.max_distance


@pytest.mark.parametrize("target", [
    "y = 3 t^3", "y = 1/2 t^3", "y = t^3 - t^4", "y = 2 t^3 + t^5",
])
def test_verify_cusp_family_stress(target):
    # everything with characteristic (2; 3) is carried onto everything else
    rep = run_pair("x = t^2\ny = t^3", "x = t^2\n" + target)
    assert rep.passed, (target, rep.max_distance)
    assert rep.max_distance < 1e-6


def test_verify_small_leading_coefficient():
    # slope ratio 1/9 plus a sign change; the chart series are wilder but the
    # composed graphs still converge over the sampled germ
    rep = run_pair("x = t^2\ny = t^3", "x = t^2\ny = 1/3 t^3 - 2 t^4 + t^5")
    assert rep.passed, rep.max_distance


def test_verify_deep_pair_fails_wide_passes_local():
    # at r = 5 the strict-transform graphs stop converging over the default
    # window; the report says so honestly, and a local window verifies
    a, b = "x = t^4\ny = t^6 + t^7", "x = t^4\ny = t^6 + t^7 + t^9"
    assert not run_pair(a, b, radius=0.05).passed
    rep = run_pair(a, b, radius=0.005)
    assert rep.passed, rep.max_distance


def test_verify_cross_check_implicit_distance():
    rep = run_pair("x = t^2\ny = t^3", "x = t^2\ny = 2 t^3")
    for rec in rep.records:
        assert rec.dist_implicit <= 10.0 * max(rec.dist, 1e-12)


def test_verify_cross_check_is_exact_on_a_tangent_pair():
    # tangent y = x: the images land within 1e-17 of the target, where the
    # float value and gradient of the implicit equation read 1e-10 or more
    a = parse_branch("x = t^4\ny = t^4 + 2 t^6 + t^9").with_precision(32)
    b = parse_branch("x = t^4\ny = t^4 + t^6 + t^9 - t^11").with_precision(32)
    plan = build_plan(a, b, sample_radius=0.002, precision=32)
    rep = verify_isotopy(a, b, plan, n_samples=6, radius=0.002)
    assert rep.passed and rep.max_distance < 1e-15
    for rec in rep.records:
        assert rec.dist_implicit <= 10.0 * max(rec.dist, 1e-12)


def test_verify_far_sample_saturates_implicit_distance():
    a = parse_branch("x = t^4\ny = 2 t^4 - 1/2 t^6 - t^9 - t^10").with_precision(32)
    b = parse_branch("x = t^4\ny = t^4 + t^6 + t^9 - t^11").with_precision(32)
    plan = build_plan(a, b, sample_radius=0.002, precision=32)
    rep = verify_isotopy(a, b, plan, n_samples=3, radius=0.002)
    assert not rep.passed
    assert [math.isinf(rec.dist_implicit) for rec in rep.records] == [False, False, True]


def test_richardson_estimate_small():
    # no flow is integrated, so there is no step error; the field stays for
    # readers of the old report and is always 0.0
    rep = run_pair("x = t^2\ny = t^3", "x = t^2\ny = 2 t^3")
    assert rep.max_step_error == 0.0


def test_step_argument_is_accepted_and_ignored():
    # steps the RK4 fallback once refused (above 1, nan) change nothing now
    a, b = parse_branch("x = t^2\ny = t^3"), parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(a, b)
    rep = verify_isotopy(a, b, plan, n_samples=4)
    for h in (0.05, 2.0, math.nan):
        assert verify_isotopy(a, b, plan, n_samples=4, h=h) == rep


@pytest.mark.parametrize("n_samples", [MAX_SAMPLES + 1, 10 ** 9])
def test_sample_count_above_the_ceiling_is_refused(n_samples):
    # refused before any sample is taken: 10^9 once built lists of that length
    a, b = parse_branch("x = t^2\ny = t^3"), parse_branch("x = t^2\ny = 2 t^3")
    with pytest.raises(NumericError, match=f"^n_samples {n_samples} is above 10000$"):
        verify_isotopy(a, b, build_plan(a, b), n_samples=n_samples)


VACUOUS_SETTINGS = [("n_samples", 0, "n_samples 0 is below 1")] + [
    (name, value, f"{name} {value!r} is not finite and positive")
    for name in ("radius", "tol") for value in (math.nan, math.inf, -1.0, 0.0)] + [
    ("sample_radius", math.nan, "radius nan is not finite and positive")]


@pytest.mark.parametrize("setting,value,message", VACUOUS_SETTINGS,
                         ids=[f"{setting}={value}" for setting, value, _ in VACUOUS_SETTINGS])
def test_settings_that_would_make_the_check_vacuous_are_refused(setting, value, message):
    # the library once read PASS here: no samples and no records; a nan or
    # non-positive radius put every sample at t = 0 (max_dist=0.0); tol=inf
    # passed any distance.  The radius is checked once, by build_plan, where
    # the plan's sample window is set
    a, b = parse_branch("x = t^2\ny = t^3"), parse_branch("x = t^2\ny = 2 t^3")
    with pytest.raises(GermflowError, match=f"^{re.escape(message)}$"):
        if setting in ("radius", "sample_radius"):
            build_plan(a, b, sample_radius=value)
        else:
            verify_isotopy(a, b, build_plan(a, b), **{setting: value})


def test_coefficient_beyond_float_range_keeps_the_sample_window():
    b = parse_branch("x = t^2\ny = t^3 + 1" + "0" * 400 + " t^5")
    x, y = eval_branch(b, 1e-100)
    assert x == 1e-200 and y == pytest.approx(1e-100, rel=1e-12, abs=0.0)
    # |y(t)| = 10^400 t^5 = 0.05 sets the window, far below 1e-6 * 2^-200
    tmax = find_parameter_radius(b, 0.05)
    assert tmax == pytest.approx(0.05 ** 0.2 * 1e-80, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("radius", [0.002, 0.05, 1.5])
def test_parameter_radius_equals_the_200_step_bisection(corpus, name, radius):
    assert find_parameter_radius(corpus[name], radius) == \
        bisect_parameter_radius(corpus[name], radius)


# -- distance to the target ------------------------------------------------------------

NEGATIVE_SHEET_PAIR = ("x = t^2\ny = t^2 - 1/2 t^5", "x = t^2\ny = 4/3 t^4 + t^5")


def test_negative_sheet_pair_passes():
    # an image lands on the target at t = -1.127, beyond the |t| <= 0.944
    # window that the target's grid once stopped at (max_dist read 0.379)
    rep = run_pair(*NEGATIVE_SHEET_PAIR)
    assert rep.passed and rep.max_distance < 1e-12, rep.max_distance
    far = max(rep.records, key=lambda rec: abs(rec.end[0]))
    assert far.end[0].real > 1.2 and far.end[1].real > 0.3


def test_distance_finds_a_point_on_the_negative_sheet_beyond_the_old_window():
    b = parse_branch(NEGATIVE_SHEET_PAIR[1])
    p = eval_branch(b, -1.127)
    assert distance_to_branch(p, b) < 1e-15
    # the old window: the target's parameter radius at 1.5 * |p| + 0.05
    tmax = find_parameter_radius(b, 1.5 * abs(complex(p[0].real, p[1].real)) + 0.05)
    assert tmax < 1.0
    assert grid_distance(p, b, two_sheet_grid(tmax, 400)) > 0.1


def test_distance_is_bounded_by_the_origin():
    b = parse_branch("x = t^2\ny = t^3")
    assert distance_to_branch((0j, 0j), b) == 0.0
    # x_p < 0 has no real fibre point: t = 0 is the nearest point of the trace
    assert distance_to_branch((-1e-3 + 0j, 0j), b) == pytest.approx(1e-3, rel=1e-12)
    # far beyond float range of y(t): |p| bounds the distance
    assert distance_to_branch((1e200 + 0j, 1e200 + 0j), b) <= abs(complex(1e200, 1e200))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3, 4]),
       st.dictionaries(st.integers(1, 9), st.integers(-4, 4).filter(bool), min_size=1, max_size=4),
       st.floats(-0.9, 0.9), st.floats(0.0, 1e-2), st.floats(0.0, 2.0 * math.pi),
       st.floats(0.0, 2.0 * math.pi))
def test_distance_is_no_worse_than_the_two_sheet_grid(n, ys, t0, eps, phase_x, phase_y):
    b = Branch(S({n: 1}), S({e: Fraction(c, 2) for e, c in ys.items()}))
    x, y = eval_branch(b, complex(t0))
    scale = eps * math.hypot(abs(x), abs(y))
    p = (x + scale * cmath.exp(1j * phase_x), y + scale * cmath.exp(1j * phase_y))
    oracle = grid_distance(p, b, two_sheet_grid(1.0, 400))
    assert distance_to_branch(p, b) <= oracle * (1.0 + 1e-9) + 1e-15


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 6, 97, 101, 128]),
       st.dictionaries(st.integers(1, 254), st.one_of(st.integers(-9, 9).filter(bool),
                                                      st.just(3 * 10 ** 320)),
                       min_size=1, max_size=5),
       st.floats(-1.0, 1.0), st.floats(-1e-2, 1e-2), st.floats(-1e-3, 1e-3))
@example(128, {245: -9}, -0.97, 1e-3, 0.0)  # a power complex ** takes by exp and log
@example(2, {3: 1}, 0.5, 0.0, 0.0)
def test_distance_is_the_complex_evaluation_distance_bit_for_bit(n, ys, t, dx, dy):
    b = Branch(S({n: 1}, 256), S({n + e: c for e, c in ys.items()}, 256))
    x, y = eval_branch(b, complex(t))
    p = (x * (1.0 + dx), y * (1.0 + dy) + 1j * dy)
    assert repr(distance_to_branch(p, b)) == repr(distance_by_complex_eval(p, b))


def test_verify_refuses_a_target_whose_x_is_not_a_monomial():
    a, b = parse_branch("x = t^2\ny = t^3"), parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(a, b)
    bad = Branch(S({2: 2}), S({3: 1}))
    with pytest.raises(SeriesError, match="requires the target's x to be the monomial t\\^n"):
        verify_isotopy(a, bad, plan, n_samples=2)
