import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from germflow import (apply_plan, build_plan, bump_value, graph_match_field,
                      integrate_flow, lift_point, multiplicative_field, parse_branch,
                      pushdown_point, verify_isotopy)
from germflow.errors import DegenerateSlopeError, LiftError, NotEquisingularError
from germflow.isotopy import BumpSpec, FieldSpec
from germflow.series import TruncatedSeries


def S(terms, precision=32):
    return TruncatedSeries.from_terms({e: Fraction(c) for e, c in terms.items()}, precision)


BUMP = BumpSpec(r_inner=10.0, r_outer=20.0)


# -- bump ------------------------------------------------------------------

def test_bump_inside_is_one():
    b = BumpSpec(0.5, 1.0)
    assert bump_value(b, (0j, 0j)) == 1.0
    assert bump_value(b, (0.3 + 0j, 0.2j)) == 1.0


def test_bump_outside_is_zero():
    b = BumpSpec(0.5, 1.0)
    assert bump_value(b, (2.0 + 0j, 0j)) == 0.0


def test_bump_transition_monotone():
    b = BumpSpec(0.5, 1.0)
    radii = [0.5 + 0.05 * k for k in range(11)]
    values = [bump_value(b, (complex(r), 0j)) for r in radii]
    mid = bump_value(b, (complex(0.75), 0j))
    assert 0.0 < mid < 1.0
    assert all(a >= c for a, c in zip(values, values[1:]))
    assert values[0] == 1.0 and values[-1] == 0.0


# -- multiplicative field -----------------------------------------------------

def test_multiplicative_lambda_ln2():
    f = multiplicative_field(1, 2, BUMP)
    assert f.lam == pytest.approx(math.log(2.0))
    fx, fy = [c for c in _raw(f, (0.3 + 0j, 0.4 + 0j))]
    assert fx == 0
    assert fy == pytest.approx(math.log(2.0) * 0.4)


def _raw(f, p):
    from germflow.isotopy import _raw_field
    return _raw_field(f)(*p)


def test_multiplicative_identity_when_equal():
    f = multiplicative_field(3, 3, BUMP)
    assert f.lam == 0
    p = (0.01 + 0j, 0.02 + 0j)
    assert integrate_flow(f, p, 1e-2) == p


def test_multiplicative_zero_slope_rejected():
    with pytest.raises(DegenerateSlopeError):
        multiplicative_field(0, 2, BUMP)


def test_multiplicative_time_one_scales():
    f = multiplicative_field(1, 4, BUMP)
    end = integrate_flow(f, (0.01 + 0j, 0.01 + 0j), 1e-3)
    assert abs(end[0] - 0.01) < 1e-12
    assert abs(end[1] - 0.04) < 1e-9


def test_multiplicative_closed_form_interior():
    f = multiplicative_field(1, 2, BUMP)
    rng = random.Random(11)
    lam = math.log(2.0)
    for _ in range(100):
        p = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        end = integrate_flow(f, p, 1e-3)
        assert abs(end[0] - p[0]) < 1e-12
        assert abs(end[1] - p[1] * math.e ** lam) < 1e-9


def test_negative_ratio_uses_principal_log():
    f = multiplicative_field(1, -2, BUMP)
    assert f.lam.imag == pytest.approx(math.pi)
    end = integrate_flow(f, (0.1 + 0j, 0.1 + 0j), 1e-3)
    expected = 0.1 * cmath.exp(f.lam)
    assert abs(end[1] - expected) < 1e-9


# -- graph-match field ---------------------------------------------------------

def test_graph_match_zero_when_equal():
    s = S({1: 1, 2: -1})
    f = graph_match_field(s, s, BUMP)
    p = (0.2 + 0j, 0.3 + 0j)
    assert integrate_flow(f, p, 1e-2) == p


def test_graph_match_constant_translation():
    f = graph_match_field(S({0: 1}), S({0: 4}), BUMP)
    end = integrate_flow(f, (0j, 1 + 0j), 1e-3)
    assert abs(end[1] - 4.0) < 1e-9


def test_graph_match_moves_graph_pointwise():
    s1, s2 = S({1: 1}), S({1: 2, 2: 1})
    f = graph_match_field(s1, s2, BUMP)
    end = integrate_flow(f, (0.1 + 0j, 0.1 + 0j), 1e-3)
    assert abs(end[0] - 0.1) < 1e-12
    assert abs(end[1] - 0.21) < 1e-9


def test_graph_match_closed_form_linear_in_time():
    s1, s2 = S({1: 1}), S({1: 2, 2: 1})
    f = graph_match_field(s1, s2, BUMP)
    u = 0.25
    delta = s2.eval(u) - s1.eval(u)
    end = integrate_flow(f, (complex(u), 0.7 + 0j), 1e-3)
    assert abs(end[1] - (0.7 + delta)) < 1e-9


# -- gluing ---------------------------------------------------------------------

def test_outside_support_bit_identical():
    f = multiplicative_field(1, 2, BumpSpec(0.1, 0.2))
    p = (1.0 + 0j, 1.0 + 0j)
    assert integrate_flow(f, p, 1e-2) == p


def test_outside_support_trajectory_stays_outside():
    # radius can only change where the field is nonzero, so points beyond
    # r_outer never enter the support
    bump = BumpSpec(0.1, 0.2)
    f = multiplicative_field(1, 2, bump)
    rng = random.Random(3)
    for _ in range(25):
        z = cmath.exp(complex(0, rng.uniform(0, 2 * math.pi)))
        p = (0.3 * z, 0j)
        assert integrate_flow(f, p, 1e-2) == p


def test_axis_invariance_multiplicative():
    f = multiplicative_field(1, 3, BumpSpec(0.5, 1.0))
    # u = 0 axis
    end = integrate_flow(f, (0j, 0.2 + 0j), 1e-3)
    assert abs(end[0]) <= 1e-9
    # v = 0 axis (zero shear)
    end = integrate_flow(f, (0.2 + 0j, 0j), 1e-3)
    assert abs(end[1]) <= 1e-9


def test_sheared_multiplicative_keeps_labeled_axis():
    f = FieldSpec(kind="multiplicative", orientation="v", bump=BumpSpec(0.5, 1.0),
                  level=1, ratio=Fraction(2), shear=Fraction(1))
    end = integrate_flow(f, (0j, 0.2 + 0j), 1e-3)
    assert abs(end[0]) <= 1e-9  # {u = 0} invariant even with a shear


def test_time_reversal_returns_to_start():
    f = multiplicative_field(1, 3, BumpSpec(0.3, 0.6))
    back = multiplicative_field(3, 1, BumpSpec(0.3, 0.6))
    p = (0.25 + 0.05j, 0.33 - 0.02j)  # partially in the transition annulus
    fwd = integrate_flow(f, p, 1e-3)
    ret = integrate_flow(back, fwd, 1e-3)
    fwd_half = integrate_flow(f, p, 5e-4)
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
    with pytest.raises(LiftError):
        lift_point((("A", Fraction(0)),), (0j, 0j))


def test_lift_on_divisor_ill_conditioned():
    with pytest.raises(LiftError):
        lift_point((("A", Fraction(0)),), (0j, 0.5 + 0j))


@given(st.integers(0, 3),
       st.lists(st.sampled_from(["A", "B"]), min_size=0, max_size=4),
       st.floats(0.01, 0.5), st.floats(0.01, 0.5),
       st.floats(0.0, 2 * math.pi))
def test_lift_pushdown_roundtrip(tr, charts, r1, r2, phase):
    path = tuple((c, Fraction(tr if c == "A" else 0)) for c in charts)
    p = (complex(r1 * math.cos(phase), r1 * math.sin(phase)),
         complex(r2 * math.sin(phase), r2 * math.cos(phase)))
    try:
        q = lift_point(path, p)
    except LiftError:
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
        try:
            q = lift_point(path, p)
        except LiftError:
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
    assert f.s1 == f.s2


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
    assert apply_plan(plan, []) == []


def test_apply_plan_origin_fixed():
    g1 = parse_branch("x = t^2\ny = t^3")
    g2 = parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(g1, g2)
    assert apply_plan(plan, [(0j, 0j)]) == [(0j, 0j)]


def test_apply_plan_identity_within_tolerance():
    g = parse_branch("x = t^2\ny = t^3")
    plan = build_plan(g, g)
    pts = [(0.01 + 0j, 0.001 + 0j), (0.04 + 0j, 0.008 + 0j)]
    out = apply_plan(plan, pts)
    for p, q in zip(pts, out):
        assert abs(p[0] - q[0]) <= 1e-12
        assert abs(p[1] - q[1]) <= 1e-12


def test_divisor_probe_stays_on_axis():
    g1 = parse_branch("x = t^2\ny = t^3")
    g2 = parse_branch("x = t^2\ny = 2 t^3")
    plan = build_plan(g1, g2)
    stage = plan.stages[0]
    assert stage.u_label is not None and stage.v_label is not None
    bump = stage.field.bump
    for v in (0.1, 0.5 * bump.r_inner, 0.9 * bump.r_inner):
        end = integrate_flow(stage.field, (0j, complex(v)), 1e-3)
        assert abs(end[0]) <= 1e-9
        end = integrate_flow(stage.field, (complex(v), 0j), 1e-3)
        assert abs(end[1]) <= 1e-9


# -- end-to-end verification ---------------------------------------------------------

def run_pair(a, b, radius=0.05, tol=1e-3):
    g1, g2 = parse_branch(a), parse_branch(b)
    plan = build_plan(g1, g2, sample_radius=radius)
    return verify_isotopy(g1, g2, plan, n_samples=40, radius=radius, tol=tol, h=1e-3)


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


def test_verify_far_sample_saturates_implicit_distance():
    a = parse_branch("x = t^4\ny = 2 t^4 - 1/2 t^6 - t^9 - t^10").with_precision(32)
    b = parse_branch("x = t^4\ny = t^4 + t^6 + t^9 - t^11").with_precision(32)
    plan = build_plan(a, b, sample_radius=0.002, precision=32)
    rep = verify_isotopy(a, b, plan, n_samples=3, radius=0.002, h=0.05)
    assert not rep.passed
    assert [math.isinf(rec.dist_implicit) for rec in rep.records] == [False, False, True]


def test_richardson_estimate_small():
    rep = run_pair("x = t^2\ny = t^3", "x = t^2\ny = 2 t^3")
    assert rep.max_step_error < 1e-9
