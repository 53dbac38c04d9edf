import os
import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import chart_blowup_step, chart_step, proximity_matrix

from germflow import (char_exponents, implicitize, mult_seq_from_char, newton_puiseux,
                      parse_branch, resolution, resolve)
from germflow.branch import MAX_PRECISION, Branch
from germflow.errors import PrecisionError, ResolutionError, SeriesError
from germflow.resolution import (INF, ChartState, apply_step, blowup_step, dual_graph,
                                 initial_state, is_terminal, state_slope, swapped)
from germflow.series import TruncatedSeries

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "germbench"))
import gen  # noqa: E402  (the benchmark's branch families)


def S(terms, precision=32):
    return TruncatedSeries.from_terms({e: Fraction(c) for e, c in terms.items()}, precision)


def test_blowup_cusp_first_step():
    state = ChartState(S({2: 1}), S({3: 1}))
    new, rec = blowup_step(state)
    assert rec.chart == "A"
    assert rec.multiplicity == 2
    assert rec.translation == 0
    assert new.ys.as_dict() == {1: Fraction(1)}
    assert new.u_label == 1 and new.v_label is None


def test_blowup_chart_b_keeps_u_label():
    state = ChartState(S({2: 1}), S({1: 1}), u_label=1, level=1)
    new, rec = blowup_step(state)
    assert rec.chart == "B"
    assert rec.multiplicity == 1
    assert new.u_label == 1 and new.v_label == 2
    assert new.xs.as_dict() == {1: Fraction(1)}


def test_blowup_translation_recenters():
    state = ChartState(S({1: 1}), S({1: 1, 2: 1}))
    new, rec = blowup_step(state)
    assert rec.chart == "A"
    assert rec.translation == 1
    assert new.ys.as_dict() == {1: Fraction(1)}
    assert new.v_label is None  # label dropped after a nonzero translation


@pytest.mark.parametrize("chart", ["A", "B"])
def test_apply_step_rejects_a_translation_off_the_branch(chart):
    # the cusp's tangent is v = 0 (chart A) and, swapped, u = 0 (chart B)
    xs, ys = (S({2: 1}), S({3: 1})) if chart == "A" else (S({3: 1}), S({2: 1}))
    with pytest.raises(ResolutionError):
        apply_step(ChartState(xs, ys), chart, Fraction(5))


def test_resolve_cusp():
    rd = resolve(parse_branch("x = t^2\ny = t^3").with_precision(64))
    assert rd.r == 3
    assert rd.multiplicities() == (2, 1, 1)
    assert [s.proximate_to for s in rd.steps] == [(), (1,), (1, 2)]
    assert [s.satellite for s in rd.steps] == [False, False, True]


def test_resolve_smooth_line():
    rd = resolve(parse_branch("x = t^1\ny = t^1").with_precision(64))
    assert rd.r == 1
    assert rd.multiplicities() == (1,)


def test_resolve_two_pair():
    rd = resolve(parse_branch("x = t^4\ny = t^6 + t^7").with_precision(64))
    assert rd.multiplicities() == (4, 2, 2, 1, 1)
    assert [s.proximate_to for s in rd.steps] == [(), (1,), (1, 2), (3,), (3, 4)]


def test_resolve_default_parse_precision_suffices_for_cusp():
    rd = resolve(parse_branch("x = t^2\ny = t^3"))
    assert rd.r == 3


def test_resolve_exhausted_precision_raises():
    b = parse_branch("x = t^2\ny = t^3")
    truncated = Branch(b.xs.truncate(3), b.ys.truncate(3), b.label, exact=False)
    with pytest.raises(PrecisionError):
        resolve(truncated)


def test_resolve_max_steps_guard(monkeypatch):
    # the bound cannot be reached (every blowup lowers a truncation order),
    # so only a lowered bound shows the guard
    monkeypatch.setattr(resolution, "_blowup_bound", lambda state: 2)
    with pytest.raises(ResolutionError, match="no termination within 2 blowups"):
        resolve(parse_branch("x = t^2\ny = t^5").with_precision(64))


@pytest.mark.parametrize("text, r", [("x = t^2\ny = t^129", 66), ("x = t^2\ny = t^255", 129),
                                     ("x = t^254\ny = t^255", 255)])
def test_resolve_long_resolutions(text, r):
    # a fixed cap of 64 blowups once refused the first of these
    rd = resolve(parse_branch(text))
    assert rd.r == r and rd.multiplicities()[-1] == 1


def test_dual_graph_cusp():
    g = dual_graph(resolve(parse_branch("x = t^2\ny = t^3").with_precision(64)))
    assert g.vertices == ((1, -3), (2, -2), (3, -1))
    assert g.edges == ((1, 3), (2, 3))
    assert g.arrow == 3


def test_dual_graph_smooth():
    g = dual_graph(resolve(parse_branch("x = t^1\ny = t^1").with_precision(64)))
    assert g.vertices == ((1, -1),)
    assert g.edges == ()
    assert g.arrow == 1


def test_proximity_matrix_cusp():
    p = proximity_matrix(resolve(parse_branch("x = t^2\ny = t^3").with_precision(64)))
    assert p == [[1, 0, 0], [-1, 1, 0], [-1, -1, 1]]


def test_proximity_matrix_smooth():
    p = proximity_matrix(resolve(parse_branch("x = t^1\ny = t^1").with_precision(64)))
    assert p == [[1]]


@pytest.fixture(scope="module")
def corpus_resolutions(request):
    corpus = request.getfixturevalue("corpus")
    return {name: resolve(b) for name, b in corpus.items()}


def test_swapped_is_an_involution_that_inverts_the_slope(corpus, corpus_resolutions):
    for name, rd in corpus_resolutions.items():
        states = [initial_state(corpus[name])]
        for chart, c in rd.chart_path:
            states.append(apply_step(states[-1], chart, c))
        # replayed at full precision, each state carries the proximities its step recorded
        assert [s.labels() for s in states[:-1]] == [rec.proximate_to for rec in rd.steps]
        assert is_terminal(states[-1]) and states[-1].labels() == (rd.r,)
        for state in states:
            t = swapped(state)
            assert (t.xs, t.ys, t.u_label, t.v_label, t.level) == (
                state.ys, state.xs, state.v_label, state.u_label, state.level)
            assert swapped(t) == state
            slope, back = state_slope(state), state_slope(t)
            assert (slope, back) in ((0, INF), (INF, 0)) or slope * back == 1


def test_multiplicities_non_increasing_end_in_one(corpus_resolutions):
    for rd in corpus_resolutions.values():
        ms = rd.multiplicities()
        assert all(a >= b for a, b in zip(ms, ms[1:]))
        assert ms[-1] == 1


def test_tree_property(corpus_resolutions):
    for rd in corpus_resolutions.values():
        g = dual_graph(rd)
        assert len(g.vertices) == len(g.edges) + 1


def test_unique_minus_one_carries_arrow(corpus_resolutions):
    for rd in corpus_resolutions.values():
        g = dual_graph(rd)
        minus_one = [i for i, w in g.vertices if w == -1]
        assert minus_one == [g.arrow]


def test_proximity_row_structure(corpus_resolutions):
    for rd in corpus_resolutions.values():
        mat = proximity_matrix(rd)
        for row in mat[1:]:
            assert 1 <= sum(1 for v in row if v == -1) <= 2


def test_proximity_equality(corpus_resolutions):
    # m_i = sum of m_j over the centres proximate to p_i, whenever any exist
    for rd in corpus_resolutions.values():
        ms = rd.multiplicities()
        for i in range(1, rd.r + 1):
            later = [rec.multiplicity for rec in rd.steps if i in rec.proximate_to]
            if later:
                assert ms[i - 1] == sum(later)


def test_transposed_proximity_matrix_times_mult_is_unit_vector(corpus_resolutions):
    # row i of P^T m is m_i - sum of multiplicities proximate to p_i
    for rd in corpus_resolutions.values():
        mat = proximity_matrix(rd)
        ms = rd.multiplicities()
        prod = [sum(mat[j][i] * ms[j] for j in range(rd.r)) for i in range(rd.r)]
        assert prod == [0] * (rd.r - 1) + [1]


def test_dual_graph_matches_intersection_matrix_oracle(corpus_resolutions):
    # independent oracle: the intersection matrix of the exceptional
    # components is -P^T P for the proximity matrix P; its diagonal gives the
    # self-intersections and the unit off-diagonal entries give the edges
    for rd in corpus_resolutions.values():
        p = proximity_matrix(rd)
        r = rd.r
        n = [[-sum(p[k][i] * p[k][j] for k in range(r)) for j in range(r)]
             for i in range(r)]
        g = dual_graph(rd)
        assert [w for _, w in g.vertices] == [n[i][i] for i in range(r)]
        oracle_edges = tuple(sorted((i + 1, j + 1)
                                    for i in range(r) for j in range(i + 1, r)
                                    if n[i][j] == 1))
        assert all(n[i][j] in (0, 1) for i in range(r) for j in range(i + 1, r))
        assert g.edges == oracle_edges


def test_resolve_invariant_under_t_flip(corpus):
    for b in corpus.values():
        rd1 = resolve(b)
        rd2 = resolve(Branch(b.xs.flip(), b.ys.flip(), b.label, b.exact))
        assert rd1.steps == rd2.steps


@st.composite
def random_branches(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    exps = draw(st.lists(st.integers(n + 1, 12), min_size=k, max_size=k, unique=True))
    coeffs = draw(st.lists(st.sampled_from([1, -1, 2, 3, Fraction(1, 2)]),
                           min_size=k, max_size=k))
    terms = dict(zip(exps, coeffs))
    if gcd(n, *terms) != 1:
        terms[max(exps) + 1] = 1
    return Branch(TruncatedSeries.monomial(n, 1, 64),
                  TruncatedSeries.from_terms({e: Fraction(c) for e, c in terms.items()}, 64))


@given(random_branches())
def test_resolve_terminates_on_random_branches(b):
    rd = resolve(b)
    assert rd.r >= 1
    ms = rd.multiplicities()
    assert all(a >= c for a, c in zip(ms, ms[1:]))
    g = dual_graph(rd)
    assert len(g.vertices) == len(g.edges) + 1
    # intersection-matrix oracle on random structures
    p = proximity_matrix(rd)
    r = rd.r
    diag = [-sum(p[k][i] * p[k][i] for k in range(r)) for i in range(r)]
    assert [w for _, w in g.vertices] == diag


@given(random_branches())
def test_random_branch_engine_agrees_with_euclid(b):
    from germflow import char_exponents, mult_seq_from_char
    assert resolve(b).multiplicities() == mult_seq_from_char(char_exponents(b))


def test_initial_state_of_a_truncated_branch_with_vanishing_x_needs_precision():
    b = Branch(TruncatedSeries.zero(3), S({1: 1}, 3), exact=False)
    with pytest.raises(PrecisionError, match="x\\(t\\) is zero up to the truncation order"):
        initial_state(b)


def test_truncated_branch_with_vanishing_y_passes_initial_state_and_needs_precision():
    # ord y >= 3 passes through the origin; x = t^2 needs y's next terms
    b = Branch(S({2: 1}, 3), TruncatedSeries.zero(3), exact=False)
    assert initial_state(b) == ChartState(b.xs, b.ys)
    with pytest.raises(PrecisionError):
        resolve(b)


def test_initial_state_of_an_exact_branch_with_vanishing_x_is_the_y_axis():
    b = Branch(TruncatedSeries.zero(3), S({1: 1}, 3))
    assert initial_state(b) == ChartState(b.xs, b.ys)
    rd = resolve(b)
    assert (rd.r, rd.chart_path) == (1, (("B", 0),))
    mirror = resolve(Branch(S({1: 1}, 3), TruncatedSeries.zero(3)))
    assert (mirror.r, mirror.chart_path) == (1, (("A", 0),))


@pytest.mark.parametrize("x, y, message", [
    ({}, {}, "both coordinates vanish identically"),  # no exponents: gcd 0
    ({2: 1}, {}, "non-primitive parametrization (gcd of exponents is 2)"),
    ({}, {2: 1}, "non-primitive parametrization (gcd of exponents is 2)"),
    ({2: 1}, {4: 1}, "non-primitive parametrization (gcd of exponents is 2)"),
    ({3: 1}, {6: 2, 9: -1}, "non-primitive parametrization (gcd of exponents is 3)"),
], ids=["0-0", "t2-0", "0-t2", "t2-t4", "t3-t6-t9"])
def test_resolve_refuses_an_exact_branch_whose_exponents_have_a_gcd_other_than_1(x, y, message):
    with pytest.raises(ResolutionError, match=f"^{re.escape(message)}$"):
        resolve(Branch(S(x, 64), S(y, 64)))


def _outcome(fn, b):
    try:
        return fn(b).steps
    except (PrecisionError, ResolutionError) as exc:
        return type(exc), str(exc)


_COEFFICIENTS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(9973, 7919)]


@st.composite
def family_branches(draw):
    """x = t^n, y(t) in the benchmark's family shapes (n <= 6, one or two
    characteristic pairs, free terms that keep the characteristic), exact or
    as the newton_puiseux expansion of its implicit equation, whose lower
    precisions give truncated branches."""
    n = draw(st.integers(2, 6))
    betas = [draw(st.integers(n + 1, 3 * n).filter(lambda b: b % n))]
    chain = [n, gcd(n, betas[0])]
    if chain[-1] > 1:  # a second pair brings the gcd down to 1
        betas.append(draw(st.integers(betas[0] + 1, betas[0] + 2 * n)
                          .filter(lambda b: gcd(chain[-1], b) == 1)))
        chain.append(1)
    free = list(range(n, betas[0], n))
    for beta, top, e in zip(betas, betas[1:] + [betas[-1] + 4], chain[1:]):
        free += [x for x in range(beta + 1, top) if x % e == 0]
    extra = draw(st.lists(st.sampled_from(free), max_size=2, unique=True)) if free else []
    exps = sorted(betas + extra)
    coeffs = draw(st.lists(st.sampled_from(_COEFFICIENTS), min_size=len(exps),
                           max_size=len(exps)))
    p = exps[-1] + 1
    b = Branch(TruncatedSeries.monomial(n, 1, p),
               TruncatedSeries.from_terms(dict(zip(exps, coeffs)), p))
    if draw(st.booleans()):
        return b
    return newton_puiseux(implicitize(b), draw(st.integers(betas[-1] + 1, p + 1)))


@given(family_branches())
def test_resolve_equals_one_full_precision_walk(b):
    h = b.with_precision(64) if b.exact else b
    assert _outcome(resolve, h) == _outcome(resolution._walk, h)


def _recording_cuts(monkeypatch):
    cuts = []
    walk = resolution._walk

    def recording(b):
        cuts.append(max(b.xs.precision, b.ys.precision))
        return walk(b)
    monkeypatch.setattr(resolution, "_walk", recording)
    return cuts


@pytest.mark.parametrize("b, cuts", [
    # the first cut, 2 (ord x + 1), drops t^7; the second keeps it
    (parse_branch("x = t^2\ny = t^7").with_precision(64), [6, 12]),
    (parse_branch("x = t^4\ny = t^6 + t^7 + 2 t^9").with_precision(64), [10]),
], ids=["t2-t7", "t4-t6-t7-t9"])
def test_resolve_doubles_the_cut_until_the_resolution_completes(monkeypatch, b, cuts):
    full = resolution._walk(b)
    tried = _recording_cuts(monkeypatch)
    assert resolve(b) == full
    assert tried == cuts


def test_resolve_raises_what_the_whole_branch_raises(monkeypatch):
    # y = 0 truncated at t^9: no cut, nor the whole branch, resolves it
    b = Branch(S({2: 1}, 9), TruncatedSeries.zero(9), exact=False)
    with pytest.raises(PrecisionError) as full:
        resolution._walk(b)
    tried = _recording_cuts(monkeypatch)
    with pytest.raises(PrecisionError) as cut:
        resolve(b)
    assert (type(cut.value), str(cut.value)) == (type(full.value), str(full.value))
    assert tried == [6, 9]


@pytest.mark.parametrize("text, cuts, r", [
    # known to order 74 in the file; the 37th blowup needs more
    ("x = t^6\ny = t^2 + 7 t^73", [14, 28, 56, 112], 40),
    # no order up to the ceiling decides this one: the walk's own error
    ("x = t^8\ny = t^2 + t^253", [18, 36, 72, 144, MAX_PRECISION], None),
], ids=["order-74", "order-254"])
def test_an_exact_branch_is_cut_up_to_the_ceiling(monkeypatch, text, cuts, r):
    b = parse_branch(text)
    full = _outcome(resolution._walk, b.with_precision(MAX_PRECISION))
    tried = _recording_cuts(monkeypatch)
    assert _outcome(resolve, b) == full
    assert tried == cuts and max(tried) <= MAX_PRECISION
    if r is None:
        assert full == (PrecisionError, "cannot decide the tangent direction at this precision")
    else:
        assert len(full) == r


@st.composite
def exact_branches(draw):
    """Exact primitive branches: members of the benchmark's families
    (germbench/gen.py), and y = t^m + c t^e with m < ord x and e up to the
    ceiling, whose resolution reads far beyond the order of its first terms."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        beta = draw(st.integers(n + 1, 3 * n).filter(lambda b: b % n))
        betas = [beta]
        if gcd(n, beta) > 1:  # a second pair brings the gcd down to 1
            betas.append(draw(st.integers(beta + 1, beta + 2 * n)
                              .filter(lambda b: gcd(n, beta, b) == 1)))
        free = gen.free_choice(n, betas, draw(st.integers(0, 2)), draw(st.integers(0, 99)))
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        return parse_branch(gen.branch(rng, n, betas, free, height=4))
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, n - 1))
    e = draw(st.integers(n + 1, MAX_PRECISION - 1).filter(lambda e: gcd(n, m, e) == 1))
    c = Fraction(draw(st.sampled_from(_COEFFICIENTS)))
    return parse_branch(gen.branch_text(n, {m: Fraction(1), e: c}))


@settings(max_examples=60)
@given(exact_branches())
def test_an_exact_branch_resolves_as_its_walk_at_the_ceiling(b):
    full = _outcome(resolution._walk, b.with_precision(MAX_PRECISION))
    assert _outcome(resolve, b) == full
    if full[0] is not PrecisionError:  # the walk completed
        assert tuple(step.multiplicity for step in full) == \
            mult_seq_from_char(char_exponents(b))


_CHART_COEFFICIENTS = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


@st.composite
def chart_series(draw):
    """A chart coordinate: zero, a monomial or a dense series of order 0-4,
    with leads of either sign, to precision 1-14."""
    precision = draw(st.integers(1, 14))
    # weighted away from zero, which every chart step refuses as a divisor
    kind = draw(st.sampled_from(["zero", "monomial", "monomial", "dense", "dense", "dense"]))
    if kind == "zero":
        return TruncatedSeries.zero(precision)
    order = draw(st.integers(0, min(4, precision - 1)))
    terms = {order: draw(_CHART_COEFFICIENTS)}
    if kind == "dense":
        for e in range(order + 1, precision + 2):  # a term past the precision is cut
            terms[e] = draw(st.one_of(st.just(0), _CHART_COEFFICIENTS))
    return S(terms, precision)


@st.composite
def chart_states(draw):
    level = draw(st.integers(0, 3))
    label = st.one_of(st.none(), st.integers(1, level)) if level else st.none()
    return ChartState(draw(chart_series()), draw(chart_series()), draw(label), draw(label),
                      level)


def _step_outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionError, ResolutionError, SeriesError) as exc:
        return type(exc), str(exc)


@st.composite
def translations(draw, state, chart):
    """0, the translation that recentres the step (the quotient's constant
    term, when there is one), or any other rational."""
    kind = draw(st.sampled_from(["zero", "centre", "other"]))
    if kind == "zero":
        return Fraction(0)
    if kind == "other":
        return draw(_CHART_COEFFICIENTS)
    fixed, moving = (state.ys, state.xs) if chart == "B" else (state.xs, state.ys)
    try:
        return moving.divide(fixed).as_dict().get(0, Fraction(0))
    except (PrecisionError, SeriesError):
        return Fraction(0)


def _chart_case(xs, ys, chart, c, u_label=None, v_label=None):
    return ChartState(S(xs, 8), S(ys, 8), u_label, v_label, 1), chart, Fraction(c)


@settings(max_examples=200)
@given(st.tuples(chart_states(), st.sampled_from("AB")).flatmap(
    lambda sc: st.tuples(st.just(sc[0]), st.just(sc[1]), translations(*sc))))
@example(_chart_case({2: 1}, {}, "B", 0))  # zero divisor
@example(_chart_case({2: 1}, {3: 1}, "B", 0))  # orders
@example((ChartState(S({1: 1}, 8), S({1: 1}, 1)), "A", Fraction(1)))  # no precision left
@example(_chart_case({2: 1}, {3: 1}, "A", 5))  # translation
@example(_chart_case({2: -3}, {}, "A", 0))  # zero moving coordinate
@example(_chart_case({2: 4, 3: -1}, {2: -6, 5: 2}, "A", Fraction(-3, 2)))  # dense, recentred
@example(_chart_case({2: 3, 3: 1}, {2: -2}, "B", Fraction(-3, 2), 1, 1))  # recentred
def test_apply_step_matches_the_two_pass_chart_step(case):
    # the same state, or the same error type and message
    state, chart, c = case
    assert _step_outcome(apply_step, state, chart, c) == _step_outcome(chart_step, state,
                                                                       chart, c)


@settings(max_examples=200)
@given(chart_states())
@example(ChartState(TruncatedSeries.zero(5), TruncatedSeries.zero(5)))  # degenerate
@example(ChartState(S({2: 1}, 5), S({}, 1)))  # cannot compare orders
@example(ChartState(S({2: 1}, 5), S({}, 3)))  # cannot decide the tangent
@example(ChartState(S({}, 2), S({2: 1}, 5)))  # the same, along {u = 0}
@example(ChartState(S({2: -4, 3: 1}, 9), S({2: 6, 4: -1}, 9), 1, None, 1))
def test_blowup_step_matches_the_two_pass_chart_step(state):
    assert _step_outcome(blowup_step, state) == _step_outcome(chart_blowup_step, state)
