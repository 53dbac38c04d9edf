import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import semigroup_elements
from test_plan_replay import FAMILIES, signed_members

from germflow import (char_exponents, delta_from_mult, dual_graph, equisingular, implicitize,
                      invariant_set, mult_seq_from_char, newton_puiseux, parse_branch, resolve,
                      semigroup)
from germflow.bivar import BivarPoly, poly_on_branch
from germflow.branch import Branch
from germflow.errors import PrecisionError, ResolutionError, SeriesError
from germflow.invariants import CharExponents, compare_dual_graphs
from germflow.series import TruncatedSeries


def S(terms, precision):
    return TruncatedSeries.from_terms({e: Fraction(c) for e, c in terms.items()}, precision)


def graph_verdict(a, b):
    """The dual-graph decider: both branches resolved, their graphs compared."""
    return compare_dual_graphs(dual_graph(resolve(a)), dual_graph(resolve(b)))


def test_char_exponents_cusp():
    c = char_exponents(parse_branch("x = t^2\ny = t^3"))
    assert (c.n, c.betas) == (2, (3,))


def test_char_exponents_two_pair():
    c = char_exponents(parse_branch("x = t^4\ny = t^6 + t^7"))
    assert (c.n, c.betas) == (4, (6, 7))


def test_char_exponents_smooth():
    c = char_exponents(parse_branch("x = t^1\ny = t^5"))
    assert (c.n, c.betas) == (1, ())


def test_char_exponents_skip_non_characteristic():
    c = char_exponents(parse_branch("x = t^4\ny = t^8 + t^6 + t^7"))
    assert (c.n, c.betas) == (4, (6, 7))


def test_char_exponents_invert_when_x_is_not_transversal():
    # ord y < n: the multiplicity is ord y (Zariski's inversion formula)
    c = char_exponents(parse_branch("x = t^5\ny = t^1 + t^3"))
    assert (c.n, c.betas) == (1, ())
    c = char_exponents(parse_branch("x = t^4\ny = t^2 + t^5"))
    assert (c.n, c.betas) == (2, (7,))
    c = char_exponents(parse_branch("x = t^6\ny = t^4 + t^5"))
    assert (c.n, c.betas) == (4, (6, 7))


def test_char_exponents_of_a_truncated_branch_need_the_gcd_to_reach_1():
    # t^4 + O(t^7), t^6 + O(t^7): the running gcd stops at 2, as the
    # resolution stops for want of precision
    b = Branch(S({4: 1}, 7), S({6: 1}, 7), exact=False)
    for read in (char_exponents, invariant_set, resolve):
        with pytest.raises(PrecisionError):
            read(b)


def test_char_exponents_of_a_truncated_branch_read_y_only_where_x_is_known():
    # x = t^4 + O(t^5), y = t^2 + t^5 + O(t^6): reparametrizing x to t^4 moves
    # y(t) from order 5 + 2 - 4 = 3 on, so t^5 is not a known exponent
    b = Branch(S({4: 1}, 5), S({2: 1, 5: 1}, 6), exact=False)
    for read in (char_exponents, resolve):
        with pytest.raises(PrecisionError):
            read(b)
    assert char_exponents(Branch(S({4: 1}, 8), S({2: 1, 5: 1}, 6), exact=False)) == \
        CharExponents(2, (7,))


def test_char_exponents_of_a_non_primitive_exact_branch_raise_as_the_resolution():
    b = Branch(S({4: 1}, 7), S({6: 1}, 7))
    for read in (char_exponents, invariant_set, resolve):
        with pytest.raises(ResolutionError,
                           match=r"^non-primitive parametrization \(gcd of exponents is 2\)$"):
            read(b)


@st.composite
def _low_ord_y_branches(draw):
    """x = t^n with 1 <= ord y < n, a primitive parametrization."""
    n = draw(st.integers(2, 8))
    exps = sorted({draw(st.integers(1, n - 1))}
                  | set(draw(st.lists(st.integers(n, 3 * n + 6), max_size=3))))
    assume(math.gcd(n, *exps) == 1)
    coefs = draw(st.lists(st.integers(-3, 3).filter(bool),
                          min_size=len(exps), max_size=len(exps)))
    y = " + ".join(f"{c} t^{e}" for c, e in zip(coefs, exps)).replace("+ -", "- ")
    return parse_branch(f"x = t^{n}\ny = {y}").with_precision(64)


@given(_low_ord_y_branches())
def test_char_exponents_of_low_ord_y_agree_with_the_blowup_engine(b):
    assert invariant_set(b).mult_seq == resolve(b).multiplicities()
    c = char_exponents(b)
    y = " + ".join(f"t^{beta}" for beta in c.betas) or "t^2"
    canonical = parse_branch(f"x = t^{c.n}\ny = {y}")
    assert equisingular(b, canonical).equal


def test_mult_seq_cusp():
    assert mult_seq_from_char(CharExponents(2, (3,))) == (2, 1, 1)


def test_mult_seq_smooth():
    assert mult_seq_from_char(CharExponents(1, ())) == (1,)


def test_mult_seq_two_pair():
    assert mult_seq_from_char(CharExponents(4, (6, 7))) == (4, 2, 2, 1, 1)


def test_mult_seq_swapped_parametrization():
    # (t^4, t^3) is the (3,4) cusp with axes swapped
    assert mult_seq_from_char(CharExponents(4, (3,))) == (3, 1, 1, 1)


def test_mult_seq_three_pairs_agrees_with_engine():
    b = parse_branch("x = t^8\ny = t^12 + t^14 + t^15").with_precision(96)
    assert mult_seq_from_char(char_exponents(b)) == resolve(b).multiplicities()


def test_semigroup_examples():
    assert semigroup(CharExponents(2, (3,))) == (2, 3)
    assert semigroup(CharExponents(1, ())) == (1,)
    assert semigroup(CharExponents(4, (6, 7))) == (4, 6, 13)


def test_semigroup_gap_count_is_delta():
    for c in [CharExponents(2, (3,)), CharExponents(4, (6, 7)),
              CharExponents(3, (5,)), CharExponents(8, (12, 14, 15))]:
        delta = delta_from_mult(mult_seq_from_char(c))
        gens = semigroup(c)
        elems = semigroup_elements(gens, 2 * delta + 1)
        gaps = [k for k in range(2 * delta) if k not in elems]
        assert len(gaps) == delta
        assert 2 * delta in semigroup_elements(gens, 2 * delta + 1) or delta == 0


def test_semigroup_against_valuation_orders(corpus):
    # orders of polynomials on the branch are semigroup members hit by x and y
    b = corpus["two_pair"]
    gens = semigroup(char_exponents(b))
    bound = 40
    elems = semigroup_elements(gens, bound)
    seen = set()
    probes = [
        BivarPoly.from_terms({(1, 0): Fraction(1)}),
        BivarPoly.from_terms({(0, 1): Fraction(1)}),
        BivarPoly.from_terms({(0, 2): Fraction(1), (3, 0): Fraction(-1)}),
        BivarPoly.from_terms({(1, 1): Fraction(1), (0, 2): Fraction(3)}),
        BivarPoly.from_terms({(2, 0): Fraction(1), (0, 1): Fraction(-1)}),
    ]
    for f in probes:
        o = poly_on_branch(f, b).order()
        if o is not None and o < bound:
            seen.add(o)
            assert o in elems
    assert gens[0] in seen and gens[1] in seen


def test_delta_mu_cusp():
    rd = resolve(parse_branch("x = t^2\ny = t^3").with_precision(64))
    delta = delta_from_mult(rd.multiplicities())
    assert (delta, 2 * delta) == (1, 2)


def test_delta_mu_smooth():
    rd = resolve(parse_branch("x = t^1\ny = t^1").with_precision(64))
    delta = delta_from_mult(rd.multiplicities())
    assert (delta, 2 * delta) == (0, 0)


def test_delta_two_paths_agree(corpus):
    for b in corpus.values():
        engine = delta_from_mult(resolve(b).multiplicities())
        euclid = delta_from_mult(mult_seq_from_char(char_exponents(b)))
        assert engine == euclid


def test_equisingular_true_pair(corpus):
    v = equisingular(corpus["cusp"], corpus["cusp_t4"])
    assert v.equal
    assert "identical" in v.certificate


def test_equisingular_false_pair(corpus):
    v = equisingular(corpus["cusp"], corpus["two_pair"])
    assert not v.equal
    assert v.certificate == "r differs (3 vs 5)"


def test_equisingular_same_r_different_weights(corpus):
    v = equisingular(corpus["e34"], corpus["e35"])
    assert not v.equal
    assert "weights differ" in v.certificate


def test_equisingular_reflexive(corpus):
    for b in corpus.values():
        assert equisingular(b, b).equal


def test_equisingular_is_equivalence_relation(corpus):
    names = sorted(corpus)
    verdicts = {(a, b): equisingular(corpus[a], corpus[b]).equal
                for a in names for b in names}
    for a in names:
        assert verdicts[(a, a)]
    for a, b in itertools.product(names, names):
        assert verdicts[(a, b)] == verdicts[(b, a)]
    for a, b, c in itertools.product(names, names, names):
        if verdicts[(a, b)] and verdicts[(b, c)]:
            assert verdicts[(a, c)]


def test_three_way_equivalence(corpus):
    # dual graphs equal <=> multiplicity sequences equal <=> char exponents equal
    names = sorted(corpus)
    for a, b in itertools.combinations(names, 2):
        ba, bb = corpus[a], corpus[b]
        graphs_equal = graph_verdict(ba, bb).equal
        mult_equal = (mult_seq_from_char(char_exponents(ba))
                      == mult_seq_from_char(char_exponents(bb)))
        char_equal = char_exponents(ba) == char_exponents(bb)
        assert graphs_equal == mult_equal == char_equal


def test_milnor_is_twice_delta(corpus):
    for b in corpus.values():
        inv = invariant_set(b)
        assert inv.milnor == 2 * inv.delta
        smooth = all(m == 1 for m in resolve(b).multiplicities())
        assert (inv.delta == 0) == smooth


@st.composite
def _decided_pairs(draw):
    """Two branches, each a member of one shared family, a member of any
    family or a branch with ord y < ord x.  Each may be replaced by a
    Newton-Puiseux round trip, a truncated branch: y(t) gains a term past
    its others and past t^n, and the precision cuts it away."""
    family = draw(st.sampled_from(FAMILIES))
    pair = []
    for _ in range(2):
        b = draw(st.one_of(signed_members(family),
                           st.sampled_from(FAMILIES).flatmap(signed_members),
                           _low_ord_y_branches()))
        if draw(st.booleans()):
            top = max(b.n, b.ys.support()[-1])
            tail = top + draw(st.integers(1, 4))
            ys = b.ys.add(S({tail: draw(st.integers(-3, 3).filter(bool))}, b.ys.precision))
            b = newton_puiseux(implicitize(Branch(b.xs, ys)), draw(st.integers(top + 1, tail)))
            assert not b.exact
        pair.append(b)
    return pair


@given(_decided_pairs())
def test_exponents_decide_as_the_dual_graphs_do(pair):
    try:
        graphs = graph_verdict(*pair)
    except PrecisionError:
        with pytest.raises(PrecisionError):
            equisingular(*pair)
        return
    assert equisingular(*pair) == graphs


def test_equisingular_falls_back_to_dual_graphs_when_x_is_not_a_monomial(corpus):
    # x = 2 t^2 and x = t^2 + t^3 reach the dual graphs: there are no exponents to read
    twice = Branch(S({2: 2}, 8), S({3: 1}, 8))
    bent = Branch(S({2: 1, 3: 1}, 8), S({5: 1}, 8))
    with pytest.raises(SeriesError):
        char_exponents(twice)
    assert equisingular(twice, corpus["cusp"]) == graph_verdict(twice, corpus["cusp"])
    assert equisingular(twice, corpus["cusp"]).equal
    assert equisingular(corpus["cusp"], bent) == graph_verdict(corpus["cusp"], bent)
    assert equisingular(corpus["cusp"], bent).certificate == "r differs (3 vs 4)"
