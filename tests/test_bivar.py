import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (as_dict, float_eval, float_grad, implicit_saturates_by_products, leading,
                     poly_on_branch_by_terms, scale, sylvester_oracle)

from germflow import (Branch, BivarPoly, implicitize, parse_branch, parse_poly,
                      poly_on_branch, poly_to_text)
from germflow.bivar import _saturates
from germflow.branch import eval_branch
from germflow.errors import ParseError, SeriesError
from germflow.series import TruncatedSeries


def to_sympy(f):
    x, y = sympy.symbols("x y")
    return sum(sympy.Rational(c.numerator, c.denominator) * x ** a * y ** b
               for (a, b), c in f.terms)


def sympy_resultant_oracle(b):
    """Independent computer-algebra resultant of (t^n - x, y - y(t))."""
    x, y, t = sympy.symbols("x y t")
    yt = sum(sympy.Rational(c.numerator, c.denominator) * t ** e for e, c in b.ys.terms)
    return sympy.expand(sympy.resultant(t ** b.n - x, y - yt, t))


def test_cusp_implicit_equation():
    f = implicitize(parse_branch("x = t^2\ny = t^3"))
    assert poly_to_text(f) == "f = y^2 - x^3"


def test_line_implicit_equation():
    f = implicitize(parse_branch("x = t^1\ny = t^1"))
    assert poly_to_text(f) == "f = y - x"


def test_cusp_t4_implicit_equation():
    # oracle value: (y - x^2)^2 - x^3
    f = implicitize(parse_branch("x = t^2\ny = t^3 + t^4"))
    assert poly_to_text(f) == "f = y^2 - 2*x^2y + x^4 - x^3"


def test_non_monomial_x_rejected():
    bad = Branch(xs=TruncatedSeries.from_terms({2: Fraction(2)}, 6),
                 ys=TruncatedSeries.from_terms({3: Fraction(1)}, 6))
    with pytest.raises(SeriesError):
        implicitize(bad)


@pytest.mark.parametrize("name", ["cusp", "cusp_t4", "cusp_2t3", "e25", "e25_shift",
                                  "two_pair", "e34", "e35", "diag", "parabola"])
def test_implicitize_matches_sympy_oracle(name, corpus):
    b = corpus[name]
    mine = sympy.expand(to_sympy(implicitize(b)))
    oracle = sympy_resultant_oracle(b)
    # equal up to the content/sign normalization, i.e. a nonzero rational factor
    ratio = sympy.cancel(oracle / mine)
    assert ratio.is_Rational and ratio != 0


coefficients = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.fractions(min_value=-10 ** 4, max_value=10 ** 4, max_denominator=10 ** 4),
).filter(lambda c: c != 0)


@st.composite
def family_members(draw):
    """x = t^n, y = a signed member of a family (n; betas) with at most two
    characteristic pairs, plus free terms that keep the gcd chain."""
    n = draw(st.sampled_from([1, 2, 3, 4, 6]))
    betas, chain = [], [n]
    while chain[-1] > 1:
        lo = betas[-1] + 1 if betas else n + 1
        beta = draw(st.integers(lo, lo + n).filter(lambda b: b % chain[-1]))
        betas.append(beta)
        chain.append(math.gcd(chain[-1], beta))
    # a free exponent past beta_1 .. beta_k is a multiple of chain[k]
    free = [e for e in range(n, (betas[-1] if betas else n) + 4)
            if e not in betas and e % chain[sum(b < e for b in betas)] == 0]
    free = draw(st.lists(st.sampled_from(free), max_size=3, unique=True))
    exps = sorted(betas + free) or [draw(st.integers(1, 4))]
    terms = {e: draw(coefficients) for e in exps}
    return Branch(TruncatedSeries.monomial(n, 1, 64), TruncatedSeries.from_terms(terms, 64))


@settings(max_examples=80)
@given(family_members())
def test_implicitize_equals_normalized_sylvester_oracle(b):
    assert implicitize(b) == sylvester_oracle(b).normalized()


@pytest.mark.parametrize("name", ["cusp", "cusp_t4", "two_pair", "e34"])
def test_implicit_vanishes_on_branch(name, corpus):
    b = corpus[name]
    f = implicitize(b)
    rng = random.Random(7)
    scale = max(abs(float(c)) for _, c in f.terms)
    for _ in range(100):
        t = complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        x, y = eval_branch(b, t)
        assert abs(float_eval(f, x, y)) <= 1e-12 * scale


def test_poly_on_branch_valuation():
    b = parse_branch("x = t^2\ny = t^3").with_precision(32)
    f = parse_poly("f = y^2 - x^3")
    assert poly_on_branch(f, b).is_zero()
    g = parse_poly("f = x")
    assert poly_on_branch(g, b).order() == 2


small = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def poly_branch_pairs(draw):
    """(f, b): b has x = t^n (n <= 6) and y-precision independent of x's;
    f is zero or an arbitrary polynomial, off the curve, with y-degree gaps."""
    n = draw(st.integers(1, 6))
    xs = TruncatedSeries.monomial(n, 1, draw(st.integers(n + 1, n + 30)))
    ty = draw(st.integers(1, 40))
    ys = TruncatedSeries.from_terms(
        draw(st.dictionaries(st.integers(0, ty + 3), small, max_size=6)), ty)
    f = BivarPoly.from_terms(draw(st.dictionaries(
        st.tuples(st.integers(0, 8), st.integers(0, 7)), small, max_size=8)))
    return f, Branch(xs, ys)


@settings(max_examples=300)
@given(poly_branch_pairs())
def test_poly_on_branch_equals_the_term_by_term_reference(pair):
    f, b = pair
    got, want = poly_on_branch(f, b), poly_on_branch_by_terms(f, b)
    assert (got.terms, got.precision) == (want.terms, want.precision)


@pytest.mark.parametrize("xs", [{2: 2}, {2: 1, 3: 1}, {}], ids=["2t2", "t2+t3", "zero"])
def test_poly_on_branch_refuses_a_non_monomial_x(xs):
    b = Branch(TruncatedSeries.from_terms(xs, 6), TruncatedSeries.monomial(3, 1, 6))
    with pytest.raises(SeriesError, match="poly_on_branch requires x to be the monomial t"):
        poly_on_branch(parse_poly("f = y^2 - x^3"), b)


def test_zero_polynomial_has_no_leading_term():
    # a typed error, as TruncatedSeries.leading raises for the zero series
    assert leading(BivarPoly.from_terms({(1, 1): Fraction(1, 2)})) == ((1, 1), Fraction(1, 2))
    with pytest.raises(SeriesError, match="zero polynomial has no leading term"):
        leading(parse_poly("f = x - x"))


def _lex(item):
    (a, b), _ = item
    return (b, a)


def _assert_canonical(f):
    """den > 0, no zero numerator, gcd(den, *numerators) = 1, keys distinct
    and in lex order (y > x)."""
    keys, nums = [k for k, _ in f.num], [c for _, c in f.num]
    assert f.den > 0 and all(nums) and math.gcd(f.den, *nums) == 1
    assert keys == sorted(set(keys), key=lambda k: (k[1], k[0]))


NONZERO = small.filter(lambda c: c != 0)


@settings(max_examples=300)
@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), small, max_size=8),
       NONZERO, st.lists(NONZERO, min_size=8, max_size=8))
def test_from_terms_is_canonical(terms, c, parts):
    f = BivarPoly.from_terms(terms)
    _assert_canonical(f)
    assert f.terms == tuple(sorted(((k, Fraction(v)) for k, v in terms.items() if v), key=_lex))
    # the same polynomial over another denominator, rescaled back, and with zero terms
    g = BivarPoly.from_terms({k: v * c for k, v in terms.items()})
    _assert_canonical(g)
    assert scale(g, 1 / c) == f and scale(f, c) == g and hash(scale(g, 1 / c)) == hash(f)
    assert BivarPoly.from_terms({**terms, (7, 7): 0}) == f
    # duplicate keys: each coefficient written as two terms that the parser sums
    summands = [(k, q) for (k, v), part in zip(terms.items(), parts) for q in (part, v - part)]
    text = "".join(f" {'-' if q < 0 else '+'} {abs(q.numerator)}/{q.denominator}*x^{a}y^{b}"
                   for (a, b), q in summands)
    assert parse_poly(f"f = {text.removeprefix(' +') or 0}") == f


def test_poly_text_roundtrip():
    f = implicitize(parse_branch("x = t^2\ny = t^3 + t^4"))
    assert parse_poly(poly_to_text(f)) == f


def test_negative_leading_unit_term_roundtrip():
    f = BivarPoly.from_terms({(3, 2): Fraction(-1), (0, 1): Fraction(2)})
    assert poly_to_text(f) == "f = -1*x^3y^2 + 2*y"
    assert parse_poly(poly_to_text(f)) == f


def test_poly_text_prints_each_coefficient_in_lowest_terms():
    f = BivarPoly.from_terms({(1, 0): Fraction(2, 4), (0, 1): Fraction(-3, 6),
                              (0, 0): Fraction(1, 3)})
    assert (f.num, f.den) == ((((0, 0), 2), ((1, 0), 3), ((0, 1), -3)), 6)
    assert poly_to_text(f) == "f = -1/2*y + 1/2*x + 1/3"


def test_poly_text_roundtrip_random():
    rng = random.Random(11)
    for _ in range(300):
        f = BivarPoly.from_terms({(rng.randint(0, 5), rng.randint(0, 5)):
                                  Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                  for _ in range(rng.randint(0, 6))})
        assert parse_poly(poly_to_text(f)) == f, poly_to_text(f)


def test_parse_poly_forms():
    f = parse_poly("f = y^2 - x^3")
    assert as_dict(f) == {(0, 2): Fraction(1), (3, 0): Fraction(-1)}
    g = parse_poly("f = 2x + 3*y - 1/2")
    assert as_dict(g) == {(1, 0): Fraction(2), (0, 1): Fraction(3),
                           (0, 0): Fraction(-1, 2)}
    h = parse_poly("f = x^2y^3")
    assert as_dict(h) == {(2, 3): Fraction(1)}
    assert parse_poly("f = -x^3 + y^2") == parse_poly("f = y^2 -x^3") == f


def test_parse_poly_zero_exponent_alone_is_a_term():
    assert parse_poly("f = x^0") == BivarPoly.from_terms({(0, 0): 1})
    assert parse_poly("f = y - x^0 y^0") == parse_poly("f = y - 1")


# parse_poly shares the branch-file grammar and its error rules
@pytest.mark.parametrize("text, message, line, col", [
    ("# only a comment\n", "missing f-line", 1, 1),
    ("f = y^2\nf = x^3", "duplicate f-line", 2, 1),
    ("f = y^2\n  f = x^3", "duplicate f-line", 2, 3),
    ("  g = y", "expected 'f = ...'", 1, 3),
    ("f = y^2 - 1/0 x", "expected a positive denominator", 1, 13),
    ("f = y^2 - 1/0 x\nf = x", "expected a positive denominator", 1, 13),
    ("f = y^2 - x^3 + $", "unexpected character '$'", 1, 16),
    ("f = y^2 - t", "unexpected character 't'", 1, 10),
    ("f = 2*y + 3*", "expected x or y after '*'", 1, 1),
    ("f = 3* + y", "expected x or y after '*'", 1, 8),
    ("f = x^  -1", "expected a non-negative exponent", 1, 9),
    ("f = y x", "expected '+' or '-' between terms", 1, 7),
    ("f =", "empty polynomial", 1, 4),
])
def test_parse_poly_errors(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        f"line {line} col {col}: {message}", line, col)


def test_implicit_distance_saturates_on_overflow():
    f = parse_poly("f = y^2 - x^3")
    big = complex(1e200, 1.0)
    # |f| ~ 1e600 overflows a float, as the float value did (saturated to inf)
    assert float_eval(f, big, 0j) == complex(math.inf, 0.0)
    assert f.implicit_distance(big, 0j) == math.inf
    # |f| is finite but the ratio overflows
    g = BivarPoly.from_terms({(0, 0): 10 ** 300, (1, 0): Fraction(1, 10 ** 200)})
    assert g.implicit_distance(0j, 0j) == math.inf
    h = BivarPoly.from_terms({(0, 0): 10 ** 300, (1, 0): Fraction(1, 10 ** 7)})
    assert h.implicit_distance(0j, 0j) == pytest.approx(1e307, rel=1e-15)
    # a vanishing gradient (the cusp point) and a non-finite point give inf
    assert f.implicit_distance(0j, 0j) == math.inf
    assert f.implicit_distance(complex(math.nan, 0.0), 0j) == math.inf
    assert f.implicit_distance(complex(0.1, math.inf), 0j) == math.inf


def _float_distance(f, x, y):
    val = abs(float_eval(f, x, y))
    gx, gy = float_grad(f, x, y)
    gnorm = math.hypot(gx.real, gx.imag, gy.real, gy.imag)
    return val / gnorm if val < math.inf and gnorm > 1e-300 else math.inf


def test_implicit_distance_is_exact_on_the_curve():
    # tangent y = x: the float value cancels to about 1e-26 and the gradient
    # is about 1e-16 at t = 0.01, so the float ratio read 9e-10
    b = parse_branch("x = t^4\ny = t^4 + t^6 + t^9 - t^11")
    f = implicitize(b)
    points = [eval_branch(b, complex(t)) for t in (0.002, 0.01, 0.05, 0.2)]
    assert max(_float_distance(f, x, y) for x, y in points) > 1e-12
    for x, y in points:
        assert f.implicit_distance(x, y) <= 1e-12


def test_implicit_distance_of_an_offset_point():
    # f = y - x^2 at (x0, x0^2 + d): |f| / |grad f| = d / sqrt(1 + 4 x0^2),
    # the first-order distance; every number is a dyadic float
    f = implicitize(parse_branch("x = t^1\ny = t^2"))
    x0, d = 2.0 ** -10, 2.0 ** -60
    expected = d / math.sqrt(1.0 + 4.0 * x0 * x0)
    got = f.implicit_distance(complex(x0), complex(x0 * x0 + d))
    assert got == pytest.approx(expected, rel=1e-15)
    assert f.implicit_distance(complex(x0), complex(x0 * x0)) == 0.0
    # the same offset in the imaginary direction, and scaled coefficients
    assert f.implicit_distance(complex(x0), complex(x0 * x0, d)) == pytest.approx(expected,
                                                                                rel=1e-15)
    assert scale(f, Fraction(7, 3)).implicit_distance(complex(x0), complex(x0 * x0 + d)) == got


def _rational_ratio_squared(f, x, y):
    """|f|^2 / |grad f|^2 at (x, y) in rational complex arithmetic, term by
    term; None where the gradient vanishes."""
    def mul(p, q):
        return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def power(p, k):
        out = (Fraction(1), Fraction(0))
        for _ in range(k):
            out = mul(out, p)
        return out

    px = (Fraction(x.real), Fraction(x.imag))
    py = (Fraction(y.real), Fraction(y.imag))
    sums = [[Fraction(0), Fraction(0)] for _ in range(3)]  # f, df/dx, df/dy
    for (a, b), c in f.terms:
        for acc, k, i, j in ((sums[0], c, a, b), (sums[1], a * c, a - 1, b),
                             (sums[2], b * c, a, b - 1)):
            if k:
                m = mul(power(px, i), power(py, j))
                acc[0] += k * m[0]
                acc[1] += k * m[1]
    norms = [re * re + im * im for re, im in sums]
    return None if norms[1] + norms[2] == 0 else norms[0] / (norms[1] + norms[2])


@settings(max_examples=60)
@given(family_members(), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))
def test_implicit_distance_matches_an_exact_rational_reference(b, tr, ti):
    f = implicitize(b)
    x, y = eval_branch(b, complex(tr, ti))
    y += 1e-9
    ref = _rational_ratio_squared(f, x, y)
    got = f.implicit_distance(x, y)
    if ref is None:
        assert got == math.inf
    else:
        assert got == pytest.approx(math.sqrt(ref), rel=1e-15)


def _near(edge: int):
    """Integers at and next to `edge`, and ones of about its bit length."""
    return st.one_of(st.integers(-2, 2).map(lambda d: max(edge + d, 0)),
                     st.integers(0, 4 * edge + 4),
                     st.integers(0, 2 ** (edge.bit_length() + 64)))


@st.composite
def guard_inputs(draw):
    den, s, deg = draw(st.integers(1, 10 ** 6)), draw(st.integers(0, 1100)), draw(st.integers(0, 8))
    overflow = den * den << 2 * (1024 + s * deg)  # |f| = 2^1024
    tiny_num, tiny_den = (1e-300).as_integer_ratio()
    flat = ((tiny_num * den) ** 2 << 2 * s * max(deg - 1, 0)) // tiny_den ** 2  # |grad f| ~ 1e-300
    return draw(_near(overflow)), draw(_near(flat)), den, s, deg


@settings(max_examples=300)
@given(guard_inputs())
def test_implicit_distance_guards_match_the_full_products(args):
    # the bit lengths decide, and the full comparison is built only on a tie
    assert _saturates(*args) == implicit_saturates_by_products(*args)
