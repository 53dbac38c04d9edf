import math
import random
from fractions import Fraction

import pytest
import sympy

from germflow import (BivarPoly, implicitize, parse_branch, parse_poly, poly_on_branch,
                      poly_to_text)
from germflow.branch import eval_branch
from germflow.errors import ParseError, SeriesError


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
    from germflow import Branch
    from germflow.series import TruncatedSeries
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


@pytest.mark.parametrize("name", ["cusp", "cusp_t4", "two_pair", "e34"])
def test_implicit_vanishes_on_branch(name, corpus):
    b = corpus[name]
    f = implicitize(b)
    rng = random.Random(7)
    scale = max(abs(float(c)) for _, c in f.terms)
    for _ in range(100):
        t = complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        x, y = eval_branch(b, t)
        assert abs(f.eval(x, y)) <= 1e-12 * scale


def test_poly_on_branch_valuation():
    b = parse_branch("x = t^2\ny = t^3").with_precision(32)
    f = parse_poly("f = y^2 - x^3")
    assert poly_on_branch(f, b).is_zero()
    g = parse_poly("f = x")
    assert poly_on_branch(g, b).order() == 2


def test_poly_text_roundtrip():
    f = implicitize(parse_branch("x = t^2\ny = t^3 + t^4"))
    assert parse_poly(poly_to_text(f)) == f


def test_negative_leading_unit_term_roundtrip():
    f = BivarPoly.from_terms({(3, 2): Fraction(-1), (0, 1): Fraction(2)})
    assert poly_to_text(f) == "f = -1*x^3y^2 + 2*y"
    assert parse_poly(poly_to_text(f)) == f


def test_poly_text_roundtrip_random():
    rng = random.Random(11)
    for _ in range(300):
        f = BivarPoly.from_terms({(rng.randint(0, 5), rng.randint(0, 5)):
                                  Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                  for _ in range(rng.randint(0, 6))})
        assert parse_poly(poly_to_text(f)) == f, poly_to_text(f)


def test_parse_poly_forms():
    f = parse_poly("f = y^2 - x^3")
    assert f.as_dict() == {(0, 2): Fraction(1), (3, 0): Fraction(-1)}
    g = parse_poly("f = 2x + 3*y - 1/2")
    assert g.as_dict() == {(1, 0): Fraction(2), (0, 1): Fraction(3),
                           (0, 0): Fraction(-1, 2)}
    h = parse_poly("f = x^2y^3")
    assert h.as_dict() == {(2, 3): Fraction(1)}


def test_parse_poly_zero_exponent_alone_is_a_term():
    assert parse_poly("f = x^0") == BivarPoly.const(1)
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


def test_eval_and_grad_saturate_on_overflow():
    f = parse_poly("f = y^2 - x^3")
    big = complex(1e200, 1.0)
    assert f.eval(big, 0j) == complex(math.inf, 0.0)
    assert f.grad(big, 0j) == (complex(math.inf, 0.0), complex(math.inf, 0.0))


def test_exact_division():
    f = parse_poly("f = y^2 - 2*x^2y + x^4")
    g = parse_poly("f = y - x^2")
    assert f.exact_div(g) == g
    with pytest.raises(SeriesError):
        parse_poly("f = y^2 - x^3").exact_div(g)
