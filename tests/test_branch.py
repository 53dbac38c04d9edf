from fractions import Fraction

import pytest

from germflow import Branch, eval_branch, normalize_branch, parse_branch
from germflow.errors import ParseError, SeriesError
from germflow.series import TruncatedSeries


def test_parse_cusp():
    b = parse_branch("x = t^2\ny = t^3")
    assert b.xs.as_dict() == {2: Fraction(1)}
    assert b.ys.as_dict() == {3: Fraction(1)}
    assert b.xs.precision == 4


def test_parse_fractional_coefficient():
    b = parse_branch("x = t^2\ny = t^3 + 1/2 t^5")
    assert b.ys.as_dict() == {3: Fraction(1), 5: Fraction(1, 2)}
    assert b.ys.precision == 6


def test_parse_star_and_spacing():
    b = parse_branch("x = t^2\ny = 2*t^3 - 1/3*t^5")
    assert b.ys.as_dict() == {3: Fraction(2), 5: Fraction(-1, 3)}


def test_parse_comments_and_blank_lines():
    b = parse_branch("# a comment\nx = t^2\n\ny = t^3  # trailing\n")
    assert b.ys.as_dict() == {3: Fraction(1)}


def test_parse_non_primitive():
    with pytest.raises(ParseError, match="non-primitive"):
        parse_branch("x = t^2\ny = t^4")


def test_parse_non_monomial_x():
    with pytest.raises(ParseError, match="monomial"):
        parse_branch("x = t^2 + t^3\ny = t^4")


def test_parse_constant_term_rejected():
    with pytest.raises(ParseError, match="order"):
        parse_branch("x = t^1\ny = 1 + t^2")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_branch("x = t^2\ny = t^3 + $")
    assert exc.value.line == 2
    assert exc.value.col is not None


def test_parse_missing_line():
    with pytest.raises(ParseError, match="missing y"):
        parse_branch("x = t^2")


def test_parse_duplicate_line():
    with pytest.raises(ParseError, match="duplicate"):
        parse_branch("x = t^2\nx = t^3\ny = t^5")


def test_parse_strict_exponent_grammar():
    with pytest.raises(ParseError):
        parse_branch("x = t\ny = t^2")  # bare t is not in the grammar


# (text, message, line, col) of every branch-file error.  Token errors point
# at the token; an unexpected character points at the whitespace before it;
# an error at the end of a line reports col 1; whole-document checks report
# line 1 col 1.
BRANCH_ERRORS = [
    ("x = t^2\ny = t^3 + $", "unexpected character '$'", 2, 10),
    ("x = t^2\ny = t^3 +  $", "unexpected character '$'", 2, 10),
    ("x = t^2\ny = t^3 t^5", "expected '+' or '-' between terms", 2, 9),
    ("x = t^2\ny = t^3 -5", "expected '+' or '-' between terms", 2, 9),
    ("x = t^2\ny = 2* t^3 + 3*", "expected t after '*'", 2, 1),
    ("x = t^2\ny = 2 *+ t^3", "expected t after '*'", 2, 8),
    ("x = t\ny = t^3", "expected '^' after t", 1, 1),
    ("x = t^2\ny = t^3 + t ", "expected '^' after t", 2, 1),
    ("x = t^2\ny = t^ -3", "expected a non-negative exponent", 2, 8),
    ("x = t^2\ny = t^", "expected a non-negative exponent", 2, 1),
    ("x = t^2\ny = 1/0 t^3", "expected a positive denominator", 2, 7),
    ("x = t^2\ny = 1/ -2 t^3", "expected a positive denominator", 2, 8),
    ("x = t^2\ny = t^3 +", "expected a term", 2, 1),
    ("x = t^2\ny = - t^3", "expected a term", 2, 5),
    ("x = t^2\n  z = t^3", "expected 'x = ...' or 'y = ...'", 2, 3),
    ("x = t^2\n\tx = t^3\ny = t^5", "duplicate x-line", 2, 2),
    ("x = t^2\n  y =   # nothing", "empty polynomial", 2, 6),
    ("x = t^2", "missing y-line", 1, 1),
    ("  y = t^3", "missing x-line", 1, 1),
    ("x = t^2 + t^3\ny = t^5", "x must be the pure monomial t^n", 1, 1),
    ("x = 2 t^2\ny = t^5", "x must be the pure monomial t^n", 1, 1),
    ("x = t^0\ny = t^5", "order of x must be >= 1", 1, 1),
    ("x = t^1\ny = 1 + t^2", "order of y must be >= 1 (nonzero constant term)", 1, 1),
    ("x = t^2\ny = t^4", "non-primitive parametrization (gcd of exponents is 2)", 1, 1),
]


@pytest.mark.parametrize("text, message, line, col", BRANCH_ERRORS)
def test_parse_error_message_line_and_column(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_branch(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        f"line {line} col {col}: {message}", line, col)


def test_zero_x_has_no_order():
    ys = TruncatedSeries.from_terms({3: Fraction(1)}, 4)
    with pytest.raises(SeriesError, match="x\\(t\\) is zero"):
        normalize_branch(Branch(TruncatedSeries.zero(4), ys))


def test_zero_y_branch():
    b = parse_branch("x = t^1\ny = 0")
    assert b.ys.is_zero()


def test_eval_cusp():
    b = parse_branch("x = t^2\ny = t^3")
    assert eval_branch(b, 0) == (0, 0)
    x, y = eval_branch(b, 0.1)
    assert x == pytest.approx(0.01)
    assert y == pytest.approx(0.001)


def test_eval_half_coefficient():
    b = parse_branch("x = t^2\ny = t^3 + 1/2 t^5")
    x, y = eval_branch(b, 0.1)
    assert x == pytest.approx(0.01)
    assert y == pytest.approx(0.001005)


def test_normalization_even_multiplicity():
    b = parse_branch("x = t^2\ny = -1 t^3 + t^4")
    # t -> -t flips odd exponents so the lowest odd coefficient is positive
    assert b.ys.as_dict() == {3: Fraction(1), 4: Fraction(1)}


def test_normalization_odd_multiplicity_untouched():
    b = parse_branch("x = t^3\ny = -1 t^4")
    assert b.ys.as_dict() == {4: Fraction(-1)}


def test_normalize_idempotent():
    b = parse_branch("x = t^2\ny = t^3 - t^4")
    assert normalize_branch(b) == b


def test_with_precision_extends_exact_data():
    b = parse_branch("x = t^2\ny = t^3")
    b64 = b.with_precision(64)
    assert b64.xs.precision == 64
    assert b64.ys.as_dict() == b.ys.as_dict()
