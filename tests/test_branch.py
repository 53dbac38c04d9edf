from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import parse_lines_by_tokens

from germflow import Branch, eval_branch, normalize_branch, parse_branch
from germflow.branch import MAX_PRECISION, _parse_lines
from germflow.errors import ParseError, PrecisionError, SeriesError
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
# an error at the end of a line reports col 1; a check on the whole x- or
# y-polynomial points where that line's body starts, the gcd check, which
# reads both, at the later of the two; a missing line reports line 1 col 1.
BRANCH_ERRORS = [
    ("x = t^2\ny = t^3 + $", "unexpected character '$'", 2, 10),
    ("x = t^2\ny = t^3 +  $", "unexpected character '$'", 2, 10),
    ("x = t^2\ny = t^3 t^5", "expected '+' or '-' between terms", 2, 9),
    ("x = t^2\ny = t^3 -5", "order of y must be >= 1 (nonzero constant term)", 2, 5),
    ("x = t^2\ny = t^3 - -5 t^5", "expected a term", 2, 11),
    ("x = t^2\ny = t^3 +-5 t^5", "expected a term", 2, 10),
    ("x = t^2\ny = 2* t^3 + 3*", "expected t after '*'", 2, 1),
    ("x = t^2\ny = 2 *+ t^3", "expected t after '*'", 2, 8),
    ("x = t\ny = t^3", "expected '^' after t", 1, 1),
    ("x = t^2\ny = t^3 + t ", "expected '^' after t", 2, 1),
    ("x = t^2\ny = t^ -3", "expected a non-negative exponent", 2, 8),
    ("x = t^2\ny = t^", "expected a non-negative exponent", 2, 1),
    ("x = t^2\ny = 1/0 t^3", "expected a positive denominator", 2, 7),
    ("x = t^2\ny = 1/ -2 t^3", "expected a positive denominator", 2, 8),
    ("x = t^2\ny = t^3 +", "expected a term", 2, 1),
    ("x = t^2\ny = - - t^3", "expected a term", 2, 7),
    ("x = t^2\n  z = t^3", "expected 'x = ...' or 'y = ...'", 2, 3),
    ("x = t^2\n\tx = t^3\ny = t^5", "duplicate x-line", 2, 2),
    ("x = t^2\n  y =   # nothing", "empty polynomial", 2, 6),
    ("x = t^2", "missing y-line", 1, 1),
    ("  y = t^3", "missing x-line", 1, 1),
    ("x = t^2 + t^3\ny = t^5", "x must be the pure monomial t^n", 1, 5),
    ("x = 2 t^2\ny = t^5", "x must be the pure monomial t^n", 1, 5),
    ("x = t^0\ny = t^5", "order of x must be >= 1", 1, 5),
    ("x = t^1\ny = 1 + t^2", "order of y must be >= 1 (nonzero constant term)", 2, 5),
    ("x = t^2\ny = t^4", "non-primitive parametrization (gcd of exponents is 2)", 2, 5),
    ("y = t^3\n  x = t^2 + t^3", "x must be the pure monomial t^n", 2, 7),
    ("y = t^4\nx =  t^2", "non-primitive parametrization (gcd of exponents is 2)", 2, 6),
]


@pytest.mark.parametrize("text, message, line, col", BRANCH_ERRORS)
def test_parse_error_message_line_and_column(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_branch(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        f"line {line} col {col}: {message}", line, col)


@pytest.mark.parametrize("text, same_as", [
    ("x = t^2\ny = t^3 -5 t^5", "x = t^2\ny = t^3 - 5 t^5"),
    ("x = t^2\ny = - t^3", "x = t^2\ny = -1 t^3"),
    ("x = t^3\ny = -t^4", "x = t^3\ny = -1 t^4"),
    ("x = t^3\ny = - 2/3 t^4 -1/2 t^5", "x = t^3\ny = -2/3 t^4 - 1/2 t^5"),
])
def test_minus_is_always_the_operator(text, same_as):
    # integers are unsigned: "-5" after a term is the operator and 5
    assert parse_branch(text) == parse_branch(same_as)


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


@pytest.mark.parametrize("precision", [0, -1, MAX_PRECISION + 1, 200000])
def test_with_precision_outside_the_ceiling_is_refused(precision):
    # the exact layer's cost grows steeply with precision: at 200000 resolve never finished
    b = parse_branch("x = t^2\ny = t^3")
    with pytest.raises(PrecisionError,
                       match=f"^precision {precision} is not between 1 and {MAX_PRECISION}$"):
        b.with_precision(precision)
    assert b.with_precision(MAX_PRECISION).xs.precision == MAX_PRECISION


def test_with_precision_of_a_truncated_branch_is_a_precision_error():
    b = parse_branch("x = t^2\ny = t^3")
    truncated = Branch(b.xs, b.ys, b.label, exact=False)
    assert truncated.with_precision(4) is truncated
    with pytest.raises(PrecisionError, match="truncated branch"):
        truncated.with_precision(64)


def test_exponent_at_the_precision_ceiling_is_a_parse_error():
    # a branch file sets its precision to 1 + its largest exponent
    b = parse_branch(f"x = t^2\ny = t^3 + t^{MAX_PRECISION - 1}")
    assert b.ys.precision == MAX_PRECISION
    with pytest.raises(ParseError, match=f"^exponent {MAX_PRECISION} is not below the "
                                         f"precision ceiling {MAX_PRECISION}$"):
        parse_branch(f"x = t^2\ny = t^3 + t^{MAX_PRECISION}")


def test_overlong_integer_is_a_parse_error():
    # longer than the interpreter's limit on converting text to int
    with pytest.raises(ParseError) as exc:
        parse_branch("x = t^2\ny = t^3 + 1" + "2" * 5000 + " t^5")
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        "line 2 col 11: integer too long", 2, 11)


def test_non_ascii_digit_is_an_unexpected_character():
    # U+0663 ARABIC-INDIC DIGIT THREE is a Unicode decimal digit, not an integer
    with pytest.raises(ParseError) as exc:
        parse_branch("x = t^2\ny = ٣ t^3")
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        "line 2 col 4: unexpected character '٣'", 2, 4)


# -- the one-scan parser against the token-by-token reference ---------------------

_SPACE = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _term(draw, variables, bare):
    powers = ""
    for var in variables:
        if draw(st.booleans()):
            e = draw(st.integers(0, 9))
            powers += var if bare and e == 1 and draw(st.booleans()) else f"{var}^{e}"
    if powers and draw(st.booleans()):
        return powers
    coef = str(draw(st.integers(0, 12)))
    den = draw(st.sampled_from([None, None, None, None, 1, 2, 3, 6, 0]))
    if den is not None:
        coef += f"{draw(_SPACE)}/{draw(_SPACE)}{den}"
    return coef + (draw(st.sampled_from(["", " ", "*", " * "])) + powers if powers else "")


@st.composite
def _body(draw, variables, bare):
    terms = draw(st.lists(_term(variables, bare), min_size=1, max_size=5))
    text = draw(st.sampled_from(["", "", "-", "- "])) + terms[0]
    for term in terms[1:]:
        text += f"{draw(_SPACE)}{draw(st.sampled_from('+-'))}{draw(_SPACE)}{term}"
    return text


@st.composite
def _document(draw):
    """A branch document or an `f = ...` document, as (text, names,
    variables, bare), its lines in any order, with comments and at times a
    duplicate line."""
    names, variables, bare = draw(st.sampled_from([("xy", "t", False), ("f", "xy", True)]))
    heads = draw(st.permutations(names))
    if draw(st.sampled_from([False, False, False, True])):
        heads.append(draw(st.sampled_from(names)))
    lines = [f"{draw(_SPACE)}{name}{draw(_SPACE)}={draw(_SPACE)}{draw(_body(variables, bare))}"
             for name in heads]
    lines += draw(st.lists(st.sampled_from(["", "# note", "  "]), max_size=2))
    lines = draw(st.permutations(lines))
    if draw(st.booleans()):
        lines[0] += " # trailing"
    return "\n".join(lines), names, variables, bare


# the grammar's characters, then a Unicode space, line break, digit and letter
_EDIT_CHARS = "0123456789txyf^*/+-= #\n\t$\u00a0\u2028\u0663\u00e9"


@st.composite
def _edited(draw, doc):
    """The document with one character inserted, deleted or replaced."""
    text, *grammar = doc
    i = draw(st.sampled_from(range(len(text) + 1)))
    c = draw(st.sampled_from(_EDIT_CHARS))
    text = draw(st.sampled_from([text[:i] + c + text[i:], text[:i] + text[i + 1:],
                                 text[:i] + c + text[i + 1:]]))
    return (text, *grammar)


def _fractions(body):
    """{exponents: Fraction} of a body read as (numerators, den) or as Fractions."""
    if isinstance(body, tuple):
        terms, den = body
        return {key: Fraction(c, den) for key, c in terms.items()}
    return body


def _read(parse, text, names, variables, bare):
    try:
        bodies = parse(text, names, variables, bare)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col
    return {name: (_fractions(body), at) for name, (body, at) in bodies.items()}


@settings(max_examples=400)
@given(st.one_of(_document(), _document().flatmap(_edited), _document().flatmap(_edited)))
def test_parser_matches_the_token_by_token_reference(doc):
    assert _read(_parse_lines, *doc) == _read(parse_lines_by_tokens, *doc)
