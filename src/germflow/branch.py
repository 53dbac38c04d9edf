"""Branch germs: exact Puiseux parametrizations (x(t), y(t)), and the text
grammar that branch files and polynomial text share.

Grammar (UTF-8, line oriented, '#' starts a comment) over names N and an
ordered variable set V:

    line := name "=" poly                 name in N, one line per name
    poly := ["-"] term (("+"|"-") term)*
    term := [coef ["*"]] power+ | coef    "*" must be followed by a power
    power := v "^" uint                   v in V, each at most once, in V order
    coef := uint | uint "/" uint          denominator > 0

Branch files have N = {x, y} and V = (t).  Polynomial text (`bivar.parse_poly`)
has N = {f} and V = (x, y); there, and only there, a bare variable means
exponent 1 (`x` is `x^1`), while `t` always needs its "^".  Integers are
unsigned and "-" is always an operator: `t^3 -5 t^5` is t^3 - 5 t^5.

Exactly one x-line and one y-line are required; x must be the pure monomial
t^n.  Branches are canonicalized at parse time: when n is even, the
reparametrization t -> -t is applied so that the lowest odd-exponent
y-coefficient (if any) is positive.  A file may start with a UTF-8
byte-order mark.

Each line body is read in one scan: ``_tokenize`` is one compiled
``finditer`` over the line (a character outside the grammar has its own
group, so it ends the scan with an error), and ``_parse_terms`` is one
index loop over the tokens.  A body comes out as integer numerators over
one common denominator, the lcm of its terms' denominators; the parser
builds no ``Fraction``, and ``parse_branch`` and ``bivar.parse_poly`` use
that form as it is.
"""
from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass, field

from .errors import ParseError, PrecisionError, SeriesError
from .series import TruncatedSeries, _series

# truncation-order ceiling; at 256 `isotopy` takes 0.2 s on a 12-term cusp and about
# 2 s on an n = 128 pair with seven characteristic exponents (2-CPU x86_64, CPython 3.11)
MAX_PRECISION = 256
DEFAULT_PRECISION = 64  # truncation order of every command, plan and expansion by default


@dataclass(frozen=True)
class Branch:
    xs: TruncatedSeries
    ys: TruncatedSeries
    label: str = ""
    exact: bool = field(default=True, compare=False)

    @property
    def n(self) -> int:
        """Order of x(t); the multiplicity only when ord y >= n (x transversal)."""
        o = self.xs.order()
        if o is None:
            raise SeriesError("x(t) is zero up to its precision")
        return o

    def monomial_x(self) -> bool:
        # one stored term, the last, of coefficient num/den = 1
        return len(self.xs.support()) == 1 and self.xs.num[-1] == self.xs.den

    def with_precision(self, precision: int) -> "Branch":
        """Extend the truncation order; valid only for exact polynomial data.

        Raises PrecisionError for a precision outside 1..MAX_PRECISION, or
        one above the current order of a truncated branch."""
        if not 1 <= precision <= MAX_PRECISION:
            raise PrecisionError(f"precision {precision!r} is not between 1 and {MAX_PRECISION}")
        if precision <= max(self.xs.precision, self.ys.precision):
            return self
        if not self.exact:
            raise PrecisionError("cannot extend the precision of a truncated branch")
        return Branch(self.xs.with_precision(precision),
                      self.ys.with_precision(precision), self.label, True)

    def flip(self) -> "Branch":
        return Branch(self.xs.flip(), self.ys.flip(), self.label, self.exact)


def eval_branch(b: Branch, t: complex) -> tuple[complex, complex]:
    return (b.xs.eval(t), b.ys.eval(t))


def normalize_branch(b: Branch) -> Branch:
    """Canonical sign representative: see module docstring."""
    # den > 0, so a numerator's sign is its coefficient's sign
    if b.n % 2 == 0 and next((x for x in b.ys.num[1::2] if x), 0) < 0:
        return b.flip()
    return b


_END = (None, None, None)  # the token after a line's last one


@functools.cache
def _patterns(names: str, variables: str) -> tuple[re.Pattern, re.Pattern]:
    """The line head `name =` and the body's token pattern: an integer, a
    symbol or, in its own group, any other character not whitespace."""
    return (re.compile(rf"\s*([{names}])\s*="),
            re.compile(rf"\s*(?:([0-9]+)|([{variables}^*/+-])|(\S))"))


def _tokenize(pattern: re.Pattern, text: str, line_no: int, offset: int):
    """(kind, integer value or None, column) of each token of a line body, in
    one scan; an unexpected character points at the whitespace before it."""
    tokens = []
    for m in pattern.finditer(text):
        num, sym, bad = m.groups()
        if sym is not None:
            tokens.append((sym, None, offset + m.end()))
        elif num is not None:
            col = offset + m.end() - len(num) + 1
            try:
                tokens.append(("int", int(num), col))
            except ValueError:  # longer than the interpreter's int-from-text digit limit
                raise ParseError("integer too long", line_no, col) from None
        else:
            raise ParseError(f"unexpected character {bad!r}", line_no, offset + m.start() + 1)
    return tokens


def _parse_terms(tokens, line_no: int, variables: tuple[str, ...], bare: bool):
    """({exponents: num}, den): a sum of terms over `variables`, each
    coefficient num/den over the lcm den > 0 of their denominators, num != 0,
    read in one pass over the tokens (which end with _END); the first term
    may follow one "-", and with `bare`, a variable without "^" has exponent
    1.  An error at the end of the line reports col 1."""
    acc: dict[tuple[int, ...], tuple[int, int]] = {}
    i, sign = (1, -1) if tokens[0][0] == "-" else (0, 1)
    while True:
        start = i
        kind, num, col = tokens[i]
        den = 1
        if kind == "int":
            i += 1
            kind, _, col = tokens[i]
            if kind == "/":
                kind, den, col = tokens[i + 1]
                if kind != "int" or not den:
                    raise ParseError("expected a positive denominator", line_no, col or 1)
                i += 2
                kind, _, col = tokens[i]
            if kind == "*":
                i += 1
                kind, _, col = tokens[i]
                if kind not in variables:
                    raise ParseError(f"expected {' or '.join(variables)} after '*'",
                                     line_no, col or 1)
        else:
            num = 1
        exps = [0] * len(variables)
        for k, var in enumerate(variables):
            if kind != var:
                continue
            kind, _, col = tokens[i + 1]
            if kind == "^":
                kind, e, col = tokens[i + 2]
                if kind != "int":
                    raise ParseError("expected a non-negative exponent", line_no, col or 1)
                exps[k] = e
                i += 3
                kind, _, col = tokens[i]
            elif bare:
                exps[k] = 1
                i += 1
            else:
                raise ParseError(f"expected '^' after {var}", line_no, col or 1)
        if i == start:
            raise ParseError("expected a term", line_no, col or 1)
        key = tuple(exps)
        if key in acc:  # over the lcm of the two denominators
            n, d = acc[key]
            g = math.gcd(d, den)
            acc[key] = (n * (den // g) + sign * num * (d // g), d // g * den)
        else:
            acc[key] = (sign * num, den)
        if kind is None:
            break
        if kind not in ("+", "-"):
            raise ParseError("expected '+' or '-' between terms", line_no, col)
        sign = 1 if kind == "+" else -1
        i += 1
    acc = {key: c for key, c in acc.items() if c[0]}
    den = math.lcm(*[d for _, d in acc.values()])
    return {key: n * (den // d) for key, (n, d) in acc.items()}, den


def _parse_lines(text: str, names: str, variables: str, bare: bool):
    """{name: ((terms, den), (line, col))} for a document of `name = body`
    lines, one per name; (line, col) is where the body starts, and terms maps
    each exponent tuple to its coefficient's numerator over den > 0, as
    `_parse_terms` gives them.

    Each body is parsed as its line is read, so errors come in text order.
    """
    head, token = _patterns(names, variables)
    variables = tuple(variables)
    bodies: dict[str, tuple[tuple[dict[tuple[int, ...], int], int], tuple[int, int]]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = head.match(line)
        if not m:
            expected = " or ".join(f"'{name} = ...'" for name in names)
            raise ParseError(f"expected {expected}", line_no, len(line) - len(line.lstrip()) + 1)
        name = m.group(1)
        if name in bodies:
            raise ParseError(f"duplicate {name}-line", line_no, m.start(1) + 1)
        tokens = _tokenize(token, line[m.end():], line_no, m.end())
        if not tokens:
            raise ParseError("empty polynomial", line_no, m.end() + 1)
        at = (line_no, tokens[0][2])
        tokens.append(_END)
        bodies[name] = _parse_terms(tokens, line_no, variables, bare), at
    for name in names:
        if name not in bodies:
            raise ParseError(f"missing {name}-line", 1, 1)
    return bodies


def parse_branch(text: str, label: str = "") -> Branch:
    """Parse a branch document into an exact, canonicalized Branch."""
    polys = _parse_lines(text, "xy", "t", bare=False)
    ((x_body, x_den), x_at), ((y_body, y_den), y_at) = polys["x"], polys["y"]
    x_terms, y_terms = ({e: c for (e,), c in body.items()} for body in (x_body, y_body))
    if list(x_terms.values()) != [x_den]:  # one term, of coefficient 1
        raise ParseError("x must be the pure monomial t^n", *x_at)
    n = next(iter(x_terms))
    if n < 1:
        raise ParseError("order of x must be >= 1", *x_at)
    if any(e < 1 for e in y_terms):
        raise ParseError("order of y must be >= 1 (nonzero constant term)", *y_at)

    exponents = [n] + sorted(y_terms)
    g = math.gcd(*exponents)
    if g != 1:  # read off both lines: reported at the later one
        raise ParseError(f"non-primitive parametrization (gcd of exponents is {g})",
                         *max(x_at, y_at))

    if max(exponents) >= MAX_PRECISION:
        raise ParseError(f"exponent {max(exponents)} is not below the precision ceiling "
                         f"{MAX_PRECISION}")
    precision = 1 + max(exponents)
    num = [0] * precision
    for e, c in y_terms.items():
        num[e] = c
    xs = _series([0] * n + [1], 1, precision)
    return normalize_branch(Branch(xs, _series(num, y_den, precision), label, True))


def parse_branch_file(path, label: str | None = None) -> Branch:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if label is None:
        label = os.path.splitext(os.path.basename(path))[0]
    return parse_branch(text, label)
