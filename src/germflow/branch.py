"""Branch germs: exact Puiseux parametrizations (x(t), y(t)) and their parser.

Branch file grammar (UTF-8, line oriented, '#' starts a comment):

    line := "x = " poly | "y = " poly
    poly := term (("+"|"-") term)*
    term := [coef ["*"]] "t" "^" uint | coef
    coef := int | int "/" uint

Exactly one x-line and one y-line are required; x must be the pure monomial
t^n.  Branches are canonicalized at parse time: when n is even, the
reparametrization t -> -t is applied so that the lowest odd-exponent
y-coefficient (if any) is positive.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError
from .series import TruncatedSeries


@dataclass(frozen=True)
class Branch:
    xs: TruncatedSeries
    ys: TruncatedSeries
    label: str = ""
    exact: bool = field(default=True, compare=False)

    @property
    def n(self) -> int:
        """Order of x(t); the multiplicity-at-ingestion when x = t^n."""
        o = self.xs.order()
        assert o is not None
        return o

    def monomial_x(self) -> bool:
        return len(self.xs.terms) == 1 and self.xs.leading() == 1

    def with_precision(self, precision: int) -> "Branch":
        """Extend the truncation order; valid only for exact polynomial data."""
        if precision <= max(self.xs.precision, self.ys.precision):
            return self
        if not self.exact:
            raise ValueError("cannot extend the precision of a truncated branch")
        return Branch(self.xs.with_precision(precision),
                      self.ys.with_precision(precision), self.label, True)

    def flip(self) -> "Branch":
        return Branch(self.xs.flip(), self.ys.flip(), self.label, self.exact)


def eval_branch(b: Branch, t: complex) -> tuple[complex, complex]:
    return (b.xs.eval(t), b.ys.eval(t))


def normalize_branch(b: Branch) -> Branch:
    """Canonical sign representative: see module docstring."""
    if b.n % 2 == 0:
        for e, c in b.ys.terms:
            if e % 2 == 1:
                if c < 0:
                    return b.flip()
                break
    return b


_TOKEN = re.compile(r"\s*(?:(?P<int>-?\d+)|(?P<sym>[t^*/+-]))")


def _tokenize(text: str, line_no: int, offset: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", line_no, offset + pos + 1)
        col = offset + m.start("int" if m.group("int") else "sym") + 1
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), col))
        else:
            tokens.append((m.group("sym"), None, col))
        pos = m.end()
    return tokens


class _PolyParser:
    """Shared term-sequence parser for the branch grammar (variable t)."""

    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.i = 0
        self.line = line_no

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def error(self, msg, col=None):
        if col is None:
            col = self.peek()[2] or 1
        raise ParseError(msg, self.line, col)

    def parse_coef(self) -> Fraction:
        kind, value, col = self.take()
        if kind != "int":
            self.error("expected an integer coefficient", col)
        if self.peek()[0] == "/":
            self.take()
            kind2, den, col2 = self.take()
            if kind2 != "int" or den <= 0:
                self.error("expected a positive denominator", col2)
            return Fraction(value, den)
        return Fraction(value)

    def parse_uint(self) -> int:
        kind, value, col = self.take()
        if kind != "int" or value < 0:
            self.error("expected a non-negative exponent", col)
        return value

    def parse_term(self) -> tuple[int, Fraction]:
        kind, _, col = self.peek()
        coef = Fraction(1)
        saw_coef = False
        if kind == "int":
            coef = self.parse_coef()
            saw_coef = True
            if self.peek()[0] == "*":
                self.take()
                if self.peek()[0] != "t":
                    self.error("expected t after '*'")
        kind, _, col = self.peek()
        if kind == "t":
            self.take()
            if self.peek()[0] != "^":
                self.error("expected '^' after t")
            self.take()
            return self.parse_uint(), coef
        if not saw_coef:
            self.error("expected a term", col)
        return 0, coef

    def parse_poly(self) -> dict[int, Fraction]:
        acc: dict[int, Fraction] = {}
        sign = 1
        while True:
            exp, coef = self.parse_term()
            acc[exp] = acc.get(exp, Fraction(0)) + sign * coef
            kind, _, col = self.peek()
            if kind is None:
                break
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                self.error("expected '+' or '-' between terms", col)
            self.take()
        return {e: c for e, c in acc.items() if c != 0}


def parse_branch(text: str, label: str = "") -> Branch:
    """Parse a branch document into an exact, canonicalized Branch."""
    polys: dict[str, dict[int, Fraction]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = re.match(r"\s*([xy])\s*=", line)
        if not m:
            raise ParseError("expected 'x = ...' or 'y = ...'", line_no, len(line) - len(line.lstrip()) + 1)
        var = m.group(1)
        if var in polys:
            raise ParseError(f"duplicate {var}-line", line_no, m.start(1) + 1)
        body = line[m.end():]
        tokens = _tokenize(body, line_no, m.end())
        if not tokens:
            raise ParseError("empty polynomial", line_no, m.end() + 1)
        polys[var] = _PolyParser(tokens, line_no).parse_poly()
    for var in "xy":
        if var not in polys:
            raise ParseError(f"missing {var}-line", 1, 1)

    x_terms, y_terms = polys["x"], polys["y"]
    if len(x_terms) != 1 or next(iter(x_terms.values())) != 1:
        raise ParseError("x must be the pure monomial t^n", 1, 1)
    n = next(iter(x_terms))
    if n < 1:
        raise ParseError("order of x must be >= 1", 1, 1)
    if any(e < 1 for e in y_terms):
        raise ParseError("order of y must be >= 1 (nonzero constant term)", 1, 1)

    exponents = [n] + sorted(y_terms)
    g = math.gcd(*exponents)
    if g != 1:
        raise ParseError(f"non-primitive parametrization (gcd of exponents is {g})", 1, 1)

    precision = 1 + max(exponents)
    xs = TruncatedSeries.monomial(n, 1, precision)
    ys = TruncatedSeries.from_terms(y_terms, precision)
    return normalize_branch(Branch(xs, ys, label, True))


def parse_branch_file(path, label: str | None = None) -> Branch:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if label is None:
        import os
        label = os.path.splitext(os.path.basename(path))[0]
    return parse_branch(text, label)
