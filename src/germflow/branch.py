"""Branch germs: exact Puiseux parametrizations (x(t), y(t)), and the text
grammar that branch files and polynomial text share.

Grammar (UTF-8, line oriented, '#' starts a comment) over names N and an
ordered variable set V:

    line := name "=" poly                 name in N, one line per name
    poly := term (("+"|"-") term)*
    term := [coef ["*"]] power+ | coef    "*" must be followed by a power
    power := v "^" uint                   v in V, each at most once, in V order
    coef := int | int "/" uint            denominator > 0

Branch files have N = {x, y} and V = (t).  Polynomial text (`bivar.parse_poly`)
has N = {f} and V = (x, y); there, and only there, a bare variable means
exponent 1 (`x` is `x^1`), while `t` always needs its "^".

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

from .errors import ParseError, SeriesError
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
        if o is None:
            raise SeriesError("x(t) is zero up to its precision")
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


def _tokenize(text: str, line_no: int, offset: int, variables: str):
    token = re.compile(rf"\s*(?:(?P<int>-?\d+)|(?P<sym>[{variables}^*/+-]))")
    tokens = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", line_no, offset + pos + 1)
        kind = m.lastgroup
        tok, col = m.group(kind), offset + m.start(kind) + 1
        tokens.append(("int", int(tok), col) if kind == "int" else (tok, None, col))
        pos = m.end()
    return tokens


class _TermParser:
    """Sum of terms over `variables`; with `bare`, a variable without "^" has exponent 1."""

    def __init__(self, tokens, line_no: int, variables: str, bare: bool):
        self.tokens, self.i, self.line = tokens, 0, line_no
        self.variables, self.bare = tuple(variables), bare

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def error(self, msg, col=None):
        raise ParseError(msg, self.line, col or self.peek()[2] or 1)

    def parse_term(self) -> tuple[tuple[int, ...], Fraction]:
        start, coef = self.i, Fraction(1)
        if self.peek()[0] == "int":
            coef = Fraction(self.take()[1])
            if self.peek()[0] == "/":
                self.take()
                kind, den, col = self.take()
                if kind != "int" or den <= 0:
                    self.error("expected a positive denominator", col)
                coef /= den
            if self.peek()[0] == "*":
                self.take()
                if self.peek()[0] not in self.variables:
                    self.error(f"expected {' or '.join(self.variables)} after '*'")
        exps = [0] * len(self.variables)
        for k, var in enumerate(self.variables):
            if self.peek()[0] != var:
                continue
            self.take()
            if self.peek()[0] == "^":
                self.take()
                kind, e, col = self.take()
                if kind != "int" or e < 0:
                    self.error("expected a non-negative exponent", col)
                exps[k] = e
            elif self.bare:
                exps[k] = 1
            else:
                self.error(f"expected '^' after {var}")
        if self.i == start:
            self.error("expected a term")
        return tuple(exps), coef

    def parse_terms(self) -> dict[tuple[int, ...], Fraction]:
        acc: dict[tuple[int, ...], Fraction] = {}
        sign = 1
        while True:
            key, coef = self.parse_term()
            acc[key] = acc.get(key, Fraction(0)) + sign * coef
            kind, _, col = self.take()
            if kind is None:
                break
            if kind not in ("+", "-"):
                self.error("expected '+' or '-' between terms", col)
            sign = 1 if kind == "+" else -1
        return {k: c for k, c in acc.items() if c != 0}


def _parse_lines(text: str, names: str, variables: str, bare: bool):
    """{name: terms} for a document of `name = body` lines, one per name.

    Each body is parsed as its line is read, so errors come in text order.
    """
    head = re.compile(rf"\s*([{names}])\s*=")
    bodies: dict[str, dict[tuple[int, ...], Fraction]] = {}
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
        tokens = _tokenize(line[m.end():], line_no, m.end(), variables)
        if not tokens:
            raise ParseError("empty polynomial", line_no, m.end() + 1)
        bodies[name] = _TermParser(tokens, line_no, variables, bare).parse_terms()
    for name in names:
        if name not in bodies:
            raise ParseError(f"missing {name}-line", 1, 1)
    return bodies


def parse_branch(text: str, label: str = "") -> Branch:
    """Parse a branch document into an exact, canonicalized Branch."""
    polys = _parse_lines(text, "xy", "t", bare=False)
    x_terms, y_terms = ({e: c for (e,), c in polys[var].items()} for var in "xy")
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
