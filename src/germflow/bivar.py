"""Exact bivariate polynomials over Q, implicit equations and resultants.

Implicitization eliminates the parameter t from (x - t^n, y - y(t)) through
the resultant of the pair, computed on the Sylvester matrix with Bareiss
fraction-free elimination so every intermediate value stays a polynomial.

Polynomial text `f = ...` follows the branch-file grammar of branch.py over
the variables x, y (in that order within a term); `parse_poly` reads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .branch import Branch, _parse_lines
from .errors import SeriesError
from .series import TruncatedSeries


def _lex_key(key):
    a, b = key
    return (b, a)  # lexicographic with y > x


@dataclass(frozen=True)
class BivarPoly:
    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def from_terms(terms: dict[tuple[int, int], Fraction]) -> "BivarPoly":
        cleaned = tuple(sorted(
            ((k, Fraction(c)) for k, c in terms.items() if c != 0),
            key=lambda item: _lex_key(item[0])))
        return BivarPoly(cleaned)

    @staticmethod
    def zero() -> "BivarPoly":
        return BivarPoly(())

    @staticmethod
    def const(c) -> "BivarPoly":
        return BivarPoly.from_terms({(0, 0): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def leading(self) -> tuple[tuple[int, int], Fraction]:
        """Leading term in lexicographic order with y > x."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[-1]

    def add(self, other: "BivarPoly") -> "BivarPoly":
        acc = self.as_dict()
        for k, c in other.terms:
            acc[k] = acc.get(k, Fraction(0)) + c
        return BivarPoly.from_terms(acc)

    def sub(self, other: "BivarPoly") -> "BivarPoly":
        return self.add(other.scale(-1))

    def scale(self, c) -> "BivarPoly":
        c = Fraction(c)
        if c == 0:
            return BivarPoly.zero()
        return BivarPoly(tuple((k, v * c) for k, v in self.terms))

    def mul(self, other: "BivarPoly") -> "BivarPoly":
        acc: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self.terms:
            for (a2, b2), c2 in other.terms:
                k = (a1 + a2, b1 + b2)
                acc[k] = acc.get(k, Fraction(0)) + c1 * c2
        return BivarPoly.from_terms(acc)

    def mul_term(self, a: int, b: int, c) -> "BivarPoly":
        c = Fraction(c)
        if c == 0:
            return BivarPoly.zero()
        return BivarPoly.from_terms({(ka + a, kb + b): v * c for (ka, kb), v in self.terms})

    def exact_div(self, other: "BivarPoly") -> "BivarPoly":
        """Exact quotient self / other; raises if the division has a remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = self
        quo: dict[tuple[int, int], Fraction] = {}
        (da, db), dc = other.leading()
        while not rem.is_zero():
            (ra, rb), rc = rem.leading()
            qa, qb = ra - da, rb - db
            if qa < 0 or qb < 0:
                raise SeriesError("polynomial division is not exact")
            qc = rc / dc
            quo[(qa, qb)] = quo.get((qa, qb), Fraction(0)) + qc
            rem = rem.sub(other.mul_term(qa, qb, qc))
        return BivarPoly.from_terms(quo)

    def eval(self, x: complex, y: complex) -> complex:
        """Value at (x, y); an overflowing power saturates the value to inf."""
        try:
            return sum(float(c) * x ** a * y ** b for (a, b), c in self.terms)
        except OverflowError:
            return complex(math.inf, 0.0)

    def grad(self, x: complex, y: complex) -> tuple[complex, complex]:
        """(df/dx, df/dy) at (x, y), saturated to inf like `eval`."""
        try:
            fx = sum(float(c) * a * x ** (a - 1) * y ** b for (a, b), c in self.terms if a)
            fy = sum(float(c) * b * x ** a * y ** (b - 1) for (a, b), c in self.terms if b)
        except OverflowError:
            return complex(math.inf, 0.0), complex(math.inf, 0.0)
        return fx, fy

    def normalized(self) -> "BivarPoly":
        """Content 1, positive leading coefficient (lex order, y > x)."""
        if self.is_zero():
            return self
        den = math.lcm(*(c.denominator for _, c in self.terms))
        num = math.gcd(*(abs(c.numerator * den // c.denominator) for _, c in self.terms))
        scale = Fraction(den, num)
        if self.leading()[1] < 0:
            scale = -scale
        return self.scale(scale)


def poly_on_branch(f: BivarPoly, b: Branch) -> TruncatedSeries:
    """The series f(x(t), y(t)); order of the result is the valuation of f."""
    prec = min(b.xs.precision, b.ys.precision)
    out = TruncatedSeries.zero(prec)
    xpow: dict[int, TruncatedSeries] = {0: TruncatedSeries.monomial(0, 1, prec)}
    ypow: dict[int, TruncatedSeries] = {0: TruncatedSeries.monomial(0, 1, prec)}

    def power(cache, s, n):
        if n not in cache:
            cache[n] = power(cache, s, n - 1).mul(s)
        return cache[n]

    for (a, bb), c in f.terms:
        term = power(xpow, b.xs, a).mul(power(ypow, b.ys, bb)).scale(c)
        out = out.add(term)
    return out


# -- resultant via Sylvester + Bareiss --------------------------------------

def _bareiss_det(m: list[list[BivarPoly]]) -> BivarPoly:
    n = len(m)
    if n == 0:
        return BivarPoly.const(1)
    m = [row[:] for row in m]
    sign = 1
    prev = BivarPoly.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return BivarPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k].mul(m[i][j]).sub(m[i][k].mul(m[k][j]))
                m[i][j] = num.exact_div(prev)
            m[i][k] = BivarPoly.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det.scale(-1) if sign < 0 else det


def sylvester_resultant(p: list[BivarPoly], q: list[BivarPoly]) -> BivarPoly:
    """Resultant in t of p(t), q(t) given as coefficient lists (low to high)."""
    dp, dq = len(p) - 1, len(q) - 1
    if dp < 1:
        # degenerate: constant p
        out = BivarPoly.const(1)
        for _ in range(dq):
            out = out.mul(p[0])
        return out
    if dq < 1:
        out = BivarPoly.const(1)
        for _ in range(dp):
            out = out.mul(q[0])
        return out
    size = dp + dq
    rows = []
    for i in range(dq):
        row = [BivarPoly.zero()] * size
        for j, c in enumerate(reversed(p)):
            row[i + j] = c
        rows.append(row)
    for i in range(dp):
        row = [BivarPoly.zero()] * size
        for j, c in enumerate(reversed(q)):
            row[i + j] = c
        rows.append(row)
    return _bareiss_det(rows)


def implicitize(b: Branch) -> BivarPoly:
    """Defining polynomial of a polynomial branch with monomial x = t^n.

    Resultant with respect to t of (x - t^n) and (y - y(t)), normalized to
    content 1 and positive leading coefficient in lex term order (y > x).
    """
    if not b.monomial_x():
        raise SeriesError("implicitize requires x to be the monomial t^n")
    n = b.n
    # p(t) = t^n - x
    p = [BivarPoly.zero() for _ in range(n + 1)]
    p[0] = BivarPoly.from_terms({(1, 0): Fraction(-1)})
    p[n] = BivarPoly.const(1)
    # q(t) = y - y(t)
    d = b.ys.degree_bound()
    q = [BivarPoly.zero() for _ in range(d + 1)]
    q[0] = BivarPoly.from_terms({(0, 1): Fraction(1)})
    for e, c in b.ys.terms:
        q[e] = q[e].add(BivarPoly.const(-c))
    while len(q) > 1 and q[-1].is_zero():
        q.pop()
    return sylvester_resultant(p, q).normalized()


# -- text form ----------------------------------------------------------------

def poly_to_text(f: BivarPoly) -> str:
    if f.is_zero():
        return "f = 0"
    parts = []
    for (a, b), c in sorted(f.terms, key=lambda item: _lex_key(item[0]), reverse=True):
        mag = abs(c)
        var = ""
        if a:
            var += "x" if a == 1 else f"x^{a}"
        if b:
            var += "y" if b == 1 else f"y^{b}"
        if not var:
            body = str(mag)
        elif mag == 1:
            body = var
        else:
            body = f"{mag}*{var}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    # the grammar has no unary minus: a negative leading term needs its coefficient
    text = body if sign == "+" else f"-{body}" if body[0].isdigit() else f"-1*{body}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return "f = " + text


def parse_poly(text: str) -> BivarPoly:
    """Parse an `f = ...` document: the branch-file grammar over x and y."""
    return BivarPoly.from_terms(_parse_lines(text, "f", "xy", bare=True)["f"])
