"""Reference implementations the package is checked against; not package code.

``sylvester_oracle(b)`` is the resultant in t of (t^n - x) and (y - y(t)),
taken as the determinant of the (n+d)x(n+d) Sylvester matrix by Bareiss
fraction-free elimination, so every intermediate entry stays a polynomial.
``germflow.implicitize`` computes the same resultant as a norm, from power
sums and Newton's identities; after ``normalized()`` the two must agree
exactly.  The ``BivarPoly`` arithmetic below exists only for this oracle
and the tests: ``as_dict``, ``leading`` and ``scale`` read and rescale a
polynomial's ``Fraction`` view, which the package never needs.

``float_eval`` and ``float_grad`` evaluate a ``BivarPoly`` and its gradient in
floating point, as the package once did for its implicit cross-check; the
tests measure the exact ``BivarPoly.implicit_distance`` against them.
``implicit_saturates_by_products`` is that check's overflow and flat-gradient
guard as first written, with both comparisons built in full; the package
decides them by bit length first and must give the same answer.

``semigroup_elements`` and ``proximity_matrix`` are the explicit forms of
the semigroup and of the proximity relation that the invariant and
resolution tests check against.

``grid_distance`` is the distance to a branch's real trace as the package
once measured it: a scan of a parameter grid, then a golden-section search
around every local minimum.  ``two_sheet_grid`` builds such a grid over
both signs of t, and ``bisect_parameter_radius`` is the fixed 200-step
bisection that ``find_parameter_radius`` replaced with a loop that stops
once its bracket is two adjacent floats.

``poly_on_branch_by_terms`` is f(x(t), y(t)) as the package once computed
it: every term c x^a y^b as a product of cached powers of x(t) and y(t).
``germflow.poly_on_branch`` computes it by Horner in y, with each x-power a
shift of t, and must give the same terms and precision.

``coefficient`` and ``shift`` read one coefficient of a series and multiply
it by t^k; only the tests use them.

``divide_by_inverse`` divides two series by inverting the shifted divisor
term by term in ``Fraction`` arithmetic and multiplying; it shares no code
with the package's long division ``series._quotient``, and ``divide`` must
give the same quotient, precision and errors.

``in_terms_of_by_powers`` reads a graph off a series as the package once
did: triangular elimination against the table of powers base^j mod t^p, with
O(p^3/6) integer multiply-adds at precision p.  ``in_terms_of`` deflates
through the unit t/base instead, and must give the same numerators,
denominator and precision.

``chart_step``, ``chart_slope`` and ``chart_blowup_step`` are the blowup step
as the package once took it, in two steps: a division (here
``divide_by_inverse``) and then ``add_const(-c)``, each reducing its result,
with chart B as chart A of the ``swapped`` state and the slope as the
quotient of the two ``leading()`` coefficients.  ``resolution.apply_step``
and ``blowup_step`` take the step in one integer pass and must give the same
states, records and errors.

``parse_lines_by_tokens`` is the text grammar's reader as the package once
had it: a tokenizer that matches one token at a time and a recursive-descent
term parser with ``peek``/``take``, summing ``Fraction`` coefficients.
``branch._parse_lines`` reads each line in one token scan and one index
loop over integer numerators and denominators, and must give the same terms
and the same ``ParseError`` (message, line and column).

``edge_root_by_fractions`` is the Newton-polygon edge check in ``Fraction``
arithmetic: the root r = -psi[d-1] / (d psi[d]) and the comparison of each
psi[k] with psi[d] C(d, k) (-r)^(d-k).  ``puiseux._edge_root`` checks the same
identities cross-multiplied in integers, and must give the same root and
raise ``ReducibleError`` in the same cases.

``distance_by_complex_eval`` is ``isotopy.distance_to_branch`` as first
written, reading x, y and y' through complex Horner at complex(t); the
package reads them through ``eval_real`` and must return the same float,
also above exponent 100, since ``eval`` takes every power by binary powering.

``glued_flow`` is the time-1 flow of a stage field glued by its cut-off
``bump_value``, integrated by fixed-step RK4 from the raw speed
(``raw_speed``, with the multiplicative rate ``log_ratio``).  The package never
integrates: it takes each stage's closed form inside the ball of radius
``bump`` on which the cut-off is 1, and these are the reference it is
checked against.
"""
from __future__ import annotations

import cmath
import math
import operator
import re
from fractions import Fraction

from germflow import Branch, BivarPoly, GraphMatch, Multiplicative, eval_branch
from germflow.errors import (ParseError, PrecisionError, ReducibleError, ResolutionError,
                             SeriesError)
from germflow.resolution import INF, ChartState, ResolutionData, StepRecord, reciprocal, swapped
from germflow.series import TruncatedSeries, _series, _store_reduced, int_poly_mul


# -- polynomial arithmetic ------------------------------------------------------

def zero() -> BivarPoly:
    return BivarPoly.from_terms({})


def const(c) -> BivarPoly:
    return BivarPoly.from_terms({(0, 0): Fraction(c)})


def as_dict(p: BivarPoly) -> dict[tuple[int, int], Fraction]:
    return dict(p.terms)


def leading(p: BivarPoly) -> tuple[tuple[int, int], Fraction]:
    """Leading term in lexicographic order with y > x."""
    if p.is_zero():
        raise SeriesError("zero polynomial has no leading term")
    return p.terms[-1]


def scale(p: BivarPoly, c) -> BivarPoly:
    return BivarPoly.from_terms({key: v * Fraction(c) for key, v in p.terms})


def add(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    acc = as_dict(p)
    for k, c in q.terms:
        acc[k] = acc.get(k, Fraction(0)) + c
    return BivarPoly.from_terms(acc)


def sub(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    return add(p, scale(q, -1))


def mul(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    acc: dict[tuple[int, int], Fraction] = {}
    for (a1, b1), c1 in p.terms:
        for (a2, b2), c2 in q.terms:
            k = (a1 + a2, b1 + b2)
            acc[k] = acc.get(k, Fraction(0)) + c1 * c2
    return BivarPoly.from_terms(acc)


def mul_term(p: BivarPoly, a: int, b: int, c) -> BivarPoly:
    c = Fraction(c)
    if c == 0:
        return zero()
    return BivarPoly.from_terms({(ka + a, kb + b): v * c for (ka, kb), v in p.terms})


def exact_div(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    """Exact quotient p / q; raises if the division has a remainder."""
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rem = p
    quo: dict[tuple[int, int], Fraction] = {}
    (da, db), dc = leading(q)
    while not rem.is_zero():
        (ra, rb), rc = leading(rem)
        qa, qb = ra - da, rb - db
        if qa < 0 or qb < 0:
            raise SeriesError("polynomial division is not exact")
        qc = rc / dc
        quo[(qa, qb)] = quo.get((qa, qb), Fraction(0)) + qc
        rem = sub(rem, mul_term(q, qa, qb, qc))
    return BivarPoly.from_terms(quo)


# -- floating-point evaluation ---------------------------------------------------

def float_eval(f: BivarPoly, x: complex, y: complex) -> complex:
    """Value at (x, y) in floating point; an overflowing power saturates to inf."""
    try:
        return sum(float(c) * x ** a * y ** b for (a, b), c in f.terms)
    except OverflowError:
        return complex(math.inf, 0.0)


def float_grad(f: BivarPoly, x: complex, y: complex) -> tuple[complex, complex]:
    """(df/dx, df/dy) at (x, y) in floating point, saturated like `float_eval`."""
    try:
        fx = sum(float(c) * a * x ** (a - 1) * y ** b for (a, b), c in f.terms if a)
        fy = sum(float(c) * b * x ** a * y ** (b - 1) for (a, b), c in f.terms if b)
    except OverflowError:
        return complex(math.inf, 0.0), complex(math.inf, 0.0)
    return fx, fy


# -- resultant via Sylvester + Bareiss ------------------------------------------

def _bareiss_det(m: list[list[BivarPoly]]) -> BivarPoly:
    n = len(m)
    if n == 0:
        return const(1)
    m = [row[:] for row in m]
    sign = 1
    prev = const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = sub(mul(m[k][k], m[i][j]), mul(m[i][k], m[k][j]))
                m[i][j] = exact_div(num, prev)
            m[i][k] = zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return scale(det, -1) if sign < 0 else det


def sylvester_resultant(p: list[BivarPoly], q: list[BivarPoly]) -> BivarPoly:
    """Resultant in t of p(t), q(t) given as coefficient lists (low to high)."""
    dp, dq = len(p) - 1, len(q) - 1
    if dp < 1:
        # degenerate: constant p
        out = const(1)
        for _ in range(dq):
            out = mul(out, p[0])
        return out
    if dq < 1:
        out = const(1)
        for _ in range(dp):
            out = mul(out, q[0])
        return out
    size = dp + dq
    rows = []
    for i in range(dq):
        row = [zero()] * size
        for j, c in enumerate(reversed(p)):
            row[i + j] = c
        rows.append(row)
    for i in range(dp):
        row = [zero()] * size
        for j, c in enumerate(reversed(q)):
            row[i + j] = c
        rows.append(row)
    return _bareiss_det(rows)


def sylvester_oracle(b: Branch) -> BivarPoly:
    """Unnormalized resultant in t of (t^n - x) and (y - y(t)) for x = t^n."""
    n = b.n
    # p(t) = t^n - x
    p = [zero() for _ in range(n + 1)]
    p[0] = BivarPoly.from_terms({(1, 0): Fraction(-1)})
    p[n] = const(1)
    # q(t) = y - y(t)
    d = max(b.ys.support(), default=0)
    q = [zero() for _ in range(d + 1)]
    q[0] = BivarPoly.from_terms({(0, 1): Fraction(1)})
    for e, c in b.ys.terms:
        q[e] = add(q[e], const(-c))
    while len(q) > 1 and q[-1].is_zero():
        q.pop()
    return sylvester_resultant(p, q)


# -- semigroup and proximities ----------------------------------------------------

def semigroup_elements(gens, bound: int) -> set[int]:
    """All elements below bound of the semigroup generated by gens."""
    reached = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = v + g
            if w < bound and w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached


def proximity_matrix(rd: ResolutionData) -> list[list[int]]:
    """P[j][j] = 1 and P[j][i-1] = -1 when centre j+1 is proximate to E_i."""
    r = rd.r
    mat = [[0] * r for _ in range(r)]
    for j, rec in enumerate(rd.steps):
        mat[j][j] = 1
        for i in rec.proximate_to:
            mat[j][i - 1] = -1
    return mat


# -- distance to the real trace and the sample window -------------------------------

def golden_min(fn, lo: float, hi: float, iters: int = 80) -> float:
    """Golden-section search for a minimum of fn on [lo, hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def two_sheet_grid(tmax: float, count: int) -> list[float]:
    """0 and +-count log-spaced parameters from tmax * 10^-4 to tmax."""
    dense = [tmax * 10.0 ** (-4.0 * (1.0 - j / (count - 1.0))) for j in range(count)]
    return sorted([-t for t in dense] + [0.0] + dense)


def grid_distance(p, b: Branch, grid: list[float]) -> float:
    """Distance from p to the real trace of b over the grid's span: scan, then
    golden-refine around every local minimum of the scan."""
    def gap(t):
        x, y = eval_branch(b, complex(t))
        return math.hypot((p[0] - x).real, (p[0] - x).imag,
                          (p[1] - y).real, (p[1] - y).imag)

    gaps = [gap(t) for t in grid]
    best = min(gaps)
    last = len(grid) - 1
    for k in range(len(grid)):
        if (k == 0 or gaps[k] <= gaps[k - 1]) and (k == last or gaps[k] <= gaps[k + 1]):
            t = golden_min(gap, grid[max(0, k - 1)], grid[min(last, k + 1)])
            best = min(best, gap(t))
    return best


def bisect_parameter_radius(b: Branch, radius: float) -> float:
    """``find_parameter_radius`` with a fixed count of 200 bisections."""
    def mag(t):
        x, y = eval_branch(b, complex(t))
        return math.hypot(x.real, x.imag, y.real, y.imag)

    hi = 1e-6
    while mag(hi) < radius and hi < 1e9:
        hi *= 2.0
    while hi > 1e-300 and mag(0.5 * hi) >= radius:
        hi *= 0.5
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mag(mid) < radius:
            lo = mid
        else:
            hi = mid
    return hi


def poly_on_branch_by_terms(f: BivarPoly, b: Branch) -> TruncatedSeries:
    """The series f(x(t), y(t)), term by term, to precision min(T_x, T_y)."""
    prec = min(b.xs.precision, b.ys.precision)
    out = TruncatedSeries.zero(prec)
    xpow = {0: TruncatedSeries.monomial(0, 1, prec)}
    ypow = {0: TruncatedSeries.monomial(0, 1, prec)}

    def power(cache, s, n):
        if n not in cache:
            cache[n] = power(cache, s, n - 1).mul(s)
        return cache[n]

    for (a, bb), c in f.terms:
        out = out.add(power(xpow, b.xs, a).mul(power(ypow, b.ys, bb)).scale(c))
    return out


# -- the text grammar, one token at a time ---------------------------------------------

def _tokenize(text: str, line_no: int, offset: int, variables: str):
    token = re.compile(rf"\s*(?:(?P<int>[0-9]+)|(?P<sym>[{variables}^*/+-]))")
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
        if kind == "int":
            try:
                tokens.append(("int", int(tok), col))
            except ValueError:  # longer than the interpreter's int-from-text digit limit
                raise ParseError("integer too long", line_no, col) from None
        else:
            tokens.append((tok, None, col))
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
        if self.peek()[0] == "-":  # the first term may follow one minus
            self.take()
            sign = -1
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


def parse_lines_by_tokens(text: str, names: str, variables: str, bare: bool):
    """{name: ({exponents: Fraction}, (line, col))} of a `name = body`
    document, one line per name; (line, col) is where the body starts."""
    head = re.compile(rf"\s*([{names}])\s*=")
    bodies: dict[str, tuple[dict[tuple[int, ...], Fraction], tuple[int, int]]] = {}
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
        terms = _TermParser(tokens, line_no, variables, bare).parse_terms()
        bodies[name] = terms, (line_no, tokens[0][2])
    for name in names:
        if name not in bodies:
            raise ParseError(f"missing {name}-line", 1, 1)
    return bodies


# -- the Newton-polygon edge check in Fraction arithmetic --------------------------------

def edge_root_by_fractions(psi) -> tuple[Fraction, int]:
    """(r, d) with psi = psi[d] * (C - r)^d; ReducibleError if psi is no such power."""
    psi = [Fraction(c) for c in psi]
    d = len(psi) - 1
    r = -psi[d - 1] / (d * psi[d])
    if any(psi[k] != psi[d] * math.comb(d, k) * (-r) ** (d - k) for k in range(d)):
        raise ReducibleError("edge equation splits into several branches")
    return r, d


# -- series helpers the tests use ---------------------------------------------------

def coefficient(s: TruncatedSeries, exp: int) -> Fraction:
    """The t^exp coefficient of s; PrecisionError at or beyond its precision."""
    if exp >= s.precision:
        raise PrecisionError(f"coefficient of t^{exp} beyond precision {s.precision}")
    return dict(s.terms).get(exp, Fraction(0))


def shift(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """s times t^k (k may be negative if every exponent allows it)."""
    return TruncatedSeries.from_terms({e + k: c for e, c in s.terms}, s.precision + k)


def divide_by_inverse(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a / b: invert the divisor shifted down by its order, then multiply."""
    ob = b.order()
    if ob is None:
        raise PrecisionError("divisor is zero up to its precision")
    oa = a.order()
    if oa is not None and oa < ob:
        raise SeriesError(f"quotient not a power series (orders {oa} < {ob})")
    prec = min(a.precision, b.precision + (a.precision if oa is None else oa) - ob) - ob
    if prec <= 0:
        raise PrecisionError("no precision left in quotient")
    if oa is None:
        return TruncatedSeries.zero(prec)
    unit = shift(b, -ob)
    p = min(prec, unit.precision)
    c0 = unit.leading()
    inv = {0: 1 / c0}
    for k in range(1, p):
        s = sum((c * inv.get(k - e, 0) for e, c in unit.terms if 0 < e <= k), Fraction(0))
        if s:
            inv[k] = -s / c0
    return shift(a, -ob).mul(TruncatedSeries.from_terms(inv, p)).truncate(prec)


def in_terms_of_by_powers(s: TruncatedSeries, base: TruncatedSeries) -> TruncatedSeries:
    """g with g(base(t)) = s(t) mod t^min(T_s, T_base), by fraction-free
    triangular elimination against the table of powers of base."""
    if base.order() != 1:
        raise SeriesError("graph elimination needs a base of order exactly 1")
    p = min(s.precision, base.precision)
    if s._order_floor() >= p:
        return TruncatedSeries.zero(p)
    # with B = base.den * base, h_j = g_j / base.den^j solves s = sum_j h_j B^j,
    # so h_k = (s_k - sum_{j<k} h_j [t^k]B^j) / lead^k, lead the t^1 numerator
    target = s.num[:p] + (0,) * (p - len(s.num))
    lead = base.num[1]
    scaled = base.num[:p]
    powers = [[1] + [0] * (p - 1)]
    for _ in range(1, p):
        powers.append(int_poly_mul(powers[-1], scaled, p))
    # h_j = num[j] / (common * s.den), so the pulled sum is one dot product
    num, common, lead_k = [0] * p, 1, 1
    for k, column in enumerate(zip(*powers)):
        r = target[k] * common - sum(map(operator.mul, num, column))
        if r:
            common = _store_reduced(num, k, r, common * lead_k, common)
        lead_k *= lead
    return _series([x * base.den ** k for k, x in enumerate(num)], common * s.den, p)


# -- the blowup step in two passes ---------------------------------------------------

def chart_multiplicity(state: ChartState) -> int:
    ox, oy = state.xs.order(), state.ys.order()
    if ox is None and oy is None:
        raise ResolutionError("degenerate state: both coordinates vanish identically")
    if ox is None:
        return chart_multiplicity(swapped(state))
    if oy is None and ox > state.ys.precision:
        raise PrecisionError("cannot compare orders at this precision")
    return ox if oy is None else min(ox, oy)


def chart_slope(state: ChartState):
    """The tangent slope: a Fraction, or INF along {u = 0}."""
    ox, oy = state.xs.order(), state.ys.order()
    if ox is None and oy is None:
        raise ResolutionError("degenerate state")
    if ox is None or (oy is not None and oy < ox):
        return reciprocal(chart_slope(swapped(state)))
    if oy is None and ox >= state.ys.precision:
        raise PrecisionError("cannot decide the tangent direction at this precision")
    if oy is None or oy > ox:
        return Fraction(0)
    return state.ys.leading() / state.xs.leading()


def chart_step(state: ChartState, chart: str, c) -> ChartState:
    """One blowup in the given chart, recentred by translation c."""
    if chart == "B":
        return swapped(chart_step(swapped(state), "A", c))
    v = divide_by_inverse(state.ys, state.xs).add_const(-c)
    if v.order() == 0:
        raise ResolutionError("translation does not move the centre to the chart origin")
    return ChartState(state.xs, v, state.level + 1, state.v_label if c == 0 else None,
                      state.level + 1)


def chart_blowup_step(state: ChartState) -> tuple[ChartState, StepRecord]:
    m = chart_multiplicity(state)
    prox = state.labels()
    slope = chart_slope(state)
    chart, c = ("B", Fraction(0)) if slope is INF else ("A", Fraction(slope))
    rec = StepRecord(state.level + 1, m, prox, len(prox) == 2, chart, c)
    return chart_step(state, chart, c), rec


# -- the glued stage field, integrated by RK4 ------------------------------------------

def bump_value(bump: float, p) -> float:
    """The cut-off: 1 on the closed ball of radius `bump` about the origin, 0
    outside twice that radius, smooth in between."""
    r = math.hypot(p[0].real, p[0].imag, p[1].real, p[1].imag)
    if r <= bump:
        return 1.0
    if r >= 2.0 * bump:
        return 0.0
    s = (r - bump) / bump
    hi = math.exp(-1.0 / (1.0 - s))
    lo = math.exp(-1.0 / s)
    return hi / (hi + lo)


def log_ratio(f: Multiplicative) -> complex:
    """lambda, the principal log of the ratio: the multiplicative field's rate."""
    return cmath.log(float(f.ratio))


def raw_speed(f, fixed: complex):
    """The raw field's speed as a function of the moving coordinate w."""
    if isinstance(f, Multiplicative):
        rate, a = log_ratio(f), float(f.shear)
        return lambda w: rate * (w - a * fixed)
    gap = f.gap.eval(fixed) if isinstance(f, GraphMatch) else float(f.amount) * fixed
    return lambda w: gap


def glued_flow(f, p, h: float = 1e-3):
    """Time-1 flow of the glued field rho * raw by classical fixed-step RK4
    at step h on the moving coordinate alone; the fixed coordinate is
    returned as given.  The package once ran this wherever a trajectory may
    leave the ball of radius f.bump; its closed forms are checked against it."""
    moves_v = f.orientation == "v"
    fixed, w = p if moves_v else p[::-1]
    speed = raw_speed(f, fixed)

    def fn(w):
        rho = 1.0 if f.bump is None else bump_value(f.bump, (fixed, w) if moves_v else (w, fixed))
        return 0j if rho == 0.0 else rho * speed(w)

    n = max(1, round(1.0 / h))
    step = 1.0 / n
    for _ in range(n):
        k1 = fn(w)
        k2 = fn(w + 0.5 * step * k1)
        k3 = fn(w + 0.5 * step * k2)
        k4 = fn(w + step * k3)
        w = w + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return (fixed, w) if moves_v else (w, fixed)


def implicit_saturates_by_products(val2: int, grad2: int, den: int, s: int, deg: int) -> bool:
    """The guards of ``BivarPoly.implicit_distance`` as first written, each a
    comparison of two integers built in full (about 2000 bits for the
    gradient floor): |f| >= 2^1024, or |grad f| <= 1e-300."""
    if val2 >= den ** 2 << 2 * (1024 + s * deg):
        return True
    tiny_num, tiny_den = (1e-300).as_integer_ratio()
    return grad2 * tiny_den ** 2 <= (tiny_num * den) ** 2 << 2 * s * max(deg - 1, 0)


def distance_by_complex_eval(p, b: Branch, iters: int = 50) -> float:
    """Gauss-Newton distance from p to b's real trace, every value taken by
    complex Horner (``eval_branch``) at complex(t)."""
    def norm(q):
        return math.hypot(q[0].real, q[0].imag, q[1].real, q[1].imag)

    n, dy = b.n, b.ys.derivative()
    best = norm(p)
    t0 = abs(p[0].real) ** (1.0 / n)
    for t in (t0, -t0):
        for _ in range(iters):
            try:
                x, y = eval_branch(b, complex(t))
                jx, jy = n * t ** (n - 1), dy.eval(complex(t))
                jj = jx * jx + abs(jy) ** 2
            except OverflowError:
                break
            fx, fy = x - p[0], y - p[1]
            best = min(best, norm((fx, fy)))
            if not 0.0 < jj < math.inf:
                break
            step = (jx * fx + jy.conjugate() * fy).real / jj
            if abs(step) < 1e-16 * abs(t):
                break
            t -= step
    return best
