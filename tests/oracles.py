"""Reference implementations the package is checked against; not package code.

``sylvester_oracle(b)`` is the resultant in t of (t^n - x) and (y - y(t)),
taken as the determinant of the (n+d)x(n+d) Sylvester matrix by Bareiss
fraction-free elimination, so every intermediate entry stays a polynomial.
``germflow.implicitize`` computes the same resultant as a norm, from power
sums and Newton's identities; after ``normalized()`` the two must agree
exactly.  The ``BivarPoly`` arithmetic below exists only for this oracle.

``float_eval`` and ``float_grad`` evaluate a ``BivarPoly`` and its gradient in
floating point, as the package once did for its implicit cross-check; the
tests measure the exact ``BivarPoly.implicit_distance`` against them.

``semigroup_elements`` and ``proximity_matrix`` are the explicit forms of
the semigroup and of the proximity relation that the invariant and
resolution tests check against.

``grid_distance`` is the distance to a branch's real trace as the package
once measured it: a scan of a parameter grid, then a golden-section search
around every local minimum.  ``two_sheet_grid`` builds such a grid over
both signs of t, and ``bisect_parameter_radius`` is the fixed 200-step
bisection that ``find_parameter_radius`` replaced with a loop that stops
once its bracket is two adjacent floats.
"""
from __future__ import annotations

import math
from fractions import Fraction

from germflow import Branch, BivarPoly, eval_branch
from germflow.errors import SeriesError
from germflow.resolution import ResolutionData


# -- polynomial arithmetic ------------------------------------------------------

def zero() -> BivarPoly:
    return BivarPoly(())


def const(c) -> BivarPoly:
    return BivarPoly.from_terms({(0, 0): Fraction(c)})


def add(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    acc = p.as_dict()
    for k, c in q.terms:
        acc[k] = acc.get(k, Fraction(0)) + c
    return BivarPoly.from_terms(acc)


def sub(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    return add(p, q.scale(-1))


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
    (da, db), dc = q.leading()
    while not rem.is_zero():
        (ra, rb), rc = rem.leading()
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
    return det.scale(-1) if sign < 0 else det


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
    d = b.ys.degree_bound()
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
