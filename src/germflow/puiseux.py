"""Newton-Puiseux expansion of one rational branch of f(x, y) = 0.

The classical Newton-polygon iteration, restricted to rational data.  Along
an irreducible germ every step has a single Newton-polygon edge, and its
edge polynomial in C = c^q is a perfect power lc * (C - r)^d (Casas-Alvero,
Singularities of Plane Curves, 2000; Wall, Singular Points of Plane Curves,
2004).  So the root is read off in closed form, r = -psi[d-1] / (d psi[d]),
and the power structure is checked exactly: an edge polynomial that is not a
perfect power (C^2 - 2, C^2 + 1, a node) means several branches over C and
is refused with ReducibleError.  The coefficient c is the exact rational q-th
root of r; when it does not exist the expansion is refused with
IrrationalRootError instead of a floating approximation.

An edge with even q and r < 0 after an even denominator only reflects the
sign chosen for earlier roots: the gauge x_k -> -x_k of the current
parameter leaves x = x_k^denom fixed and turns C into -C.

The loop works on one term dict {(a, b): coefficient of x^a y^b}, a primitive
integer polynomial: it starts from f's integer numerators (``BivarPoly.num``,
so f's denominator is cleared for free), and each edge is one integer
substitution pass over it (``_transform``).  Scaling f by a nonzero
constant changes neither its Newton polygon nor its edge roots.  The edge
polynomial psi keeps integer coefficients too: ``_edge_root`` checks the
perfect power by cross-multiplication and builds one ``Fraction``, the
root.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .bivar import BivarPoly, poly_on_branch
from .branch import DEFAULT_PRECISION, MAX_PRECISION, Branch, normalize_branch
from .errors import IrrationalRootError, PrecisionError, PuiseuxError, ReducibleError
from .series import TruncatedSeries


def _iroot(n: int, q: int) -> int | None:
    """Exact integer q-th root of n >= 1 by integer Newton iteration, or None."""
    x = 1 << -(-n.bit_length() // q)  # at least the root
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x if x ** q == n else None
        x = y


def _edge_root(psi: list[int]) -> tuple[Fraction, int]:
    """(r, d) with psi = psi[d] * (C - r)^d; ReducibleError if psi is no such power.

    r = -psi[d-1] / (d psi[d]), and psi[k] = psi[d] C(d, k) (-r)^(d-k) is
    checked in integers, both sides multiplied by (d psi[d])^(d-k)."""
    d = len(psi) - 1
    lead, below = psi[d], psi[d - 1]
    if any(psi[k] * (d * lead) ** (d - k) != lead * math.comb(d, k) * below ** (d - k)
           for k in range(d)):
        raise ReducibleError("edge equation splits into several branches")
    return Fraction(-below, d * lead), d


def _branch_edges(coeffs: dict[tuple[int, int], int]):
    """Negative-slope edges of the Newton polygon at the origin.

    Each edge is (q, m, psi): the edge exponent is m/q in lowest terms and
    psi is the compressed edge polynomial in C = c^q.
    """
    minb: dict[int, int] = {}
    for a, b in coeffs:
        if a not in minb or b < minb[a]:
            minb[a] = b
    pts = sorted(minb.items())
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    edges = []
    for (a1, b1), (a2, b2) in zip(hull, hull[1:]):
        if b2 >= b1:
            continue
        g = math.gcd(a2 - a1, b1 - b2)
        q, m = (b1 - b2) // g, (a2 - a1) // g
        on_edge = [(a, b) for (a, b) in coeffs
                   if (a - a1) * (b2 - b1) == (b - b1) * (a2 - a1) and a1 <= a <= a2]
        b_low = min(b for _, b in on_edge)
        deg = max((b - b_low) // q for _, b in on_edge)
        psi = [0] * (deg + 1)
        for a, b in on_edge:
            psi[(b - b_low) // q] += coeffs[(a, b)]
        edges.append((q, m, psi))
    return edges


def _transform(f: dict, q: int, m: int, c: Fraction) -> dict:
    """Substitute x -> x^q, y -> x^m (c + y) and divide by x^L, L = min(a q + b m):
    the edge terms become x^L P(c + y) for the edge polynomial P != 0.  In
    integers: with c = num/den and B = deg_y f, the result is scaled by den^B,
    each term coef C(b, k) num^(b-k) den^(B-b+k), and its content divided out."""
    shift = min(a * q + b * m for a, b in f)
    top = max(b for _, b in f)
    scale = [c.numerator ** i * c.denominator ** (top - i) for i in range(top + 1)]
    acc: dict[tuple[int, int], int] = {}
    for (a, b), coef in f.items():
        for k in range(b + 1):
            key = (a * q + b * m - shift, k)
            acc[key] = acc.get(key, 0) + coef * math.comb(b, k) * scale[b - k]
    g = math.gcd(*acc.values())
    return {key: v // g for key, v in acc.items() if v}


def newton_puiseux(f: BivarPoly, precision: int = DEFAULT_PRECISION) -> Branch:
    """One rational branch (t^n, y(t)) of f with f(x(t), y(t)) = 0 mod t^precision.

    The product of the edge denominators is the branch's multiplicity: an
    edge of height q*d leaves a polynomial of height d, the multiplicity of
    its root, so the product never exceeds the first height, at most deg_y f.
    Each edge raises gamma * denom by at least 1, so after `precision` edges
    the expansion stops: the loop runs at most precision + 1 times.  x = t^n
    needs precision > n >= 1, so a precision outside 2..MAX_PRECISION is refused."""
    if not 2 <= precision <= MAX_PRECISION:
        raise PrecisionError(f"precision {precision!r} is not between 2 and {MAX_PRECISION}")
    cur = dict(f.num)  # f cleared of its denominator
    if not cur:
        raise PuiseuxError("zero polynomial")
    if all(a > 0 for a, _ in cur):
        raise ReducibleError("x divides f; the y-axis component is out of scope")
    if (0, 0) in cur:
        raise PuiseuxError("f does not vanish at the origin")

    out_terms: list[tuple[Fraction, Fraction]] = []  # (x-exponent, coefficient)
    gamma = Fraction(0)
    denom = 1
    exact = False
    last_mult = 1
    deg_y = max(b for _, b in cur)

    for _ in range(precision + 1):
        if all(b > 0 for _, b in cur):
            if min(b for _, b in cur) > 1:
                raise ReducibleError("f has a multiple branch (square factor)")
            exact = True
            break
        if out_terms and out_terms[-1][0] * denom >= precision:
            break
        edges = _branch_edges(cur)
        if not edges:
            raise PuiseuxError("no branch continuation at the origin")
        if len(edges) > 1:
            raise ReducibleError("Newton polygon has several edges (several branches)")
        q, m, psi = edges[0]
        r, last_mult = _edge_root(psi)
        if q % 2 == 0 and r < 0 and denom % 2 == 0:
            # gauge x_k -> -x_k; m is odd, so C -> -C
            e = int(gamma * denom)
            cur = {(a, b): -v if (a + e * b) % 2 else v for (a, b), v in cur.items()}
            out_terms = [(g, -c if int(g * denom) % 2 else c) for g, c in out_terms]
            r = -r
        num, den = _iroot(abs(r.numerator), q), _iroot(r.denominator, q)
        if num is None or den is None or (r < 0 and q % 2 == 0):
            raise IrrationalRootError(
                f"edge coefficient needs an irrational {q}-th root of {r}")
        c = Fraction(num if r > 0 else -num, den)
        denom *= q
        if denom > deg_y:
            raise PuiseuxError(f"internal: denominator {denom} exceeds deg_y f = {deg_y}")
        gamma = gamma + Fraction(m, denom)
        out_terms.append((gamma, c))
        cur = _transform(cur, q, m, c)
    else:
        raise PuiseuxError(f"internal: no stop after {precision + 1} edges")

    if not exact and last_mult > 1:
        raise PrecisionError(
            "precision too small to separate coincident branches (edge root stays multiple)")

    n = denom
    exps = [int(g * n) for g, _ in out_terms]
    if any(g * n != e for (g, _), e in zip(out_terms, exps)):
        raise PuiseuxError("internal: non-integral t-exponent")
    red = math.gcd(n, *exps) if exps else n
    if red > 1:
        if not exact:
            raise PrecisionError(
                "precision too small to separate branches (truncation is non-primitive)")
        n //= red
        exps = [e // red for e in exps]

    y_terms: dict[int, Fraction] = {}
    for (_, c), e in zip(out_terms, exps):
        if e < precision:
            y_terms[e] = y_terms.get(e, Fraction(0)) + c
        else:
            exact = False  # a known term falls beyond the requested truncation
    visible = [n] + sorted(y_terms)
    if math.gcd(*visible) > 1:
        raise PrecisionError(
            "precision too small to separate branches (truncation is non-primitive)")
    xs = TruncatedSeries.monomial(n, 1, precision)
    ys = TruncatedSeries.from_terms(y_terms, precision)
    b = normalize_branch(Branch(xs, ys, label="", exact=exact))

    res = poly_on_branch(f, b)
    if not res.is_zero():
        raise PuiseuxError(f"internal: residual has visible order {res.order()}")
    return b
