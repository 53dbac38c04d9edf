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

The expansion is in integers from f to the output branch.  The loop works
on one primitive integer term dict {(a, b): coefficient of x^a y^b}, taken
from f's numerators (``BivarPoly.num``; scaling f changes neither its Newton
polygon nor its edge roots), and each edge is one integer substitution pass
over it (``_transform``).  ``_edge_root`` checks the perfect power by
cross-multiplication and returns r as a numerator and denominator, and so
is each coefficient c kept.  Each t-exponent is an integer over the running
denominator denom, the product of the edge heights q so far, and the output
series is built once with ``series._series``.
"""
from __future__ import annotations

import math

from .bivar import BivarPoly, poly_on_branch
from .branch import DEFAULT_PRECISION, MAX_PRECISION, Branch, normalize_branch
from .errors import IrrationalRootError, PrecisionError, PuiseuxError, ReducibleError
from .series import _series


def _iroot(n: int, q: int) -> int | None:
    """Exact integer q-th root of n >= 1 by integer Newton iteration, or None."""
    x = 1 << -(-n.bit_length() // q)  # at least the root
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x if x ** q == n else None
        x = y


def _edge_root(psi: list[int]) -> tuple[int, int, int]:
    """(num, den, d) with psi = psi[d] * (C - num/den)^d, num/den in lowest
    terms and den > 0; ReducibleError if psi is no such power.

    The root is r = -psi[d-1] / (d psi[d]), and psi[k] = psi[d] C(d, k)
    (-r)^(d-k) is checked in integers, both sides multiplied by
    (d psi[d])^(d-k)."""
    d = len(psi) - 1
    lead, below = psi[d], psi[d - 1]
    if any(psi[k] * (d * lead) ** (d - k) != lead * math.comb(d, k) * below ** (d - k)
           for k in range(d)):
        raise ReducibleError("edge equation splits into several branches")
    g = math.gcd(below, d * lead) if lead > 0 else -math.gcd(below, d * lead)
    return -below // g, d * lead // g, d


def _branch_edges(coeffs: dict[tuple[int, int], int]):
    """Negative-slope edges of the Newton polygon at the origin.

    Each edge is (q, m, weight, psi): the edge exponent is m/q in lowest
    terms, psi is the compressed edge polynomial in C = c^q, and the edge is
    a supporting line, so weight = a q + b m on it is the least over f's
    terms, and the terms that reach it are the edge's.
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
        weight = a1 * q + b1 * m
        psi = [0] * (g + 1)
        for (a, b), v in coeffs.items():
            if a * q + b * m == weight:
                psi[(b - b2) // q] += v
        edges.append((q, m, weight, psi))
    return edges


def _transform(f: dict, q: int, m: int, weight: int, num: int, den: int) -> dict:
    """Substitute x -> x^q, y -> x^m (c + y) for c = num/den and divide by
    x^weight, the edge's weight: the edge terms become x^weight P(c + y) for
    the edge polynomial P != 0.  In integers: with B = deg_y f, the result is
    scaled by den^B, each term coef C(b, k) num^(b-k) den^(B-b+k), and its
    content divided out."""
    top = max(b for _, b in f)
    scale = [num ** i * den ** (top - i) for i in range(top + 1)]
    acc: dict[tuple[int, int], int] = {}
    for (a, b), coef in f.items():
        for k in range(b + 1):
            key = (a * q + b * m - weight, k)
            acc[key] = acc.get(key, 0) + coef * math.comb(b, k) * scale[b - k]
    g = math.gcd(*acc.values())
    return {key: v // g for key, v in acc.items() if v}


def newton_puiseux(f: BivarPoly, precision: int = DEFAULT_PRECISION) -> Branch:
    """One rational branch (t^n, y(t)) of f with f(x(t), y(t)) = 0 mod t^precision.

    The product denom of the edge heights q is the multiplicity n: an edge of
    height q*d leaves a polynomial of height d, the multiplicity of its root,
    so denom never exceeds the first height, at most deg_y f.  An edge of
    exponent m/q multiplies the t-exponents by q and appends e q + m after
    the last one e.  So they increase, by at least 1 per edge, and the loop
    runs at most precision + 1 times; and for each prime p of n, the last
    edge whose q it divides appends an exponent prime to p (m is prime to q,
    and later heights to p), so only the truncation can leave n and the
    exponents a common factor.  x = t^n needs precision > n >= 1, so a
    precision outside 2..MAX_PRECISION is refused, and so is one that the
    expansion finds to be at most n."""
    if not 2 <= precision <= MAX_PRECISION:
        raise PrecisionError(f"precision {precision!r} is not between 2 and {MAX_PRECISION}")
    cur = dict(f.num)  # f cleared of its denominator
    if not cur:
        raise PuiseuxError("zero polynomial")
    if all(a > 0 for a, _ in cur):
        raise ReducibleError("x divides f; the y-axis component is out of scope")
    if (0, 0) in cur:
        raise PuiseuxError("f does not vanish at the origin")

    exps: list[int] = []  # t-exponents over denom, increasing
    coefs: list[tuple[int, int]] = []  # their coefficients (num, den), den > 0
    e = 0  # the last t-exponent
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
        if e >= precision:
            break
        edges = _branch_edges(cur)
        if not edges:
            raise PuiseuxError("no branch continuation at the origin")
        if len(edges) > 1:
            raise ReducibleError("Newton polygon has several edges (several branches)")
        q, m, weight, psi = edges[0]
        num, den, last_mult = _edge_root(psi)
        if q % 2 == 0 and num < 0 and denom % 2 == 0:
            # gauge x_k -> -x_k; m is odd, so C -> -C
            cur = {(a, b): -v if (a + e * b) % 2 else v for (a, b), v in cur.items()}
            coefs = [(-cn if x % 2 else cn, cd) for x, (cn, cd) in zip(exps, coefs)]
            num = -num
        root_num, root_den = _iroot(abs(num), q), _iroot(den, q)
        if root_num is None or root_den is None or (num < 0 and q % 2 == 0):
            r = f"{num}/{den}" if den > 1 else f"{num}"
            raise IrrationalRootError(f"edge coefficient needs an irrational {q}-th root of {r}")
        denom *= q
        if denom > deg_y:
            raise PuiseuxError(f"internal: denominator {denom} exceeds deg_y f = {deg_y}")
        e = e * q + m
        exps = [x * q for x in exps] + [e]
        coefs.append((root_num if num > 0 else -root_num, root_den))
        cur = _transform(cur, q, m, weight, *coefs[-1])
    else:
        raise PuiseuxError(f"internal: no stop after {precision + 1} edges")

    if not exact and last_mult > 1:
        raise PrecisionError(
            "precision too small to separate coincident branches (edge root stays multiple)")

    visible = [x for x in exps if x < precision]
    exact = exact and len(visible) == len(exps)  # no known term beyond the truncation
    if math.gcd(denom, *visible) > 1:
        raise PrecisionError(
            "precision too small to separate branches (truncation is non-primitive)")
    if denom >= precision:
        raise PrecisionError(f"precision {precision} cuts away x = t^{denom}")
    y_den = math.lcm(*[cd for _, cd in coefs])
    y_num = [0] * precision
    for x, (cn, cd) in zip(visible, coefs):
        y_num[x] = cn * (y_den // cd)
    xs = _series([0] * denom + [1], 1, precision)
    b = normalize_branch(Branch(xs, _series(y_num, y_den, precision), "", exact))

    res = poly_on_branch(f, b)
    if not res.is_zero():
        raise PuiseuxError(f"internal: residual has visible order {res.order()}")
    return b
