"""Exact bivariate polynomials over Q and implicit equations of branches.

Implicitization eliminates the parameter t from (x - t^n, y - y(t)).  The
resultant of that pair is the norm prod_{tau^n = x} (y - y(tau)) (Cox, Little,
O'Shea, *Ideals, Varieties, and Algorithms*, section 3.6), so it is built from
the power sums of the n conjugates y(tau) and Newton's identities, in integer
polynomial arithmetic, with no determinant.

A ``BivarPoly`` is one exact representation, as a series is: the integer
numerators of its terms, keyed by exponent pair and sorted in lex order
(y > x), over one positive denominator, reduced by the one helper ``_poly``
(no zero numerator, gcd(den, *num) = 1), so equal polynomials compare
equal.  ``terms`` is a cached ``Fraction`` view, and ``from_terms`` the
constructor from rational coefficients; ``parse_poly``, ``implicitize``
(through ``normalized``), ``poly_to_text``, ``implicit_distance`` and
``newton_puiseux`` read and write the integer form.

``poly_on_branch`` evaluates f on a branch x = t^n by Horner in y, on
integer lists: see its docstring.

Polynomial text `f = ...` follows the branch-file grammar of branch.py over
the variables x, y (in that order within a term); `parse_poly` reads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .branch import Branch, _parse_lines
from .errors import SeriesError
from .series import TruncatedSeries, _series, int_poly_mul


def _lex_key(item):
    (a, b), _ = item
    return (b, a)  # lexicographic with y > x


def _poly(num, den: int) -> "BivarPoly":
    """The polynomial sum c/den x^a y^b over the pairs ((a, b), c) of `num`,
    distinct keys and den > 0, in the stored form: sorted, no zero
    numerator, gcd(den, *numerators) = 1."""
    num = sorted([item for item in num if item[1]], key=_lex_key)
    g = math.gcd(den, *[c for _, c in num])
    if g != 1:
        num, den = [(key, c // g) for key, c in num], den // g
    return BivarPoly(tuple(num), den)


@dataclass(frozen=True)
class BivarPoly:
    """Integer numerators over one positive denominator: `num` holds the pairs
    ((a, b), c) of the terms c/den x^a y^b, in lex order (y > x)."""
    num: tuple[tuple[tuple[int, int], int], ...]
    den: int

    @staticmethod
    def from_terms(terms: dict[tuple[int, int], Fraction]) -> "BivarPoly":
        coefs = [(key, Fraction(c)) for key, c in terms.items() if c != 0]
        den = math.lcm(*[c.denominator for _, c in coefs])
        return _poly([(key, c.numerator * (den // c.denominator)) for key, c in coefs], den)

    @cached_property
    def terms(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """The terms ((a, b), coefficient) in lex order (y > x)."""
        return tuple([(key, Fraction(c, self.den)) for key, c in self.num])

    def is_zero(self) -> bool:
        return not self.num

    def implicit_distance(self, x: complex, y: complex) -> float:
        """|f| / |grad f| at the float point (x, y): the first-order distance
        from the point to the curve f = 0.

        f and grad f are evaluated exactly, in Gaussian integers over the
        common power-of-two denominator 2^s of the four float components, with
        the coefficients cleared of their denominators (which leaves the ratio
        unchanged), and the ratio is rounded once.  It is inf where |f| or the
        ratio overflows a float, or where |grad f| <= 1e-300."""
        parts = [c.as_integer_ratio() for z in (x, y) for c in (z.real, z.imag)
                 if math.isfinite(c)]
        if len(parts) < 4:
            return math.inf
        s = max(d for _, d in parts).bit_length() - 1
        xr, xi, yr, yi = (m << (s - d.bit_length() + 1) for m, d in parts)
        den = self.den
        deg = max((a + b for (a, b), _ in self.num), default=0)
        xp = _gauss_powers(xr, xi, max((a for (a, _), _ in self.num), default=0))
        yp = _gauss_powers(yr, yi, max((b for (_, b), _ in self.num), default=0))
        # 2^(s*deg) * den * (f, df/dx * 2^-s, df/dy * 2^-s) as Gaussian integers
        val, gx, gy = [0, 0], [0, 0], [0, 0]
        for (a, b), c in self.num:
            c <<= s * (deg - a - b)
            _gauss_add(val, c, xp[a], yp[b])
            if a:
                _gauss_add(gx, a * c, xp[a - 1], yp[b])
            if b:
                _gauss_add(gy, b * c, xp[a], yp[b - 1])
        val2 = val[0] ** 2 + val[1] ** 2
        grad2 = gx[0] ** 2 + gx[1] ** 2 + gy[0] ** 2 + gy[1] ** 2
        if _saturates(val2, grad2, den, s, deg):
            return math.inf
        return _sqrt_quotient(val2, grad2 << 2 * s)

    def normalized(self) -> "BivarPoly":
        """Content 1, positive leading coefficient (lex order, y > x)."""
        if self.is_zero():
            return self
        g = math.gcd(*[c for _, c in self.num])
        if self.num[-1][1] < 0:
            g = -g
        return BivarPoly(tuple([(key, c // g) for key, c in self.num]), 1)


_TINY_NUM, _TINY_DEN = (1e-300).as_integer_ratio()  # the gradient floor
_TINY_SHIFT = _TINY_DEN.bit_length() - 1  # _TINY_DEN is a power of two


def _shifted_at_least(a: int, sa: int, b: int, sb: int) -> bool:
    """a * 2^sa >= b * 2^sb for integers a, b >= 0: by bit length where the
    lengths differ, exactly only where they tie."""
    if a and b and a.bit_length() + sa != b.bit_length() + sb:
        return a.bit_length() + sa > b.bit_length() + sb
    low = min(sa, sb)
    return a << (sa - low) >= b << (sb - low)


def _saturates(val2: int, grad2: int, den: int, s: int, deg: int) -> bool:
    """Whether ``implicit_distance`` is inf: |f| >= 2^1024 or |grad f| <= 1e-300,
    for val2 = |F|^2 and grad2 = |G|^2 of its scaled integers F = 2^(s*deg)
    den f and G = 2^(s*(deg-1)) den grad f."""
    return _shifted_at_least(val2, 0, den * den, 2 * (1024 + s * deg)) or \
        _shifted_at_least((_TINY_NUM * den) ** 2, 2 * s * max(deg - 1, 0), grad2, 2 * _TINY_SHIFT)


def _gauss_powers(re: int, im: int, top: int) -> list[tuple[int, int]]:
    """(re + i*im)^k for k = 0..top, each as a pair of integers."""
    out = [(1, 0)]
    for _ in range(top):
        a, b = out[-1]
        out.append((a * re - b * im, a * im + b * re))
    return out


def _gauss_add(acc: list[int], c: int, p: tuple[int, int], q: tuple[int, int]) -> None:
    """acc += c * p * q for Gaussian integers p, q."""
    re, im = p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]
    acc[0] += c * re
    acc[1] += c * im


def _sqrt_quotient(num: int, den: int) -> float:
    """sqrt(num / den) for integers num >= 0 < den, rounded once to a float (inf on
    overflow): the integer square root carries 80 bits before the rounding."""
    k = (160 - num.bit_length() + den.bit_length()) // 2
    q = (num << 2 * k) // den if k >= 0 else num // (den << -2 * k)
    try:
        return math.ldexp(float(math.isqrt(q)), -k)
    except OverflowError:
        return math.inf


def poly_on_branch(f: BivarPoly, b: Branch) -> TruncatedSeries:
    """The series f(x(t), y(t)) to precision min(T_x, T_y), for x = t^n; its
    order is the valuation of f.  Horner in y, r <- r y(t) + row_k, where the
    row row_k = sum_a c_ak t^(n a) of y^k writes each x^a as a shift of t.

    In integers: with f = sum_(a,k) C_ak/F x^a y^k and y = Y/d, the Horner
    value after row k, scaled by F d^(K-k) for K = deg_y f, is R <- R Y +
    d^(K-k) sum_a C_ak t^(n a), and the result, R / (F d^K), is reduced
    once.  Every step has precision p = min(T_x, T_y), as with series: a
    product keeps at least the smaller precision of its factors, p or T_y,
    and the sum with a row (precision p) cuts it back to p."""
    if not b.monomial_x():
        raise SeriesError("poly_on_branch requires x to be the monomial t^n")
    n, p = b.n, min(b.xs.precision, b.ys.precision)
    ys, d = b.ys.num, b.ys.den
    rows: dict[int, list[tuple[int, int]]] = {}
    for (a, k), c in f.num:
        if n * a < p:
            rows.setdefault(k, []).append((n * a, c))
    top = max((k for (_, k), _ in f.num), default=0)
    acc: list[int] = []
    scale = 1
    for k in range(top, -1, -1):
        acc = int_poly_mul(acc, ys, p)
        acc += [0] * (p - len(acc))
        for e, c in rows.get(k, ()):
            acc[e] += c * scale
        scale *= d
    return _series(acc, f.den * d ** top, p)


# -- implicit equation as a norm ---------------------------------------------

def implicitize(b: Branch) -> BivarPoly:
    """Defining polynomial of a polynomial branch with monomial x = t^n.

    The norm prod_{tau^n = x} (y - y(tau)), which is the resultant in t of
    (x - t^n) and (y - y(t)), normalized to content 1 and positive leading
    coefficient in lex term order (y > x).  With y(t) = z(t)/den, z integral,
    the conjugates z(tau) have power sums p_k(x) = n * sum_m [t^(mn)] z^k * x^m,
    Newton's identities k*e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i give their
    elementary functions, and den^n * norm = sum_k (-1)^k e_k den^(n-k) y^(n-k).
    """
    if not b.monomial_x():
        raise SeriesError("implicitize requires x to be the monomial t^n")
    n, z, den = b.n, b.ys.num, b.ys.den
    power_sums, zk = [], z
    for k in range(1, n + 1):
        power_sums.append([n * c for c in zk[::n]])
        if k < n:
            zk = int_poly_mul(zk, z)
    elem = [[1]]
    for k in range(1, n + 1):
        acc: list[int] = []
        for i in range(1, k + 1):
            term = int_poly_mul(elem[k - i], power_sums[i - 1])
            acc += [0] * (len(term) - len(acc))
            for m, c in enumerate(term):
                acc[m] += c if i % 2 else -c
        # e_k is a coefficient of the norm of an integral polynomial: exact
        elem.append([c // k for c in acc])
    return _poly([((m, n - k), (-1) ** k * c * den ** (n - k))
                  for k, e_k in enumerate(elem) for m, c in enumerate(e_k)], 1).normalized()

# -- text form ----------------------------------------------------------------

def poly_to_text(f: BivarPoly) -> str:
    if f.is_zero():
        return "f = 0"
    parts = []
    for (a, b), c in reversed(f.num):
        g = math.gcd(c, f.den)
        mag, den = abs(c) // g, f.den // g
        var = ""
        if a:
            var += "x" if a == 1 else f"x^{a}"
        if b:
            var += "y" if b == 1 else f"y^{b}"
        coef = str(mag) if den == 1 else f"{mag}/{den}"
        if not var:
            body = coef
        elif mag == den == 1:
            body = var
        else:
            body = f"{coef}*{var}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    # a negative leading term keeps its coefficient (-1*x), the text the goldens pin
    text = body if sign == "+" else f"-{body}" if body[0].isdigit() else f"-1*{body}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return "f = " + text


def parse_poly(text: str) -> BivarPoly:
    """Parse an `f = ...` document: the branch-file grammar over x and y."""
    terms, den = _parse_lines(text, "f", "xy", bare=True)["f"][0]
    return _poly(terms.items(), den)
