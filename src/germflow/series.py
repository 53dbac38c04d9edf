"""Exact truncated power series in one variable over the rationals.

A series is a dense tuple ``num`` of the integer numerators of t^0, t^1, ...
over one positive denominator ``den``, with an explicit truncation order
``precision``: coefficients of t^j for j >= precision are unknown.  One
helper, ``_series``, trims and reduces every result (no trailing zero,
gcd(den, *num) = 1), so equal series compare equal.  Every arithmetic
operation propagates the truncation order conservatively, and any decision
that would need an unknown coefficient raises
:class:`~germflow.errors.PrecisionError` instead of guessing.

The kernels read and write this form directly and build no ``Fraction``:
``Fraction`` appears only at the edges, in ``from_terms`` (the constructor
from rationals, behind ``monomial`` and ``zero``), the read-only view
``terms``, ``leading``, ``__str__`` and the reference ``compose`` and
``invert_parameter`` (Newton reversion), which the package does not call.
The tests check ``in_terms_of`` against that reference and against
elimination by the base's powers, and ``divide`` against inverting the divisor
(``in_terms_of_by_powers`` and ``divide_by_inverse`` in the tests' oracles).
``_quotient`` is fraction-free long division, O(p*terms) integer
multiply-adds at precision p or a shift for a monomial divisor, and returns
its numerators unreduced, so ``divide``, ``in_terms_of`` (for the unit
t/base, through which it then deflates at O(p^2*terms)) and the blowup's
chart step ``resolution.apply_step`` each reduce once with ``_series``.
``int_poly_mul`` is the one dense integer polynomial product.

Float evaluation (``eval``, ``eval_real``, ``abs_bound``) takes a
coefficient beyond the normal float range as a mantissa and a power-of-two
scale, so only a value that is itself out of range saturates.  ``eval`` and
``eval_real`` walk one cached Horner form and take every power by binary
powering (``_ipow``, ``_powu``), so ``eval`` at a real t is real at every
exponent and ``eval_real`` gives its real part, bit for bit, in float
arithmetic.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import PrecisionError, SeriesError


def _split(c: Fraction) -> tuple[float, int]:
    """(m, s) with c = m * 2**s up to rounding of m, and 1/2 < |m| < 2."""
    s = c.numerator.bit_length() - c.denominator.bit_length()
    return float(c / 2 ** s if s >= 0 else c * 2 ** -s), s


def _scaled_power(m: float, s: int, t: complex, e: int) -> complex:
    """m * 2**s * t**e, where 2**s and t**e need not fit a float; raises
    OverflowError only when the value itself does not."""
    if e == 0:
        return complex(math.ldexp(m, s))
    if t == 0:
        return 0j
    if abs(t) == math.inf:
        raise OverflowError("infinite argument")
    k = math.frexp(abs(t))[1]  # |t| = f * 2**k with 1/2 <= f < 1
    t = complex(t)
    v = m * _ipow(complex(math.ldexp(t.real, -k), math.ldexp(t.imag, -k)), e)
    return complex(math.ldexp(v.real, s + k * e), math.ldexp(v.imag, s + k * e))


_POWU_MAX = 100  # CPython's complex ** powers by squaring only up to this exponent


def _powu(t, n: int):
    """t**n for n >= 1 by the binary powering of CPython's complex ``**``
    (``c_powu``), the same products in the same order: up to _POWU_MAX it
    has the bits of ``t ** n`` at a complex t, and at a real t those of
    (complex(t) ** n).real wherever that is finite and nonzero."""
    r = 1.0
    while True:
        if n & 1:
            r *= t
        n >>= 1
        if not n:
            return r
        t *= t


def _ipow(t: complex, n: int) -> complex:
    """t**n for n >= 0 by binary powering at every exponent: complex ``**``
    up to _POWU_MAX, where CPython powers by squaring in C, and ``_powu``
    above, where ``**`` would go by exp and log and leave a rounding
    imaginary part at a real t < 0.  Raises OverflowError, as ``**`` does,
    where the power leaves float range."""
    if n <= _POWU_MAX:
        return t ** n
    r = _powu(t, n)
    if not cmath.isfinite(r):
        raise OverflowError("complex exponentiation")
    return r


def int_poly_mul(a, b, length: int | None = None) -> list[int]:
    """Product of dense integer polynomials (coefficient sequences, low to
    high), cut to its first ``length`` coefficients when a length is given; a
    zero coefficient of either factor costs no multiplication."""
    n = len(a) + len(b) - 1 if length is None else min(length, len(a) + len(b) - 1)
    out = [0] * n
    nonzero = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in nonzero:
                if i + j >= n:
                    break
                out[i + j] += ai * bj
    return out


def _store_reduced(num: list[int], k: int, r: int, d: int, common: int) -> int:
    """Store r/d at num[k], where num holds numerators over the running common
    denominator ``common`` and num[k:] is still zero; when d in lowest terms
    brings a new factor, common grows to the lcm and num[:k] is rescaled.
    Returns the new common denominator."""
    g = math.gcd(r, d)
    r, d = r // g, d // g
    if d < 0:
        r, d = -r, -d
    if common % d:
        grown = math.lcm(common, d)
        scale = grown // common
        num[:k] = [x * scale for x in num[:k]]
        common = grown
    num[k] = r * (common // d)
    return common


def _series(num, den: int, precision: int) -> "TruncatedSeries":
    """The series sum_e num[e]/den t^e cut to precision, for den > 0, in the
    stored form: no trailing zero, gcd(den, *num) = 1."""
    k = min(len(num), precision)
    while k and not num[k - 1]:
        k -= 1
    num = num[:k]
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [x // g for x in num], den // g
    return TruncatedSeries(tuple(num), den, precision)


def _quotient(a: "TruncatedSeries", b: "TruncatedSeries") -> tuple[list[int], int, int]:
    """The quotient q with a = b * q as (num, den, precision), q = num/den,
    before ``_series`` trims and reduces it.

    Errors when the divisor has no visible terms, or when the visible
    orders prove the quotient is not a power series.  The quotient's
    precision is min(T_a, T_b + ord(a) - ord(b)) - ord(b).

    A divisor with one term that the quotient reads is a shift and a sign
    fix, reduced once by the caller; the blowup meets it often, since
    x = t^n divides every chart A step before the first chart B step.  Any
    other divisor takes fraction-free long division: both numerator series
    A and B are shifted down by ord(b), and Q = A/B is pulled one
    coefficient at a time,
    Q_k = (A_k - sum_{j>=1} B_j Q_{k-j}) / B_0, the Q_j held as integer
    numerators over one running common denominator, rescaled only when a
    new Q_k brings a new factor.  The quotient is Q times the ratio of the
    two denominators: O(p*terms) integer multiply-adds at quotient
    precision p.
    """
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
        return [], 1, prec
    an = a.num[ob:prec + ob]
    bn = b.num[ob:prec + ob]
    b0 = bn[0]
    rest = [(j, c) for j, c in enumerate(bn[1:], 1) if c]
    if not rest:  # a / (b0/db t^ob) = A db / (da b0), shifted down by ob
        scale = b.den if b0 > 0 else -b.den
        return [x * scale for x in an], a.den * abs(b0), prec
    # Q_k = num[k] / common = (A_k common - sum_j B_j num[k-j]) / (common b0)
    num, common = [0] * prec, 1
    for k in range(oa - ob, prec):
        r = an[k] * common if k < len(an) else 0
        for j, c in rest:
            if j > k:
                break
            r -= c * num[k - j]
        if r:
            common = _store_reduced(num, k, r, common * b0, common)
    return [x * b.den for x in num], common * a.den, prec


@dataclass(frozen=True)
class TruncatedSeries:
    num: tuple[int, ...]
    den: int
    precision: int

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(terms: dict[int, Fraction], precision: int) -> "TruncatedSeries":
        if precision < 1:
            raise SeriesError("precision must be >= 1")
        coefs = {int(e): Fraction(c) for e, c in terms.items()}
        coefs = {e: c for e, c in coefs.items() if c}
        if coefs and min(coefs) < 0:
            raise SeriesError(f"negative exponent {min(coefs)} in power series")
        den = math.lcm(*[c.denominator for c in coefs.values()])
        num = [0] * min(max(coefs, default=-1) + 1, precision)
        for e, c in coefs.items():
            if e < precision:
                num[e] = c.numerator * (den // c.denominator)
        return _series(num, den, precision)

    @staticmethod
    def monomial(exp: int, coef, precision: int) -> "TruncatedSeries":
        return TruncatedSeries.from_terms({exp: coef}, precision)

    @staticmethod
    def zero(precision: int) -> "TruncatedSeries":
        return TruncatedSeries.from_terms({}, precision)

    # -- structure ---------------------------------------------------------

    @cached_property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """The nonzero terms (e, coefficient), by increasing exponent."""
        return tuple([(e, Fraction(x, self.den)) for e, x in enumerate(self.num) if x])

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.terms)

    def order(self) -> int | None:
        """Smallest stored exponent, or None when zero up to precision."""
        # the last numerator is nonzero, so the first nonzero one exists
        return self.num.index(next(filter(None, self.num))) if self.num else None

    def is_zero(self) -> bool:
        return not self.num

    def leading(self) -> Fraction:
        if not self.num:
            raise SeriesError("zero series has no leading coefficient")
        return Fraction(self.num[self.order()], self.den)

    def support(self) -> tuple[int, ...]:
        return tuple([e for e, x in enumerate(self.num) if x])

    # -- ring operations ---------------------------------------------------

    def truncate(self, precision: int) -> "TruncatedSeries":
        return _series(self.num, self.den, min(self.precision, precision))

    def with_precision(self, precision: int) -> "TruncatedSeries":
        """Re-declare the truncation order.

        Raising the precision asserts that all coefficients between the old
        and new order are zero; only callers holding exact polynomial data
        may do that.
        """
        if precision <= self.precision:
            return self.truncate(precision)
        return TruncatedSeries(self.num, self.den, precision)

    def neg(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple([-x for x in self.num]), self.den, self.precision)

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        p = min(self.precision, other.precision)
        g = math.gcd(self.den, other.den)
        a_scale, b_scale = other.den // g, self.den // g  # to the common denominator
        a, b = [x * a_scale for x in self.num[:p]], other.num[:p]
        a += [0] * (len(b) - len(a))
        for e, x in enumerate(b):
            a[e] += x * b_scale
        return _series(a, self.den * a_scale, p)

    def sub(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.add(other.neg())

    def scale(self, coef) -> "TruncatedSeries":
        coef = Fraction(coef)
        return _series([x * coef.numerator for x in self.num],
                       self.den * coef.denominator, self.precision)

    def add_const(self, coef) -> "TruncatedSeries":
        coef = Fraction(coef)
        den = math.lcm(self.den, coef.denominator)
        num = [x * (den // self.den) for x in self.num] or [0]
        num[0] += coef.numerator * (den // coef.denominator)
        return _series(num, den, self.precision)

    def _order_floor(self) -> int:
        o = self.order()
        return o if o is not None else self.precision

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        p = min(self.precision + other._order_floor(), other.precision + self._order_floor())
        return _series(int_poly_mul(self.num, other.num, p), self.den * other.den, p)

    def pow(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise SeriesError("negative power of a series")
        # square and multiply: x^i mod t^(T + (i-1) ord x) is exact, so the
        # product of two such powers is the next one, term for term
        out, square = None, self
        while n:
            if n & 1:
                out = square if out is None else out.mul(square)
            n >>= 1
            if n:
                square = square.mul(square)
        return TruncatedSeries.monomial(0, 1, self.precision) if out is None else out

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Quotient q with self = other * q (see ``_quotient``)."""
        return _series(*_quotient(self, other))

    def in_terms_of(self, base: "TruncatedSeries") -> "TruncatedSeries":
        """Series g with g(base(t)) = self(t) mod t^min(T_self, T_base).

        Deflation against base of order exactly 1: self = g_0 + base * S_1
        with g_0 = self(0), and S_1 = ((self - g_0)/t) * (t/base) is known
        to one order less, so g_k = S_k(0).  The unit t/base is one long
        division (``_quotient``); each step is one product by it, cut to the
        remaining precision and divided by its gcd, and each g_k is kept as
        the pair (numerator, denominator) of S_k that it was read from, all
        put over one lcm at the end: O(p^2 * terms) integer multiply-adds,
        where terms counts the nonzero terms of t/base, which is short when
        base is t over a polynomial.
        """
        if base.order() != 1:
            raise SeriesError("graph elimination needs a base of order exactly 1")
        p = min(self.precision, base.precision)
        if self._order_floor() >= p:  # often: the graph v = 0
            return TruncatedSeries.zero(p)
        if p == 1:  # no precision is left for t/base, nor needed
            return self.truncate(1)
        unit = _series(*_quotient(TruncatedSeries((0, 1), 1, p), base))
        head = self.truncate(p)
        s, den = list(head.num), head.den
        coefs = []  # g_k = r / d as the pairs (r, d)
        for k in range(p):
            coefs.append((s[0], den) if s and s[0] else (0, 1))
            if len(s) < 2:  # the rest of the graph is zero
                break
            s, den = int_poly_mul(s[1:], unit.num, p - k - 1), den * unit.den
            while s and not s[-1]:
                s.pop()
            g = math.gcd(den, *s)  # keeps the numerators of S small
            if g != 1:
                s, den = [x // g for x in s], den // g
        common = math.lcm(*[d for _, d in coefs])
        return _series([r * (common // d) for r, d in coefs], common, p)

    # -- composition -------------------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(u)) for inner of order >= 1."""
        oi = inner._order_floor()
        if oi < 1:
            raise SeriesError("composition needs an inner series of order >= 1")
        p = min(self.precision * max(oi, 1), inner.precision)
        acc = TruncatedSeries.zero(p)
        # sparse Horner over descending exponents of the outer series
        prev = None
        for e, c in reversed(self.terms):
            if prev is None:
                acc = TruncatedSeries.monomial(0, c, p)
            else:
                acc = acc.mul(inner.pow(prev - e).truncate(p)).add_const(c)
            prev = e
        if prev is None:
            return acc
        return acc.mul(inner.pow(prev).truncate(p)).truncate(p)

    def derivative(self) -> "TruncatedSeries":
        """d/dt, known to precision - 1 (PrecisionError when that is 0); built
        once per series, so a distance check that evaluates the target's
        slope at every iterate of every sample converts it to floats once."""
        return self._derivative

    @cached_property
    def _derivative(self) -> "TruncatedSeries":
        if self.precision < 2:
            raise PrecisionError("no precision left in derivative")
        return _series([e * x for e, x in enumerate(self.num)][1:], self.den,
                       self.precision - 1)

    def invert_parameter(self) -> "TruncatedSeries":
        """Compositional inverse of an order-1 series, by Newton iteration."""
        if self.order() != 1:
            raise SeriesError("compositional inverse needs order exactly 1")
        target = self.precision
        ident = TruncatedSeries.monomial(1, 1, target)
        cur = TruncatedSeries.monomial(1, 1 / self.leading(), 2)
        deriv = self.derivative()
        prec = 2
        while prec < target:
            prec = min(2 * prec, target)
            cur = cur.with_precision(prec)  # candidate, higher terms refined below
            err = self.compose(cur).sub(ident.truncate(prec))
            cur = cur.sub(err.divide(deriv.compose(cur).with_precision(prec)))
        return cur.truncate(target)

    # -- parametrization helpers -------------------------------------------

    def flip(self) -> "TruncatedSeries":
        """Substitute t -> -t."""
        return TruncatedSeries(tuple([-x if e % 2 else x for e, x in enumerate(self.num)]),
                               self.den, self.precision)

    @cached_property
    def _float_terms(self) -> tuple[tuple[tuple[int, float], ...],
                                    tuple[tuple[int, float, int], ...]]:
        """(e, c) for each coefficient c that is a normal float, and
        (e, m, s) with c = m * 2**s for each one beyond that range."""
        # converted on first evaluation, not at construction: most series
        # built during resolution and plan construction are never evaluated
        fits, scaled = [], []
        for e, x in enumerate(self.num):
            if not x:
                continue
            try:
                f = x / self.den  # correctly rounded, as float(Fraction(x, den)) is
            except OverflowError:
                f = 0.0
            if abs(f) >= sys.float_info.min:
                fits.append((e, f))
            else:
                scaled.append((e, *_split(Fraction(x, self.den))))
        return tuple(fits), tuple(scaled)

    @cached_property
    def _horner(self) -> tuple[float, tuple[tuple[int, float], ...], int] | None:
        """(c, ((gap, c), ...), low): Horner's steps over the terms whose
        coefficient is a normal float, by decreasing exponent: the top
        coefficient, each next one with the gap down to it, and the lowest
        exponent; None when there is no such term."""
        terms = self._float_terms[0]
        if not terms:
            return None
        exps = [e for e, _ in terms]
        steps = tuple([(prev - e, c) for prev, (e, c) in zip(exps[:0:-1], terms[-2::-1])])
        return terms[-1][1], steps, exps[0]

    def eval_real(self, t: float) -> float:
        """``eval(complex(t)).real`` for a real t, bit for bit, in float
        arithmetic: with t real every imaginary part in ``eval`` is a zero,
        so its real parts are these products and sums.  A zero or non-finite
        value (where only a sign of zero or an overflow could tell the two
        apart), and a series with a coefficient beyond float range, go to
        ``eval``."""
        form = self._horner
        if form is not None and not self._float_terms[1]:
            acc, steps, low = form
            for gap, c in steps:
                acc = acc * (t if gap == 1 else _powu(t, gap)) + c
            if low:
                acc *= t if low == 1 else _powu(t, low)
            if acc and math.isfinite(acc):
                return acc
        return self.eval(complex(t)).real

    def eval(self, t: complex) -> complex:
        """Horner evaluation over the stored terms at a complex argument; terms
        with a coefficient beyond float range are added one by one, scaled."""
        form = self._horner
        try:
            acc = 0j
            if form is not None:
                top, steps, low = form
                acc = complex(top)
                for gap, c in steps:
                    acc = acc * _ipow(t, gap) + c
                acc = acc * _ipow(t, low)
            for e, m, s in self._float_terms[1]:
                acc += _scaled_power(m, s, t, e)
            return acc
        except OverflowError:
            return complex(float("inf"), 0.0)

    def abs_bound(self, radius: float) -> float:
        """Upper bound for |self(t)| over |t| <= radius (abs-coefficient sum)."""
        terms, scaled = self._float_terms
        total = 0.0
        try:
            for e, c in terms:
                total += abs(c) * radius ** e
            for e, m, s in scaled:
                total += _scaled_power(abs(m), s, radius, e).real
        except OverflowError:
            return float("inf")
        return total

    def __str__(self) -> str:
        if not self.num:
            return f"O(t^{self.precision})"
        parts = [f"{c}*t^{e}" for e, c in self.terms]
        return " + ".join(parts) + f" + O(t^{self.precision})"
