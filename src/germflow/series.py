"""Exact truncated power series in one variable over the rationals.

A series is a finite set of (exponent, coefficient) pairs together with an
explicit truncation order ``precision``: coefficients of t^j for
j >= precision are unknown.  Every arithmetic operation propagates the
truncation order conservatively, and any decision that would need an unknown
coefficient raises :class:`~germflow.errors.PrecisionError` instead of
guessing.

``compose`` and ``invert_parameter`` (Newton reversion) are the reference
implementation that the tests check ``in_terms_of`` against; the package
does not call them; ``divide`` is checked against inverting the divisor and
multiplying (``_divide_by_inverse`` in the tests).  Both kernels work on
integer numerators over one running common denominator (``_store_reduced``)
and build O(p) ``Fraction``s per call at precision p: ``in_terms_of`` is
fraction-free triangular elimination, with O(p^3/6) integer multiply-adds,
and ``divide`` is fraction-free long division, with O(p*terms) integer
multiply-adds.  ``int_poly_mul`` is the one dense integer polynomial
product, shared with ``mul`` and implicitization.

Float evaluation (``eval``, ``abs_bound``) takes a coefficient beyond the
normal float range as a mantissa and a power-of-two scale, so only a value
that is itself out of range saturates.
"""
from __future__ import annotations

import math
import operator
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
    v = m * complex(math.ldexp(t.real, -k), math.ldexp(t.imag, -k)) ** e
    return complex(math.ldexp(v.real, s + k * e), math.ldexp(v.imag, s + k * e))


def int_poly_mul(a: list[int], b: list[int], length: int | None = None) -> list[int]:
    """Product of dense integer polynomials (coefficient lists, low to high),
    cut to its first ``length`` coefficients when a length is given; a zero
    coefficient of either factor costs no multiplication."""
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


def _integer_coefficients(s: "TruncatedSeries", length: int) -> tuple[list[int], int]:
    """(z, d): d is the lcm of the denominators of s, and z[e] = d * [t^e]s
    for e < length, as a dense list."""
    d = math.lcm(*[c.denominator for _, c in s.terms])
    z = [0] * length
    for e, c in s.terms:
        if e < length:
            z[e] = c.numerator * (d // c.denominator)
    return z, d


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


def _clean(terms, precision):
    out = []
    for exp, coef in sorted(terms.items()):
        if coef == 0 or exp >= precision:
            continue
        if exp < 0:
            raise SeriesError(f"negative exponent {exp} in power series")
        out.append((exp, coef))
    return tuple(out)


@dataclass(frozen=True)
class TruncatedSeries:
    terms: tuple[tuple[int, Fraction], ...]
    precision: int

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(terms: dict[int, Fraction], precision: int) -> "TruncatedSeries":
        if precision < 1:
            raise SeriesError("precision must be >= 1")
        frac_terms = {int(e): Fraction(c) for e, c in terms.items()}
        return TruncatedSeries(_clean(frac_terms, precision), precision)

    @staticmethod
    def monomial(exp: int, coef, precision: int) -> "TruncatedSeries":
        return TruncatedSeries.from_terms({exp: Fraction(coef)}, precision)

    @staticmethod
    def zero(precision: int) -> "TruncatedSeries":
        return TruncatedSeries.from_terms({}, precision)

    # -- structure ---------------------------------------------------------

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.terms)

    def order(self) -> int | None:
        """Smallest stored exponent, or None when zero up to precision."""
        return self.terms[0][0] if self.terms else None

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> Fraction:
        if not self.terms:
            raise SeriesError("zero series has no leading coefficient")
        return self.terms[0][1]

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.terms)

    def degree_bound(self) -> int:
        return self.terms[-1][0] if self.terms else 0

    # -- ring operations ---------------------------------------------------

    def truncate(self, precision: int) -> "TruncatedSeries":
        p = min(self.precision, precision)
        return TruncatedSeries(tuple([(e, c) for e, c in self.terms if e < p]), p)

    def with_precision(self, precision: int) -> "TruncatedSeries":
        """Re-declare the truncation order.

        Raising the precision asserts that all coefficients between the old
        and new order are zero; only callers holding exact polynomial data
        may do that.
        """
        if precision <= self.precision:
            return self.truncate(precision)
        return TruncatedSeries(self.terms, precision)

    def neg(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple([(e, -c) for e, c in self.terms]), self.precision)

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        p = min(self.precision, other.precision)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return TruncatedSeries(_clean(acc, p), p)

    def sub(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.add(other.neg())

    def scale(self, coef) -> "TruncatedSeries":
        coef = Fraction(coef)
        if coef == 0:
            return TruncatedSeries.zero(self.precision)
        return TruncatedSeries(tuple([(e, c * coef) for e, c in self.terms]), self.precision)

    def add_const(self, coef) -> "TruncatedSeries":
        coef, terms = Fraction(coef), self.terms
        if terms and terms[0][0] == 0:
            coef, terms = coef + terms[0][1], terms[1:]
        head = ((0, coef),) if coef and self.precision > 0 else ()
        return TruncatedSeries(head + terms, self.precision)

    def _order_floor(self) -> int:
        o = self.order()
        return o if o is not None else self.precision

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        p = min(self.precision + other._order_floor(), other.precision + self._order_floor())
        (a, da), (b, db) = _integer_coefficients(self, p), _integer_coefficients(other, p)
        den = da * db
        return TruncatedSeries(tuple([(e, Fraction(x, den))
                                      for e, x in enumerate(int_poly_mul(a, b, p)) if x]), p)

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
        """Quotient q with self = other * q.

        Errors when the divisor has no visible terms, or when the visible
        orders prove the quotient is not a power series.  The quotient's
        precision is min(T_a, T_b + ord(a) - ord(b)) - ord(b).

        Fraction-free long division.  Both series are shifted down by
        ord(b); with da and db the lcms of their denominators, A = da*a and
        B = db*b are integer series, and Q = A/B is pulled one coefficient at
        a time, Q_k = (A_k - sum_{j>=1} B_j Q_{k-j}) / B_0, the Q_j held as
        integer numerators over one running common denominator, rescaled
        only when a new Q_k brings a new factor.  The quotient is Q*db/da:
        O(p*terms) integer multiply-adds and O(p) Fractions per call at
        quotient precision p.
        """
        ob = other.order()
        if ob is None:
            raise PrecisionError("divisor is zero up to its precision")
        oa = self.order()
        if oa is not None and oa < ob:
            raise SeriesError(f"quotient not a power series (orders {oa} < {ob})")
        prec = min(self.precision, other.precision + self._order_floor() - ob) - ob
        if prec <= 0:
            raise PrecisionError("no precision left in quotient")
        if oa is None:
            return TruncatedSeries.zero(prec)
        a, da = _integer_coefficients(self, prec + ob)
        b, db = _integer_coefficients(other, prec + ob)
        a, b = a[ob:], b[ob:]
        b0 = b[0]
        rest = [(j, c) for j, c in enumerate(b[1:], 1) if c]
        # Q_k = num[k] / common = (A_k common - sum_j B_j num[k-j]) / (common b0)
        num, common = [0] * prec, 1
        for k in range(oa - ob, prec):
            r = a[k] * common
            for j, c in rest:
                if j > k:
                    break
                r -= c * num[k - j]
            if r:
                common = _store_reduced(num, k, r, common * b0, common)
        out_den = common * da
        # tuple() of a list, not of a generator: growing and shrinking the
        # tuple's block fragments the allocator and shows in peak memory
        return TruncatedSeries(tuple([(k, Fraction(x * db, out_den))
                                      for k, x in enumerate(num) if x]), prec)

    def in_terms_of(self, base: "TruncatedSeries") -> "TruncatedSeries":
        """Series g with g(base(t)) = self(t) mod t^min(T_self, T_base).

        Fraction-free triangular elimination against base of order exactly 1.
        With D the lcm of the base's denominators, B = D*base is an integer
        series of t^1 coefficient lead, and h_j = g_j / D^j solves
        self = sum_j h_j B^j, so h_k = (s_k - sum_{j<k} h_j [t^k]B^j) / lead^k.
        The powers B^j mod t^p are dense integer lists, and the h_j integer
        numerators over one running common denominator, rescaled only when
        a new h_k brings a new factor: O(p^3/6) integer multiply-adds for the
        powers, one integer dot product per k, and O(p) Fractions per call.
        """
        if base.order() != 1:
            raise SeriesError("graph elimination needs a base of order exactly 1")
        p = min(self.precision, base.precision)
        if not self.terms or self.terms[0][0] >= p:  # often: the graph v = 0
            return TruncatedSeries.zero(p)
        scaled, den = _integer_coefficients(base, p)
        c1 = base.leading()  # read off the terms: p = 1 cuts t^1 from scaled
        lead = c1.numerator * (den // c1.denominator)
        target, sden = _integer_coefficients(self, p)
        powers = [[1] + [0] * (p - 1)]
        for _ in range(1, p):
            powers.append(int_poly_mul(powers[-1], scaled, p))
        # h_j = num[j] / (common * sden), so the pulled sum is one dot product
        num, common, lead_k = [0] * p, 1, 1
        for k, column in enumerate(zip(*powers)):
            r = target[k] * common - sum(map(operator.mul, num, column))
            if r:
                common = _store_reduced(num, k, r, common * lead_k, common)
            lead_k *= lead
        out_den = common * sden
        return TruncatedSeries(tuple([(k, Fraction(x * den ** k, out_den))
                                      for k, x in enumerate(num) if x]), p)

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
        """d/dt, known to precision - 1 (PrecisionError when that is 0)."""
        if self.precision < 2:
            raise PrecisionError("no precision left in derivative")
        return TruncatedSeries(
            tuple([(e - 1, c * e) for e, c in self.terms if e >= 1]), self.precision - 1)

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
        return TruncatedSeries(
            tuple([(e, -c if e % 2 else c) for e, c in self.terms]), self.precision
        )

    @cached_property
    def _float_terms(self) -> tuple[tuple[tuple[int, float], ...],
                                    tuple[tuple[int, float, int], ...]]:
        """(e, c) for each coefficient c that is a normal float, and
        (e, m, s) with c = m * 2**s for each one beyond that range."""
        # converted on first evaluation, not at construction: most series
        # built during resolution and plan construction are never evaluated
        fits, scaled = [], []
        for e, c in self.terms:
            try:
                f = float(c)
            except OverflowError:
                f = 0.0
            if abs(f) >= sys.float_info.min:
                fits.append((e, f))
            else:
                scaled.append((e, *_split(c)))
        return tuple(fits), tuple(scaled)

    def eval(self, t: complex) -> complex:
        """Horner evaluation over the stored terms at a complex argument; terms
        with a coefficient beyond float range are added one by one, scaled."""
        terms, scaled = self._float_terms
        try:
            acc = 0j
            prev = None
            for e, c in reversed(terms):
                if prev is None:
                    acc = complex(c)
                else:
                    acc = acc * t ** (prev - e) + c
                prev = e
            if prev is not None:
                acc = acc * t ** prev
            for e, m, s in scaled:
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
        if not self.terms:
            return f"O(t^{self.precision})"
        parts = [f"{c}*t^{e}" for e, c in self.terms]
        return " + ".join(parts) + f" + O(t^{self.precision})"
