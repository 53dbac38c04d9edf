import cmath
import math
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import coefficient, divide_by_inverse, in_terms_of_by_powers

from germflow.errors import PrecisionError, SeriesError
from germflow.series import TruncatedSeries, _ipow, _powu


def S(terms, precision):
    return TruncatedSeries.from_terms({e: Fraction(c) for e, c in terms.items()}, precision)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@st.composite
def series(draw, min_order=0, max_terms=8, precision=16):
    n = draw(st.integers(0, max_terms))
    exps = draw(st.lists(st.integers(min_order, precision - 1), min_size=n, max_size=n,
                         unique=True))
    coeffs = draw(st.lists(small_fractions.filter(lambda f: f != 0),
                           min_size=n, max_size=n))
    return S(dict(zip(exps, coeffs)), precision)


def test_order_and_zero():
    assert S({2: 1, 5: -3}, 8).order() == 2
    assert S({}, 8).order() is None
    assert S({}, 8).is_zero()


def test_stored_terms_respect_precision():
    s = S({2: 1, 9: 4}, 5)
    assert s.support() == (2,)
    assert s.precision == 5


def test_divide_monomials():
    q = S({3: 1}, 6).divide(S({2: 1}, 6))
    assert q.as_dict() == {1: Fraction(1)}


def test_divide_shift():
    q = S({3: 1, 4: 1}, 8).divide(S({2: 1}, 8))
    assert q.as_dict() == {1: Fraction(1), 2: Fraction(1)}


def test_divide_unit_expansion():
    # t^2 / (t^2 + t^3) = 1 - t + t^2 - ...
    q = S({2: 1}, 8).divide(S({2: 1, 3: 1}, 8))
    assert coefficient(q, 0) == 1
    assert coefficient(q, 1) == -1
    assert coefficient(q, 2) == 1


def test_divide_order_error():
    with pytest.raises(SeriesError):
        S({1: 1}, 6).divide(S({2: 1}, 6))


def test_divide_by_invisible_divisor():
    with pytest.raises(PrecisionError):
        S({1: 1}, 6).divide(S({}, 6))


def test_divide_precision_contract():
    # precision of q = min(T_a, T_b + ord a - ord b) - ord b
    q = S({3: 1}, 7).divide(S({2: 1}, 5))
    assert q.precision == min(7, 5 + 3 - 2) - 2


@given(series(max_terms=6), series(min_order=0, max_terms=6))
def test_divide_multiply_back(a, b):
    oa = a.precision if a.order() is None else a.order()
    if b.order() is None or oa < b.order():
        return
    try:
        q = a.divide(b)
    except PrecisionError:
        return
    residual = a.sub(b.mul(q))
    assert residual.order() is None or residual.order() >= q.precision + b.order()


@st.composite
def series_at(draw, precision, max_terms=8):
    """Like ``series`` with no lower bound on the precision."""
    exps = draw(st.lists(st.integers(0, precision - 1), max_size=max_terms, unique=True))
    coeffs = draw(st.lists(small_fractions.filter(lambda f: f != 0),
                           min_size=len(exps), max_size=len(exps)))
    return S(dict(zip(exps, coeffs)), precision)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionError, SeriesError) as exc:
        return type(exc), str(exc)


@st.composite
def divisors(draw):
    """Zero, monomial or general divisors of order 0-3, any visible precision."""
    precision = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["zero", "monomial", "general"]))
    if kind == "zero":
        return TruncatedSeries.zero(precision)
    order = draw(st.integers(0, min(3, precision - 1)))
    lead = draw(small_fractions.filter(lambda f: f != 0))
    if kind == "monomial":
        return S({order: lead}, precision)
    rest = draw(series_at(precision, max_terms=6)).as_dict()
    return S({e: c for e, c in rest.items() if e > order} | {order: lead}, precision)


@given(st.integers(1, 16).flatmap(series_at), divisors())
# monomial divisors: a negative lead, a non-unit denominator, a zero dividend,
# quotient precision 1, and quotient precision 0 and below refused (a nonzero
# dividend leaves at least 1, so only a dividend zero up to its precision
# <= ord b leaves none)
@example(S({2: Fraction(-7, 3), 5: 4}, 9), S({2: 5}, 9))
@example(S({3: 2, 4: Fraction(-1, 6)}, 10), S({1: Fraction(-9, 4)}, 10))
@example(S({}, 7), S({2: Fraction(3, 5)}, 7))
@example(S({2: 3, 3: 1}, 3), S({2: -2}, 8))
@example(S({2: 1}, 2), S({2: 3}, 9))
@example(S({}, 1), S({3: Fraction(-2, 7)}, 5))
def test_divide_matches_inverse_then_multiply(a, b):
    # same quotient terms and precision, or the same error and message
    assert _outcome(a.divide, b) == _outcome(divide_by_inverse, a, b)


def _bench_scale_divisions():
    """Dividend and divisor pairs shaped like the blowup's chart divisions on
    the benchmark: precision up to 64, divisors of 10+ terms, coefficients
    up to 10^4 wide, non-unit leads and dyadic denominators."""
    wide = (S({k: Fraction((-1) ** k * (7919 * k % 9973 + 1), 1 + 7717 * k % 9941)
               for k in range(2, 64)}, 64),
            S({k: Fraction((-1) ** (k // 2) * (6007 * k % 9901 + 1), 1 + 8501 * k % 9887)
               for k in range(2, 14)}, 64))
    non_unit_lead = (S({1: 1, 2: Fraction(2, 5), 5: -3, 9: Fraction(11, 13)}, 40),
                     S({1: Fraction(-3, 7), 2: 5, 4: Fraction(1, 3), 7: -2, 10: Fraction(5, 11),
                        12: 1, 15: Fraction(-9, 4), 19: 3, 22: Fraction(1, 17), 30: 2}, 40))
    dyadic = (S({k: Fraction((-1) ** k * (k ** 3 - 7 * k + 3), 2 ** (k + 1))
                 for k in range(0, 50)}, 64),
              S({0: Fraction(1, 4), 1: 3, 2: Fraction(-1, 8), 4: Fraction(-5, 2), 6: 7,
                 8: Fraction(1, 2 ** 28), 9: Fraction(3, 64), 11: -1, 13: Fraction(1, 2 ** 13),
                 17: 5}, 64))
    monomial = (S({3: 2, 4: Fraction(1, 3), 10: 7, 30: 1}, 64), S({3: Fraction(-5, 6)}, 20))
    return [wide, non_unit_lead, dyadic, monomial]


@pytest.mark.parametrize("a, b", _bench_scale_divisions(),
                         ids=["wide64", "lead-3/7", "dyadic64", "monomial3"])
def test_divide_matches_inverse_then_multiply_at_benchmark_scale(a, b):
    q = _outcome(a.divide, b)
    assert q == _outcome(divide_by_inverse, a, b)
    assert q.precision == min(a.precision, b.precision + a.order() - b.order()) - b.order()
    residual = a.sub(b.mul(q))
    assert residual.order() is None or residual.order() >= q.precision + b.order()


def _repeated_mul(s, n):
    out = TruncatedSeries.monomial(0, 1, s.precision)
    for _ in range(n):
        out = out.mul(s)
    return out


@given(st.one_of(series(max_terms=6), st.integers(1, 16).map(TruncatedSeries.zero),
                 st.integers(1, 16).flatmap(series_at)),
       st.integers(0, 9))
def test_pow_equals_repeated_mul(s, n):
    got, want = s.pow(n), _repeated_mul(s, n)
    assert got.terms == want.terms
    assert got.precision == want.precision


@given(series(max_terms=5), series(max_terms=5))
def test_mul_commutes(a, b):
    assert a.mul(b) == b.mul(a)


def test_eval_horner():
    s = S({2: 1}, 8)
    assert s.eval(0.1) == pytest.approx(0.01)
    y = S({3: 1, 5: Fraction(1, 2)}, 8)
    assert y.eval(0.1) == pytest.approx(0.001005)


@given(series(max_terms=6), st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                               allow_infinity=False))
def test_eval_conjugation(s, t):
    # real rational coefficients: evaluation commutes with conjugation
    left = s.eval(t.conjugate())
    right = s.eval(t).conjugate()
    assert abs(left - right) <= 1e-9 * (1.0 + abs(right))


def _horner_at_call_time(s, t):
    """Sparse Horner over the stored terms, converting each Fraction as it is read."""
    if not s.terms:
        return 0j
    try:
        acc, prev = 0j, None
        for e, c in reversed(s.terms):
            acc = complex(float(c)) if prev is None else acc * t ** (prev - e) + float(c)
            prev = e
        return acc * t ** prev
    except OverflowError:
        return complex(math.inf, 0.0)


def _same(a, b):
    return all(u == v or (math.isnan(u) and math.isnan(v))
               for u, v in ((a.real, b.real), (a.imag, b.imag)))


HUGE = Fraction(10 ** 400)
normal_fractions = st.one_of(small_fractions, st.fractions(max_denominator=10 ** 9))
wide_fractions = st.one_of(normal_fractions, st.sampled_from([HUGE, -HUGE, 1 / HUGE]))


@st.composite
def wide_series(draw, max_terms=8, precision=40, coefficients=wide_fractions):
    exps = draw(st.lists(st.integers(0, precision - 1), max_size=max_terms, unique=True))
    coeffs = draw(st.lists(coefficients, min_size=len(exps), max_size=len(exps)))
    return S(dict(zip(exps, coeffs)), precision)


points = st.one_of(
    st.floats(-3.0, 3.0),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e200, -1e200 + 0j, complex(0.5, -0.0)]))


@given(wide_series(coefficients=normal_fractions), st.lists(points, min_size=1, max_size=4))
def test_eval_matches_horner_at_call_time(s, ts):
    # coefficients that are normal floats are converted once, and every value
    # stays bitwise the same
    for t in ts + ts:
        assert _same(s.eval(t), _horner_at_call_time(s, t))


@given(wide_series(), st.integers(-192, 192).map(lambda k: Fraction(k, 64)))
def test_eval_matches_exact_value_at_rational_points(s, t):
    # a coefficient beyond float range is split into mantissa and power-of-two
    # scale; the value keeps a relative error of 1e-12 against the absolute sum
    exact = sum(c * t ** e for e, c in s.terms)
    scale = sum(abs(c) * abs(t) ** e for e, c in s.terms)
    value = s.eval(float(t))
    if scale < 1e300:
        assert abs(value - float(exact)) <= 1e-12 * float(scale) + sys.float_info.min
    elif abs(exact) > 1e309:
        assert value == complex(math.inf, 0.0)


def test_eval_reads_a_coefficient_beyond_float_range():
    s = S({3: 1, 5: HUGE}, 8)
    near = {"rel": 1e-12, "abs": 0.0}
    assert s.eval(1e-100) == pytest.approx(1e-100, **near)
    assert s.eval(complex(1e-100, 1e-100)) == pytest.approx(-4e-100 - 4e-100j, **near)
    assert s.abs_bound(1e-100) == pytest.approx(1e-100, **near)
    assert S({2: 1 / HUGE}, 8).eval(1e100) == pytest.approx(1e-200, **near)


def test_eval_saturates_a_coefficient_beyond_float_range():
    # here the value itself is beyond float range
    for coef in (HUGE, -HUGE):
        s = S({2: coef}, 8)
        for t in (0.5, 0.5 - 0.25j):
            assert s.eval(t) == complex(math.inf, 0.0)
        assert s.abs_bound(0.5) == s.abs_bound(math.inf) == math.inf


def _same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


@st.composite
def real_eval_series(draw):
    # sparse or dense, denominators up to 10^5, coefficients beyond float
    # range, exponents above 100 (where complex ** stops powering by squaring)
    precision = draw(st.sampled_from([8, 40, 256]))
    if draw(st.booleans()):
        exps = list(range(draw(st.integers(0, min(precision, 40)))))
    else:
        exps = draw(st.lists(st.integers(0, precision - 1), max_size=8, unique=True))
    coefficient = st.one_of(st.fractions(max_denominator=10 ** 5).filter(bool),
                            st.sampled_from([HUGE, -HUGE, 1 / HUGE]))
    coeffs = draw(st.lists(coefficient, min_size=len(exps), max_size=len(exps)))
    return S(dict(zip(exps, coeffs)), precision)


real_points = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-8.0, 6.0)).map(
    lambda sign_log: sign_log[0] * 10.0 ** sign_log[1])


@given(real_eval_series(), st.lists(real_points, min_size=1, max_size=4))
@example(S({101: 1}, 256), [-0.5, 0.5])  # a power complex ** takes by exp and log
@example(S({60: 3, 70: -1}, 256), [1e6, -1e6])  # overflow
@example(S({101: 1}, 256), [1e6, -1e6])  # overflow above exponent 100
@example(S({2: 1, 5: HUGE}, 8), [1e-8])  # a coefficient beyond float range
@example(S({0: 1, 1: 1}, 8), [-1.0])  # a zero value
@example(S({}, 8), [0.5])
def test_eval_real_is_the_real_part_of_eval_bit_for_bit(s, ts):
    for t in ts:
        assert _same_bits(s.eval_real(t), s.eval(complex(t)).real), (s, t)


@given(real_eval_series(), st.lists(real_points, min_size=1, max_size=4))
@example(S({101: 1}, 256), [-0.5])
@example(S({2: 1, 150: 3}, 256), [-0.9])
@example(S({0: 1, 30: 1, 60: 1, 90: 1}, 256), [1e6])  # an overflowing product
def test_eval_at_a_real_argument_is_real(s, ts):
    # every power is taken by binary powering, also above exponent 100,
    # where complex ** would go by exp and log; only a product that
    # overflows (inf * 0) can leave a nan part
    for t in ts:
        v = s.eval(complex(t))
        assert v.imag == 0.0 or not cmath.isfinite(v), (s, t, v)


@given(st.complex_numbers(max_magnitude=4.0), st.integers(1, 255))
@example(complex(-0.5), 101)
def test_ipow_is_one_binary_powering_at_every_exponent(t, n):
    # complex ** is _powu's powering up to _POWU_MAX, and _ipow is _powu above
    try:
        got = _ipow(t, n)
    except OverflowError:
        return
    want = _powu(t, n)
    assert _same_bits(got.real, want.real) and _same_bits(got.imag, want.imag), (t, n)


def test_a_power_above_100_saturates_as_one_below_does():
    for s in (S({101: 1}, 256), S({60: 1}, 256)):
        assert s.eval(1e6) == s.eval(complex(1e6)) == complex(math.inf, 0.0)
        assert s.eval_real(1e6) == math.inf


def test_eval_real_takes_a_short_series_in_float_arithmetic(monkeypatch):
    s = S({1: 2, 3: Fraction(-1, 3), 5: 7}, 8)
    expected = [s.eval(complex(t)).real for t in (0.3, -0.3, 1e-8)]

    def refuse(self, t):
        raise AssertionError("eval_real went through complex Horner")

    monkeypatch.setattr(TruncatedSeries, "eval", refuse)
    assert [s.eval_real(t) for t in (0.3, -0.3, 1e-8)] == expected


def test_derivative_is_built_once_per_series():
    s = S({2: 1, 3: Fraction(5, 2)}, 8)
    assert s.derivative() is s.derivative() == S({1: 2, 2: Fraction(15, 2)}, 7)


def test_compose_hand_example():
    outer = S({0: 2, 1: 3, 2: 1}, 5)
    inner = S({1: 1, 2: 1}, 5)
    expected = {0: Fraction(2), 1: Fraction(3), 2: Fraction(4), 3: Fraction(2),
                4: Fraction(1)}
    got = outer.compose(inner)
    assert {e: c for e, c in got.terms} == {e: c for e, c in expected.items()
                                            if e < got.precision}


def test_compose_requires_positive_inner_order():
    with pytest.raises(SeriesError):
        S({1: 1}, 5).compose(S({0: 1, 1: 1}, 5))


def test_derivative():
    s = S({0: 7, 1: 2, 3: -1}, 6)
    assert s.derivative().as_dict() == {0: Fraction(2), 2: Fraction(-3)}
    assert s.derivative().precision == 5


def test_derivative_of_a_constant_term_alone_is_refused():
    # d/dt(5 + O(t)) would need the unknown t^1 coefficient
    with pytest.raises(PrecisionError, match="no precision left in derivative"):
        S({0: 5}, 1).derivative()


def test_invert_parameter_roundtrip():
    u = S({1: 1, 2: -1, 3: 1, 4: -1}, 12)
    t_of_u = u.invert_parameter()
    back = u.compose(t_of_u)
    assert coefficient(back, 1) == 1
    assert all(coefficient(back, k) == 0 for k in range(2, back.precision))


@given(series(min_order=1, max_terms=5, precision=10))
def test_invert_parameter_property(u):
    if u.order() != 1:
        return
    back = u.compose(u.invert_parameter())
    assert coefficient(back, 1) == 1
    for k in range(2, back.precision):
        assert coefficient(back, k) == 0


@st.composite
def order_one_bases(draw):
    """Dense or sparse series of order 1 with any nonzero leading coefficient."""
    precision = draw(st.integers(2, 18))
    lead = draw(st.one_of(st.sampled_from([Fraction(-1), Fraction(-3, 2), Fraction(2, 7)]),
                          small_fractions.filter(lambda f: f != 0)))
    higher = list(range(2, precision))
    if draw(st.booleans()):
        exps = higher
    else:
        exps = draw(st.lists(st.sampled_from(higher), max_size=3, unique=True)) if higher else []
    coeffs = draw(st.lists(small_fractions, min_size=len(exps), max_size=len(exps)))
    return S(dict(zip(exps, coeffs)) | {1: lead}, precision)


graph_targets = st.one_of(
    st.integers(1, 18).flatmap(series_at),
    st.integers(1, 18).map(TruncatedSeries.zero))


@given(graph_targets, order_one_bases())
def test_in_terms_of_matches_compose_with_inverse(other, base):
    got = other.in_terms_of(base)
    want = other.compose(base.invert_parameter())
    assert got.terms == want.terms
    assert got.precision == want.precision == min(other.precision, base.precision)


@given(graph_targets, order_one_bases())
def test_in_terms_of_round_trip(other, base):
    back = other.in_terms_of(base).compose(base)
    p = min(back.precision, other.precision)
    assert back.truncate(p) == other.truncate(p)


def test_in_terms_of_hand_example():
    # y = t^3 over x = t + t^2: t = x - x^2 + 2x^3 - ..., so y = x^3 - 3x^4 + ...
    g = S({3: 1}, 6).in_terms_of(S({1: 1, 2: 1}, 8))
    assert g.as_dict() == {3: Fraction(1), 4: Fraction(-3), 5: Fraction(9)}
    assert g.precision == 6


@pytest.mark.parametrize("base", [S({0: 1, 1: 1}, 6), S({2: 1, 3: 1}, 6), S({}, 6)],
                         ids=["order0", "order2", "zero"])
def test_in_terms_of_needs_order_one_base(base):
    with pytest.raises(SeriesError):
        S({1: 1}, 6).in_terms_of(base)


@pytest.mark.parametrize("other, base, want", [
    (TruncatedSeries.zero(1), S({1: -1}, 2), TruncatedSeries.zero(1)),
    (S({0: 3}, 1), S({1: 2}, 5), S({0: 3}, 1)),
], ids=["zero", "constant"])
def test_in_terms_of_at_precision_one(other, base, want):
    # p = 1 cuts the base's order-1 term off; its lead is still read
    got = other.in_terms_of(base)
    assert got.terms == want.terms
    assert got.precision == 1


def test_in_terms_of_ignores_terms_beyond_the_base_precision():
    base = S({1: Fraction(1, 3), 2: 5}, 4)
    got = S({1: 1, 3: 2, 4: 7, 9: -1}, 12).in_terms_of(base)
    assert got == S({1: 1, 3: 2}, 12).in_terms_of(base)
    assert got.precision == 4


def test_in_terms_of_sparse_base_with_non_unit_negative_lead():
    # u = a t + t^3 with a = -3/7: t = u/a - u^3/a^4 + 3 u^5/a^7 + ...
    g = S({1: 1}, 8).in_terms_of(S({1: Fraction(-3, 7), 3: 1}, 6))
    assert g.as_dict() == {1: Fraction(-7, 3), 3: Fraction(-2401, 81),
                           5: Fraction(-823543, 729)}
    assert g.precision == 6


@st.composite
def reciprocal_pairs(draw):
    """A target and the base t/Q(t), for a sparse polynomial Q with Q(0) != 0,
    cut at a precision up to 64: the shape of a chart coordinate."""
    precision = draw(st.integers(2, 64))
    exps = [0] + draw(st.lists(st.integers(1, 8), max_size=3, unique=True))
    coeffs = draw(st.lists(small_fractions.filter(lambda f: f != 0),
                           min_size=len(exps), max_size=len(exps)))
    base = S({1: 1}, precision + 1).divide(S(dict(zip(exps, coeffs)), precision + 1))
    return draw(series_at(precision)), base


@st.composite
def dense_pairs(draw):
    """A target and a base with every coefficient up to its precision nonzero."""
    precision = draw(st.integers(2, 24))
    coeffs = draw(st.lists(small_fractions.filter(lambda f: f != 0),
                           min_size=precision - 1, max_size=precision - 1))
    return draw(series_at(precision)), S(dict(enumerate(coeffs, 1)), precision)


@st.composite
def short_pairs(draw):
    """Pairs read at precision 1 or 2: the target's or the base's is that low."""
    p = draw(st.integers(1, 2))
    base = draw(order_one_bases())
    if p == 2 and draw(st.booleans()):
        base = base.truncate(2)
        return draw(series_at(draw(st.integers(2, 18)))), base
    return draw(series_at(p)), base


@st.composite
def uneven_pairs(draw):
    """A target whose precision lies above or below the base's."""
    base = draw(order_one_bases())
    precision = max(1, base.precision + draw(st.sampled_from([-6, -3, -1, 1, 3, 6])))
    return draw(series_at(precision)), base


@settings(max_examples=300)
@given(st.one_of(reciprocal_pairs(), dense_pairs(), short_pairs(), uneven_pairs()))
def test_in_terms_of_matches_elimination_by_powers(pair):
    other, base = pair
    got, want = other.in_terms_of(base), in_terms_of_by_powers(other, base)
    assert (got.num, got.den, got.precision) == (want.num, want.den, want.precision)


def _bench_scale_cases():
    """Graph-match inputs shaped like the isotopy benchmark's: up to 28 terms,
    precision up to 61, denominators up to 2^29 and beyond, non-unit leads."""
    geometric = S({k: Fraction((-1) ** (k + 1), 4 * 12 ** (k - 1)) for k in range(1, 28)}, 28)
    dyadic = S({1: Fraction(-1, 2)} | {k: Fraction((-1) ** k * (k ** 3 - 7 * k + 3), 2 ** (k + 1))
                                       for k in range(2, 29)}, 29)
    gapped = S({1: Fraction(-3, 7)} | {k: Fraction(k - 20, 2 ** (k // 4))
                                       for k in range(4, 40, 4)}, 40)
    deep = S({1: Fraction(1, 4), 2: 3, 5: Fraction(-5, 2), 9: Fraction(1, 2 ** 28)}, 61)
    return [
        (S({1: Fraction(8, 3), 2: Fraction(1, 9)}, 27), geometric),
        (S({1: Fraction(3, 2), 2: Fraction(-905, 64), 3: Fraction(141, 4),
            4: Fraction(-3279, 128)}, 29), dyadic),
        (S({0: 5, 1: 2, 2: Fraction(-1, 3), 3: 7}, 40), gapped),
        (S({1: 1, 2: Fraction(-1, 2), 3: 4}, 64), deep),
    ]


@pytest.mark.parametrize("other, base", _bench_scale_cases(),
                         ids=["geometric28", "dyadic29", "gapped40", "deep61"])
def test_in_terms_of_matches_the_reference_at_benchmark_scale(other, base):
    got = other.in_terms_of(base)
    want = other.compose(base.invert_parameter())
    assert got.terms == want.terms
    assert got.precision == want.precision == min(other.precision, base.precision)
    back = got.compose(base)
    assert back.truncate(got.precision) == other.truncate(got.precision)


def test_flip_negates_odd_exponents():
    s = S({2: 1, 3: 2, 4: -1}, 8)
    f = s.flip()
    assert f.as_dict() == {2: Fraction(1), 3: Fraction(-2), 4: Fraction(-1)}


def test_abs_bound_dominates():
    s = S({1: -2, 3: 5}, 8)
    for t in (0.0, 0.1, 0.3):
        assert abs(s.eval(t)) <= s.abs_bound(0.3) + 1e-12
