import contextlib
import math
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import edge_root_by_fractions

from germflow import implicitize, newton_puiseux, parse_branch, parse_poly, poly_on_branch
from germflow.branch import MAX_PRECISION, normalize_branch
from germflow.errors import IrrationalRootError, PrecisionError, PuiseuxError, ReducibleError
from germflow.puiseux import _edge_root


def same_up_to_t_sign(a, b) -> bool:
    for cand in (b, b.flip()):
        if a.xs.terms == cand.xs.terms and a.ys.terms == cand.ys.terms:
            return True
    return False


def test_cusp_expansion():
    b = newton_puiseux(parse_poly("f = y^2 - x^3"), precision=32)
    assert b.xs.as_dict() == {2: 1}
    assert b.ys.as_dict() == {3: 1}


def test_smooth_graph():
    b = newton_puiseux(parse_poly("f = y - x"), precision=32)
    assert b.xs.as_dict() == {1: 1}
    assert b.ys.as_dict() == {1: 1}


@pytest.mark.parametrize("precision", [2, 8, 64])
def test_infinite_expansion_takes_the_whole_loop_bound(precision):
    # y = x / (1 - x) = x + x^2 + ...: each edge raises gamma * denom by
    # exactly 1, so the expansion stops on the last of its precision + 1 passes
    b = newton_puiseux(parse_poly("f = y - x y - x"), precision=precision)
    assert b.xs.as_dict() == {1: 1}
    assert b.ys.as_dict() == {k: 1 for k in range(1, precision)}
    assert not b.exact


@pytest.mark.parametrize("precision", [0, -3, 1, MAX_PRECISION + 1])
def test_precision_outside_two_to_the_ceiling_is_refused(precision):
    with pytest.raises(PrecisionError,
                       match=f"precision {precision} is not between 2 and {MAX_PRECISION}"):
        newton_puiseux(parse_poly("f = y - x y - x"), precision=precision)


def test_the_precision_ceiling_is_accepted():
    b = newton_puiseux(parse_poly("f = y^2 - x^3"), precision=MAX_PRECISION)
    assert b.ys.precision == MAX_PRECISION and b.ys.as_dict() == {3: 1}


@pytest.mark.parametrize("text, error, message", [
    ("f = 0", PuiseuxError, "zero polynomial"),
    ("f = 1 + y - x^2", PuiseuxError, "f does not vanish at the origin"),
    ("f = y^2 - 1/2*x^3", IrrationalRootError,
     "edge coefficient needs an irrational 2-th root of 1/2"),
    ("f = y^2 + x^3", IrrationalRootError, "edge coefficient needs an irrational 2-th root of -1"),
])
def test_refusal_messages(text, error, message):
    with pytest.raises(error) as exc:
        newton_puiseux(parse_poly(text))
    assert type(exc.value) is error and str(exc.value) == message


def test_coincident_sheets_separate_with_precision():
    # (y - x^2)^2 - x^7: the two sheets y = x^2 +- x^(7/2) agree below order 7 in t
    f = parse_poly("f = y^2 - 2*x^2y + x^4 - x^7")
    with pytest.raises(PrecisionError, match=r"^precision too small to separate coincident "
                       r"branches \(edge root stays multiple\)$"):
        newton_puiseux(f, precision=2)
    b = newton_puiseux(f, precision=8)
    assert b.xs.as_dict() == {2: 1} and b.ys.as_dict() == {4: 1, 7: 1}


NON_PRIMITIVE = "precision too small to separate branches (truncation is non-primitive)"


@pytest.mark.parametrize("text, precision, outcome", [
    # x = t^n needs precision > n; below that the truncation may also be
    # non-primitive, and that refusal keeps its message
    ("f = y^3 - x^2", 2, NON_PRIMITIVE),
    ("f = y^3 - x^2", 3, "precision 3 cuts away x = t^3"),
    ("f = y^3 - x^2", 4, ({3: 1}, {2: 1})),
    ("f = y^2 - x^3", 2, NON_PRIMITIVE),
    ("f = y^2 - x^3", 3, NON_PRIMITIVE),
])
def test_a_precision_at_most_the_multiplicity_is_refused(text, precision, outcome):
    if isinstance(outcome, str):
        with pytest.raises(PrecisionError) as exc:
            newton_puiseux(parse_poly(text), precision=precision)
        assert type(exc.value) is PrecisionError and str(exc.value) == outcome
    else:
        b = newton_puiseux(parse_poly(text), precision=precision)
        assert (b.xs.as_dict(), b.ys.as_dict()) == outcome


def test_irrational_root_refused():
    with pytest.raises(IrrationalRootError):
        newton_puiseux(parse_poly("f = y^2 - 2*x^3"))


def test_irrational_qth_power_refused():
    # edge equation C = 2 needs c = sqrt(2) because q = 2
    with pytest.raises(IrrationalRootError):
        newton_puiseux(parse_poly("f = y^2 - 2*x^5"))


def test_node_is_reducible():
    with pytest.raises(ReducibleError):
        newton_puiseux(parse_poly("f = y^2 - 3*x y + 2*x^2"))


def test_two_edges_reducible():
    f = parse_poly("f = y^3 - x y + x^4")  # polygon breaks into two edges
    with pytest.raises(ReducibleError):
        newton_puiseux(f)


def test_x_factor_refused():
    with pytest.raises(ReducibleError):
        newton_puiseux(parse_poly("f = x y - x^2"))


def test_square_factor_detected():
    with pytest.raises(ReducibleError):
        newton_puiseux(parse_poly("f = y^2 - 2*x^2y + x^4"), precision=16)


def test_double_branch_needs_precision():
    # (y - x^2)^2 - x^51: the two sheets only separate at order 51/2
    with pytest.raises(PrecisionError):
        newton_puiseux(parse_poly("f = y^2 - 2*x^2y + x^4 - x^51"), precision=16)


def test_a_known_term_beyond_the_precision_is_not_exact():
    # y = x + x^5 ends exactly, but t^5 falls beyond a truncation at t^4
    f = parse_poly("f = y - x - x^5")
    b = newton_puiseux(f, precision=4)
    assert b.ys.as_dict() == {1: 1} and not b.exact
    assert newton_puiseux(f, precision=6).exact


def test_residual_vanishes_mod_precision():
    f = parse_poly("f = y^2 - x^3")
    b = newton_puiseux(f, precision=48)
    res = poly_on_branch(f, b.with_precision(48) if b.exact else b)
    assert res.is_zero()


@pytest.mark.parametrize("name", ["cusp", "cusp_t4", "cusp_2t3", "e25", "e25_shift",
                                  "two_pair", "e34", "e35", "diag", "parabola"])
def test_roundtrip_through_implicitization(name, corpus):
    b = corpus[name]
    back = newton_puiseux(implicitize(b), precision=64)
    assert same_up_to_t_sign(normalize_branch(b), normalize_branch(back))


def test_roundtrip_swapped_axes():
    b = parse_branch("x = t^3\ny = t^2").with_precision(64)
    back = newton_puiseux(implicitize(b), precision=64)
    assert same_up_to_t_sign(b, back)


@contextlib.contextmanager
def deadline(seconds):
    def on_alarm(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def roundtrip(text):
    b = parse_branch(text).with_precision(64)
    with deadline(5):
        back = newton_puiseux(implicitize(b), precision=64)
    assert same_up_to_t_sign(b, back)


@pytest.mark.parametrize("text", [
    # the second edge needs a root of a negative C unless the first root's
    # sign is gauged
    "x = t^4\ny = -1 t^6 + t^7",
    "x = t^4\ny = -1 t^4 - 3 t^6 - 4/3 t^7",
    "x = t^4\ny = -1 t^6 - 4/3 t^9",
    # the gauge after an even exponent (4 over the denominator 2) flips only
    # the x-terms of odd degree; t^10 shows a wrong flip in the residual
    "x = t^4\ny = -1 t^6 + t^8 + t^9 + t^10",
    # edge constants with large numerators and denominators
    "x = t^3\ny = -3813/1385 t^3 - 8396/9997 t^4",
])
def test_roundtrip_rational_coefficients(text):
    roundtrip(text)


@pytest.mark.parametrize("text", ["x = t^17\ny = t^18 + t^19", "x = t^20\ny = t^21 + t^25",
                                  "x = t^24\ny = t^26 + t^29"])
def test_roundtrip_multiplicity_above_sixteen(text):
    # a fixed denominator cap of 16 once refused these
    roundtrip(text)


def test_large_edge_constant_is_fast():
    with deadline(5):
        b = newton_puiseux(parse_poly("f = y^2 - 100000000000000000000*x^3"))
    assert b.xs.as_dict() == {2: 1}
    assert b.ys.as_dict() == {3: 10 ** 10}


def test_conjugate_edge_roots_are_reducible():
    # C^2 - 2 has two conjugate roots: two branches over C
    with pytest.raises(ReducibleError):
        newton_puiseux(parse_poly("f = y^2 - 2*x^2"))


FAMILIES = [(2, (3,)), (2, (5,)), (3, (4,)), (3, (5,)), (4, (5,)), (4, (6, 7)),
            (4, (6, 9)), (6, (7,)), (6, (8, 9)), (6, (9, 10))]
COEFS = st.builds(Fraction, st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda c: st.sampled_from([c, -c]))


@st.composite
def signed_branches(draw):
    """A member of a family (n; betas) with signed rational coefficients; free
    terms at multiples of n below beta_1 or just past beta_g keep (n; betas)."""
    n, betas = draw(st.sampled_from(FAMILIES))
    free = [e for e in range(n, betas[0], n)] + [betas[-1] + k for k in (1, 2, 3)]
    exps = sorted(set(betas) | set(draw(st.lists(st.sampled_from(free), max_size=2))))
    terms = " + ".join(f"{draw(COEFS)} t^{e}" for e in exps)
    return f"x = t^{n}\ny = {terms}".replace("+ -", "- ")


@settings(max_examples=40)
@given(signed_branches())
def test_roundtrip_property(text):
    roundtrip(text)


@st.composite
def edge_polynomials(draw):
    """psi[0..d] with psi[d] != 0: lead * (q C - p)^d, at times with one
    coefficient moved off the power, or arbitrary integers."""
    d = draw(st.integers(1, 5))
    lead = draw(st.integers(-6, 6).filter(bool))
    p, q = draw(st.integers(-6, 6)), draw(st.integers(1, 4))
    psi = [lead * math.comb(d, k) * q ** k * (-p) ** (d - k) for k in range(d + 1)]
    if draw(st.booleans()):
        psi[draw(st.integers(0, d - 1))] += draw(st.integers(-3, 3))
    if draw(st.integers(0, 3)) == 0:
        psi = draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d)) + [lead]
    return psi


def _edge_outcome(edge_root, psi):
    try:
        return edge_root(psi)
    except ReducibleError as exc:
        return str(exc)


@settings(max_examples=300)
@given(edge_polynomials())
def test_edge_root_matches_the_fraction_reference(psi):
    got = _edge_outcome(_edge_root, psi)
    if not isinstance(got, str):  # the root in lowest terms, over a positive denominator
        num, den, d = got
        assert den > 0 and math.gcd(num, den) == 1
        got = Fraction(num, den), d
    assert got == _edge_outcome(edge_root_by_fractions, psi)
