"""Acceptance suite: every criterion at its stated tolerance, one line each."""
import math
import os
import random
from fractions import Fraction

from oracles import glued_flow

from germflow import (Multiplicative, build_plan, char_exponents, delta_from_mult, dual_graph,
                      equisingular, integrate_flow, invariant_set, mult_seq_from_char,
                      parse_branch, resolve, semigroup, verify_isotopy)
from germflow.bivar import implicitize, poly_on_branch
from germflow.branch import normalize_branch
from germflow.cli import main
from germflow.puiseux import newton_puiseux


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS  ({text})")


def test_criterion_1_cusp_pipeline(corpus):
    b = corpus["cusp"]
    rd = resolve(b)
    assert rd.r == 3
    assert rd.multiplicities() == (2, 1, 1)
    g = dual_graph(rd)
    assert g.vertices == ((1, -3), (2, -2), (3, -1))
    assert g.edges == ((1, 3), (2, 3))
    assert g.arrow == 3
    c = char_exponents(b)
    assert (c.n, c.betas) == (2, (3,))
    assert semigroup(c) == (2, 3)
    delta = delta_from_mult(rd.multiplicities())
    assert (delta, 2 * delta) == (1, 2)
    # both computation paths agree exactly
    assert mult_seq_from_char(c) == rd.multiplicities()
    assert delta_from_mult(mult_seq_from_char(c)) == delta
    report(1, "cusp pipeline: r, multiplicities, weights, edges, arrow, invariants")


def test_criterion_2_equisingularity_verdicts(corpus):
    v1 = equisingular(corpus["cusp"], corpus["cusp_t4"])
    assert v1.equal
    v2 = equisingular(corpus["cusp"], corpus["two_pair"])
    assert not v2.equal
    assert v2.certificate == "r differs (3 vs 5)"
    report(2, f"verdicts exact; certificate: {v2.certificate!r}")


def test_criterion_3_cross_oracle_invariants(corpus):
    assert len(corpus) >= 6
    for name, b in sorted(corpus.items()):
        rd = resolve(b)
        seq_engine = rd.multiplicities()
        seq_euclid = mult_seq_from_char(char_exponents(b))
        assert seq_engine == seq_euclid, name
        d_engine = delta_from_mult(seq_engine)
        assert d_engine == delta_from_mult(seq_euclid), name
        assert invariant_set(b).milnor == 2 * d_engine, name
    report(3, f"{len(corpus)}-branch corpus: engine = Euclidean path, mu = 2*delta")


def test_criterion_4_roundtrip(corpus):
    for name, b in sorted(corpus.items()):
        f = implicitize(b)
        back = newton_puiseux(f, precision=64)
        a, c = normalize_branch(b), normalize_branch(back)
        flipped = normalize_branch(c.flip())
        assert (a.xs.terms, a.ys.terms) in [(c.xs.terms, c.ys.terms),
                                            (flipped.xs.terms, flipped.ys.terms)], name
        assert poly_on_branch(f, back.with_precision(64) if back.exact else back).is_zero()
    report(4, "newton_puiseux(implicitize(b)) = b up to t -> -t; residual = 0 mod t^64")


def test_criterion_5_flow_numerics():
    f = Multiplicative("v", Fraction(2), Fraction(0), 10.0, 0)
    lam = math.log(2.0)
    rng = random.Random(42)
    worst = 0.0
    for _ in range(100):
        p = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        end = integrate_flow(f, p)
        worst = max(worst, abs(end[0] - p[0]), abs(end[1] - p[1] * math.exp(lam)))
    assert worst < 1e-9

    tight = Multiplicative("v", Fraction(2), Fraction(0), 0.1, 0)
    for k in range(20):
        z = complex(math.cos(0.3 * k), math.sin(0.3 * k))
        p = (0.5 * z, 0.4 * z.conjugate())
        assert glued_flow(tight, p, 1e-3) == p  # bit-identical outside support

    axis_worst = 0.0
    g = Multiplicative("v", Fraction(3), Fraction(0), 0.5, 0)
    for v in (0.05, 0.2, 0.45):
        end = glued_flow(g, (0j, complex(v)), 1e-3)
        axis_worst = max(axis_worst, abs(end[0]))
        end = glued_flow(g, (complex(v), 0j), 1e-3)
        axis_worst = max(axis_worst, abs(end[1]))
    assert axis_worst < 1e-9
    report(5, f"closed form within {worst:.2e}; RK4 oracle: outside-support bit-identical; "
              f"axis drift {axis_worst:.2e}")


def test_criterion_6_end_to_end_isotopy(corpus):
    results = []
    for target in ("cusp_2t3", "cusp_t4"):
        g1, g2 = corpus["cusp"], corpus[target]
        plan = build_plan(g1, g2, sample_radius=0.05)
        rep = verify_isotopy(g1, g2, plan, n_samples=40, radius=0.05, tol=1e-3)
        assert rep.passed and rep.max_distance < 1e-3, (target, rep.max_distance)
        results.append((target, rep.max_distance))
    ident = build_plan(corpus["cusp"], corpus["cusp"], sample_radius=0.05)
    rep = verify_isotopy(corpus["cusp"], corpus["cusp"], ident,
                         n_samples=40, radius=0.05, tol=1e-3)
    assert rep.max_distance < 1e-12
    results.append(("identity", rep.max_distance))
    report(6, "; ".join(f"{n}: max_dist={d:.2e}" for n, d in results))


def test_criterion_7_cli_determinism(corpus_dir, tmp_path, capsys):
    def p(name):
        return os.path.join(corpus_dir, name + ".branch")

    commands = [
        ["resolve", p("cusp"), "--no-timing"],
        ["resolve", p("two_pair"), "--no-timing", "--dot", str(tmp_path / "g.dot")],
        ["invariants", p("e25"), "--no-timing"],
        ["equisingular", p("cusp"), p("cusp_t4"), "--no-timing"],
        ["equisingular", p("cusp"), p("two_pair"), "--no-timing", "--exit-status"],
        ["implicitize", p("e34"), "--no-timing"],
        ["isotopy", p("cusp"), p("cusp_2t3"), "--no-timing", "--samples", "10",
         "--trace", str(tmp_path / "t.txt")],
    ]
    for argv in commands:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        files1 = {f.name: f.read_text() for f in tmp_path.iterdir()}
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        files2 = {f.name: f.read_text() for f in tmp_path.iterdir()}
        assert code1 == code2
        assert out1 == out2, argv
        assert files1 == files2
    report(7, f"{len(commands)} command lines byte-identical across reruns")
