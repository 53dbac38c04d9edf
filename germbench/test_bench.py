"""Tests of the benchmark itself: python3 -m pytest germbench/test_bench.py"""
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
from germflow import bivar, char_exponents, equisingular, parse_branch  # noqa: E402

with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)["workloads"]


def period(params) -> int:
    """Ops after which every (family, free-term count) template has occurred."""
    return len(params["families"]) * len(params["free_terms"])


@pytest.mark.parametrize("name", sorted(SPEC))
def test_same_seed_gives_byte_identical_inputs(name):
    params = SPEC[name]
    first = json.dumps(ops.make_pool(name, params, 7)).encode()
    assert json.dumps(ops.make_pool(name, params, 7)).encode() == first
    assert json.dumps(ops.make_pool(name, params, 8)).encode() != first


@pytest.mark.parametrize("name", sorted(SPEC))
def test_generated_branches_keep_their_family(name):
    params = SPEC[name]
    for i, texts in enumerate(ops.make_pool(name, params, 3, 72)):
        n, betas = params["families"][i % len(params["families"])]
        for text in texts:
            c = char_exponents(parse_branch(text))
            assert (c.n, c.betas) == (n, tuple(betas)), text


@pytest.mark.parametrize("name", [n for n in sorted(SPEC) if "radius" in SPEC[n]])
@pytest.mark.parametrize("seed", [1, 2])
def test_generated_pairs_are_equisingular(name, seed):
    params = SPEC[name]
    for text_a, text_b in ops.make_pool(name, params, seed, period(params)):
        a, b = parse_branch(text_a), parse_branch(text_b)
        assert char_exponents(a) == char_exponents(b)
        assert equisingular(a, b).equal, (text_a, text_b)


def test_wide_ops_are_a_fixed_minority():
    params = SPEC["exact_roundtrip"]
    every = params["wide_every"]
    for i, (text,) in enumerate(ops.make_pool("exact_roundtrip", params, 5, 200)):
        terms = parse_branch(text).ys.terms
        big = max(max(abs(c.numerator), c.denominator) for _, c in terms)
        assert (big > params["height"]) == (i % every == every - 1), text


def test_free_exponents_keep_the_gcd_chain():
    assert gen.free_exponents(4, (6, 7), 3) == [4, 8, 9, 10]
    assert gen.free_exponents(2, (3,), 2) == [2, 4, 5]
    with pytest.raises(ValueError):
        gen.gcd_chain(4, (6,))
    with pytest.raises(ValueError):
        gen.gcd_chain(4, (8, 9))


def test_branch_text_parses_back():
    text = gen.branch_text(3, {4: gen.Fraction(-2, 3), 5: gen.Fraction(1)})
    assert text == "x = t^3\ny = -2/3 t^4 + 1 t^5\n"
    assert parse_branch(text).ys.as_dict() == {4: gen.Fraction(-2, 3), 5: 1}


def test_recorder_self_time_and_rebinding():
    rec = spans.Recorder(ValueError, ops.OpTimeout)
    original = bivar.implicitize
    undo = spans.install(rec)
    try:
        assert bivar.implicitize is not original
        import germflow
        assert germflow.implicitize is bivar.implicitize
        from germflow import puiseux
        assert puiseux.poly_on_branch is bivar.poly_on_branch
        rec.op_id = 0
        root = rec.begin("op")
        f = bivar.implicitize(germflow.parse_branch("x = t^2\ny = t^3"))
        puiseux.newton_puiseux(f)
        rec.end(root)
    finally:
        spans.uninstall(undo)
    assert bivar.implicitize is original
    names = [s.name for s in rec.spans]
    assert names[:3] == ["op", "branch.parse_branch", "bivar.implicitize"]
    assert "bivar.poly_on_branch" in names
    op = rec.spans[0]
    children = [s for s in rec.spans if s.parent == 0]
    assert op.self_s == pytest.approx(op.duration - sum(s.duration for s in children))
    assert all(s.op_id == 0 and s.start <= s.end for s in rec.spans)


def test_timeout_ends_the_op_not_the_run():
    import time

    class Slow:
        class errors:
            GermflowError = ValueError

    def spin(gf, texts, p):
        while True:
            time.sleep(0.01)

    ops.arm_deadline()
    ops.RUN["spin"] = spin
    try:
        out = ops.run_op(Slow, "spin", {"deadline_s": 0.05}, (), 0)
    finally:
        del ops.RUN["spin"]
    assert out.kind == "timeout"
    assert 0.05 <= out.latency < 1.0


def test_alarm_after_the_op_is_ignored():
    ops.arm_deadline()
    assert not ops._armed
    ops._on_alarm(None, None)  # a late alarm outside any op raises nothing


def test_recorder_closes_spans_a_timeout_left_open():
    rec = spans.Recorder(ValueError, ops.OpTimeout)
    root = rec.begin("op")
    inner = rec.begin("bivar.implicitize")
    rec.begin("puiseux.newton_puiseux")  # interrupted before its end ran
    rec.end(root, ops.OpTimeout())
    assert rec._stack == []
    assert all(s.outcome == "timeout" for s in rec.spans)
    assert rec.spans[root].child_s == pytest.approx(rec.spans[inner].duration)


def test_end_to_end_scales_times_and_counts_the_prefix():
    import run

    n = run.PREFIX_OPS + 10
    outcomes = [ops.Outcome(i, "ok" if i % 4 else "timeout", 0.1, "") for i in range(n)]
    m = run.end_to_end(outcomes, [2.0] * n, 5.0, 0.3)
    assert m["op_p50_s"] == (pytest.approx(0.2), "s")
    ok = sum(o.kind == "ok" for o in outcomes)
    assert m["ok_ops_per_s"] == (pytest.approx(ok / 5.0), "1/s")
    assert m["ok_share"] == (pytest.approx(0.75), "share")
    assert m["setup_s"] == (0.3, "s")
