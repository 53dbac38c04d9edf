"""The plan layer replays the target's recorded resolution.

- A golden table, captured from an earlier ``build_plan`` that walked both
  resolutions in lockstep, pins every stage of every ordered corpus pair
  (or its ``NotEquisingularError`` certificate).  It records a graph match
  by its two graphs s1 and s2, and the stage keeps their difference, its
  ``gap``, so each gap is compared with s2 - s1 read from the table.
- ``build_plan`` takes one blowup per level on each branch, in the chart the
  target's own state picks there, so it walks each branch once and calls no
  ``resolve``; ``equisingular`` resolves nothing for an equisingular pair.
  ``resolve`` of the target stays the oracle for the plan's chart path.
- Each stage's chart path extends the previous stage's, as ``apply_plan``
  requires: the plan records the target's chart path once, and a stage acts
  in its first ``level`` steps.
- Its certificate is the one ``equisingular`` gives, also for mismatches the
  corpus never reaches.

A change that sets out to change a plan regenerates the table with
``PYTHONPATH=src python tests/test_plan_replay.py`` from the repository root
and says why in its change notes.
"""
import itertools
import json
import math
import os
from fractions import Fraction

import pytest
from conftest import CORPUS_NAMES, load_corpus
from hypothesis import assume, given
from hypothesis import strategies as st

from germflow import (build_plan, equisingular, invariants, isotopy, parse_branch, resolution,
                      resolve)
from germflow.errors import NotEquisingularError
from germflow.invariants import compare_dual_graphs
from germflow.resolution import DualGraph
from germflow.series import TruncatedSeries

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "plan_golden.json")


def _series(s):
    if s is None:
        return None
    return {"precision": s.precision, "terms": [[e, str(c)] for e, c in s.terms]}


def plan_record(g1, g2):
    """Every exact datum of build_plan(g1, g2), or its certificate."""
    try:
        plan = build_plan(g1, g2)
    except NotEquisingularError as exc:
        return {"certificate": str(exc)}
    stages = []
    for stage in plan.stages:
        f = stage.field
        # a datum a stage class lacks reads as its default in the one record
        # type every kind shared when the table was captured
        ratio = getattr(f, "ratio", None)
        stages.append({
            "kind": f.kind, "level": f.level, "orientation": f.orientation,
            "ratio": None if ratio is None else str(ratio),
            "shear": str(getattr(f, "shear", 0)), "amount": str(getattr(f, "amount", 0)),
            "path": [[chart, str(c)] for chart, c in plan.chart_path[:f.level]],
            "gap": _series(getattr(f, "gap", None)),
        })
    return {"stages": stages}


def _read_series(rec):
    return TruncatedSeries.from_terms({e: Fraction(c) for e, c in rec["terms"]},
                                      rec["precision"])


def _with_gap(rec):
    """A table record with each stage's graphs s1 and s2, where it has them,
    replaced by the gap s2 - s1 that the stage keeps."""
    for stage in rec.get("stages", ()):
        if "s1" in stage:
            s1, s2 = stage.pop("s1"), stage.pop("s2")
            stage["gap"] = None if s1 is None else \
                _series(_read_series(s2).sub(_read_series(s1)))
    return rec


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("source", CORPUS_NAMES)
def test_plans_match_the_golden_table(corpus, source):
    golden = _golden()
    for target in CORPUS_NAMES:
        key = f"{source} -> {target}"
        assert plan_record(corpus[source], corpus[target]) == _with_gap(golden[key]), key


def test_golden_table_covers_every_ordered_corpus_pair():
    golden = _golden()
    assert sorted(golden) == sorted(f"{a} -> {b}" for a in CORPUS_NAMES for b in CORPUS_NAMES)
    assert sum("stages" in rec for rec in golden.values()) == 20


def test_golden_stage_paths_extend_each_other():
    # apply_plan carries samples in chart coordinates and lifts them only
    # along the steps each stage adds: shears and level-0 stages sit in the
    # plane, a level-k multiplicative stage in the target's path[:k], and the
    # graph match at the end of the whole path
    for key, rec in _golden().items():
        paths = [stage["path"] for stage in rec.get("stages", ())]
        for prev, path in zip(paths, paths[1:]):
            assert path[:len(prev)] == prev, key
        for stage in rec.get("stages", ()):
            if stage["kind"] == "multiplicative":
                assert len(stage["path"]) == stage["level"], key
            if stage["kind"] == "shear":
                assert stage["path"] == [], key
        if paths:
            assert rec["stages"][-1]["kind"] == "graph-match", key


def test_build_plan_blows_up_each_branch_once_per_level(corpus, monkeypatch):
    calls = []

    def counted(state, chart, c):
        calls.append((chart, c))
        return resolution.apply_step(state, chart, c)

    monkeypatch.setattr(isotopy, "apply_step", counted)
    planned = 0
    for a, b in itertools.product(CORPUS_NAMES, repeat=2):
        if not equisingular(corpus[a], corpus[b]).equal:
            continue
        calls.clear()
        build_plan(corpus[a], corpus[b])
        rd = resolve(corpus[b])
        # the source and the target, each at full precision, in the target's charts
        assert calls == [step for step in rd.chart_path for _ in range(2)], (a, b)
        planned += 1
    assert planned == 20


def test_resolutions_per_decision_and_per_plan(corpus, monkeypatch):
    calls, original = [], resolution.resolve

    def counted(b):
        calls.append(b)
        return original(b)

    for module in (resolution, invariants):
        monkeypatch.setattr(module, "resolve", counted)
    assert not hasattr(isotopy, "resolve")
    a, b = corpus["cusp"], corpus["cusp_t4"]
    assert equisingular(a, b).equal and calls == []
    build_plan(a, b)
    assert calls == []
    calls.clear()
    assert not equisingular(a, corpus["two_pair"]).equal and len(calls) == 2


def _families(max_n=4):
    """Characteristic data (n; beta_1[, beta_2]) with beta_1 < 3n."""
    out = []
    for n in range(2, max_n + 1):
        for b1 in range(n + 1, 3 * n):
            e1 = math.gcd(n, b1)
            if e1 == 1:
                out.append((n, (b1,)))
            elif e1 < n:
                out.extend((n, (b1, b2)) for b2 in range(b1 + 1, b1 + n) if math.gcd(e1, b2) == 1)
    return out


FAMILIES = _families()
nonzero_coefs = st.integers(-3, 3).filter(bool)


@st.composite
def signed_members(draw, family):
    """x = t^n, y = c0 t^n (a tilt, maybe 0) + sum c_i t^beta_i, signed c_i."""
    n, betas = family
    y = {n: draw(st.integers(-2, 2))} | {beta: draw(nonzero_coefs) for beta in betas}
    text = " + ".join(f"{c} t^{e}" for e, c in sorted(y.items()) if c).replace("+ -", "- ")
    return parse_branch(f"x = t^{n}\ny = {text}").with_precision(64)


@given(st.sampled_from(FAMILIES).flatmap(signed_members),
       st.sampled_from(FAMILIES).flatmap(signed_members))
def test_plan_certificate_is_the_equisingular_certificate(a, b):
    verdict = equisingular(a, b)
    assume(not verdict.equal)
    with pytest.raises(NotEquisingularError) as exc:
        build_plan(a, b)
    assert exc.value.certificate == verdict.certificate


@given(st.sampled_from(FAMILIES).flatmap(lambda f: st.tuples(signed_members(f),
                                                             signed_members(f))))
def test_plan_follows_the_target_chart_path(pair):
    # two members of one family share their characteristic data
    a, b = pair
    assume(equisingular(a, b).equal)
    plan = build_plan(a, b)
    assert plan.chart_path == resolve(b).chart_path
    levels = [stage.field.level for stage in plan.stages]
    assert levels == sorted(levels)
    last = plan.stages[-1].field
    assert last.kind == "graph-match" and last.level == len(plan.chart_path)


def test_dual_graph_certificates_for_edges_and_arrow():
    # branches never reach the edges certificate: equal r and weights have so
    # far always meant equal edges; the arrow always sits on E_r
    g = DualGraph(((1, -2), (2, -2), (3, -1)), ((1, 3), (2, 3)))
    other_edges = DualGraph(g.vertices, ((1, 2), (2, 3)))
    assert g.arrow == other_edges.arrow == 3
    assert compare_dual_graphs(g, other_edges).certificate == \
        "edges differ (E1--E3 only in first; E1--E2 only in second)"


if __name__ == "__main__":
    corpus = load_corpus()
    table = {f"{a} -> {b}": plan_record(corpus[a], corpus[b])
             for a in CORPUS_NAMES for b in CORPUS_NAMES}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(table, indent=1, sort_keys=True))
