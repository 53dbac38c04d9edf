"""The exact layer's values, pinned bit for bit.

A golden table records, for every corpus branch and for fixed members of the
characteristic families of ``test_plan_replay`` (drawn from a seeded
``random.Random``; one member per family has coefficients up to 10^4):

- the parsed y(t);
- ``resolve``'s steps;
- the final chart state, replayed at precision 64 along ``chart_path`` with
  ``apply_step``;
- ``implicitize``'s text;
- ``newton_puiseux`` of that text: its y(t) and ``exact``, or the error's
  type and message.

The benchmark's exact digest keeps only invariants, which a wrong
coefficient can leave unchanged; this table keeps the coefficients.  A
change that sets out to change an exact value regenerates the table with
``PYTHONPATH=src python tests/test_exact_golden.py`` from the repository
root and says why in its change notes.
"""
import json
import os
import random
from fractions import Fraction

import pytest
from conftest import CORPUS_DIR, CORPUS_NAMES
from test_plan_replay import FAMILIES, _series

from germflow import implicitize, newton_puiseux, parse_branch, parse_poly, poly_to_text, resolve
from germflow.errors import GermflowError
from germflow.resolution import apply_step, initial_state

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "exact_golden.json")


def _member(rng, n, betas, height):
    """x = t^n, y with a coefficient p/q (1 <= |p|, q <= height) on each
    beta_i and on two more exponents drawn from n .. beta_g + n - 1."""
    exps = sorted({*betas, *rng.sample(range(n, betas[-1] + n), 2)})
    terms = {e: Fraction(rng.randint(1, height) * rng.choice((-1, 1)), rng.randint(1, height))
             for e in exps}
    # the grammar has no unary minus: the first coefficient carries its sign
    (e0, c0), *rest = terms.items()
    y = f"{c0} t^{e0}" + "".join(f" {'-' if c < 0 else '+'} {abs(c)} t^{e}" for e, c in rest)
    return f"x = t^{n}\ny = {y}\n"


def branch_texts():
    """name -> branch text: the corpus, then three members of each family."""
    texts = {}
    for name in CORPUS_NAMES:
        with open(os.path.join(CORPUS_DIR, name + ".branch"), encoding="utf-8") as fh:
            texts[name] = fh.read()
    rng = random.Random("exact-golden")
    for n, betas in FAMILIES:
        for k, height in enumerate((4, 4, 10 ** 4)):
            texts[f"({n}; {', '.join(map(str, betas))}) #{k}"] = _member(rng, n, betas, height)
    return texts


def exact_record(text):
    """Every exact datum of the branch in ``text``."""
    b = parse_branch(text)
    rd = resolve(b)
    state = initial_state(b.with_precision(64))
    for chart, c in rd.chart_path:
        state = apply_step(state, chart, c)
    f_text = poly_to_text(implicitize(b))
    try:
        back = newton_puiseux(parse_poly(f_text))
        expansion = {"ys": _series(back.ys), "exact": back.exact}
    except GermflowError as exc:
        expansion = {"error": type(exc).__name__, "message": str(exc)}
    return {
        "ys": _series(b.ys),
        "steps": [[s.centre, s.multiplicity, list(s.proximate_to), s.satellite, s.chart,
                   str(s.translation)] for s in rd.steps],
        "chart": {"xs": _series(state.xs), "ys": _series(state.ys), "u_label": state.u_label,
                  "v_label": state.v_label, "level": state.level},
        "implicit": f_text,
        "expansion": expansion,
    }


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


TEXTS = branch_texts()


def test_golden_table_covers_the_corpus_and_three_members_per_family():
    golden = _golden()
    assert sorted(golden) == sorted(TEXTS)
    assert len(golden) == len(CORPUS_NAMES) + 3 * len(FAMILIES)


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_exact_values_match_the_golden_table(name):
    assert exact_record(TEXTS[name]) == _golden()[name], name


if __name__ == "__main__":
    table = {name: exact_record(text) for name, text in TEXTS.items()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(table, indent=1, sort_keys=True))
