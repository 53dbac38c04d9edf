"""Classical invariants of a branch and the equisingularity decision.

The multiplicity sequence, semigroup, delta and Milnor number are computed
here from the characteristic exponents alone (Euclidean-division
bookkeeping), which gives an oracle that is fully independent of the blowup
engine; equisingularity is decided on them too, and weighted dual graphs
only name what differs.  None of these takes a precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .branch import Branch
from .errors import PrecisionError, SeriesError
from .resolution import DualGraph, dual_graph, initial_state, resolve


@dataclass(frozen=True)
class CharExponents:
    n: int
    betas: tuple[int, ...]


@dataclass(frozen=True)
class InvariantSet:
    mult_seq: tuple[int, ...]
    semigroup_gens: tuple[int, ...]
    delta: int
    milnor: int


@dataclass(frozen=True)
class EquisingularityVerdict:
    equal: bool
    certificate: str


def char_exponents(b: Branch) -> CharExponents:
    """Characteristic exponents (n; betas), n the multiplicity of the germ.

    The betas are the exponents of y(t) at which the running gcd with n drops.
    When ord y < ord x, Zariski's inversion formula (Casas-Alvero, Singularities
    of Plane Curves, 2000) makes ord y the multiplicity; the exponents read are
    then ord x and e - ord y + ord x for every later exponent e of y(t).
    As ``resolve``, it raises ResolutionError for an exact b that is not
    primitive, and PrecisionError for a truncated b unless the running gcd
    reaches 1 on the exponents e it knows: e < T_y, and e < T_x + ord y - n,
    past which reparametrizing x = t^n + O(t^T_x) to t^n moves y(t)."""
    if not b.monomial_x():
        raise SeriesError("characteristic exponents need x to be the monomial t^n")
    initial_state(b)
    n, exps = b.n, b.ys.support()
    exps = [e for e in exps if b.exact or e < b.xs.precision + exps[0] - n]
    if exps and exps[0] < n:
        n, exps = exps[0], [n] + [e - exps[0] + n for e in exps[1:]]
    betas = []
    e = n
    for exp in exps:
        g = math.gcd(e, exp)
        if g < e:
            betas.append(exp)
            e = g
    if e != 1:
        raise PrecisionError("the characteristic exponents are not all known at this precision")
    return CharExponents(n, tuple(betas))


def _euclid_run(a: int, b: int) -> list[int]:
    """Quotient-copies multiplicity block of the Euclidean algorithm on {a, b}."""
    x, y = max(a, b), min(a, b)
    out = []
    while y > 0:
        q, r = divmod(x, y)
        out.extend([y] * q)
        x, y = y, r
    return out


def mult_seq_from_char(c: CharExponents) -> tuple[int, ...]:
    """Multiplicity sequence by iterated Euclidean division on the
    characteristic data; independent of the blowup engine."""
    if not c.betas:
        return (1,)
    seq = _euclid_run(c.n, c.betas[0])
    e = math.gcd(c.n, c.betas[0])
    for prev, beta in zip(c.betas, c.betas[1:]):
        seq.extend(_euclid_run(e, beta - prev))
        e = math.gcd(e, beta - prev)
    return tuple(seq)


def semigroup(c: CharExponents) -> tuple[int, ...]:
    """Minimal generators of the value semigroup via the standard recursion
    b0 = n, b1 = beta1, b_{i+1} = (e_{i-1}/e_i) b_i + beta_{i+1} - beta_i."""
    if not c.betas:
        return (1,)
    gens = [c.n, c.betas[0]]
    e_prev = c.n
    e = math.gcd(c.n, c.betas[0])
    for prev, beta in zip(c.betas, c.betas[1:]):
        gens.append((e_prev // e) * gens[-1] + beta - prev)
        e_prev = e
        e = math.gcd(e, beta - prev)
    return tuple(sorted(gens))


def delta_from_mult(seq) -> int:
    return sum(m * (m - 1) // 2 for m in seq)


def invariant_set(b: Branch) -> InvariantSet:
    c = char_exponents(b)
    seq = mult_seq_from_char(c)
    d = delta_from_mult(seq)
    return InvariantSet(seq, semigroup(c), d, 2 * d)


def compare_dual_graphs(g1: DualGraph, g2: DualGraph) -> EquisingularityVerdict:
    r1, r2 = len(g1.vertices), len(g2.vertices)
    if r1 != r2:
        return EquisingularityVerdict(False, f"r differs ({r1} vs {r2})")
    for (i, w1), (_, w2) in zip(g1.vertices, g2.vertices):
        if w1 != w2:
            return EquisingularityVerdict(False, f"weights differ (E{i}: {w1} vs {w2})")
    if g1.edges != g2.edges:
        only1 = sorted(set(g1.edges) - set(g2.edges))
        only2 = sorted(set(g2.edges) - set(g1.edges))
        detail = []
        if only1:
            detail.append(f"E{only1[0][0]}--E{only1[0][1]} only in first")
        if only2:
            detail.append(f"E{only2[0][0]}--E{only2[0][1]} only in second")
        return EquisingularityVerdict(False, "edges differ (" + "; ".join(detail) + ")")
    return EquisingularityVerdict(True, "dual graphs identical under blowup-order labeling")


def equisingular(a: Branch, b: Branch) -> EquisingularityVerdict:
    """Whether a and b are equisingular, which for plane branches is whether
    their characteristic exponents are equal (Zariski, Studies in
    Equisingularity I, 1965; Casas-Alvero, 2000, ch. 5).  Only when they
    differ, or an x(t) is not t^n, are both branches resolved, only as deep
    as their blowups need, and their dual graphs compared, for a certificate
    that names the first difference.  No truncation setting enters."""
    if a.monomial_x() and b.monomial_x() and char_exponents(a) == char_exponents(b):
        return EquisingularityVerdict(True, "dual graphs identical under blowup-order labeling")
    graph_a, graph_b = [dual_graph(resolve(g)) for g in (a, b)]
    return compare_dual_graphs(graph_a, graph_b)
