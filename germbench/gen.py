"""Seeded generator of branch texts and equisingular pairs.

A branch family is fixed by its characteristic data (n; beta_1 .. beta_g)
(Casas-Alvero, *Singularities of Plane Curves*, 2000, ch. 1; Wall,
*Singular Points of Plane Curves*, 2004, ch. 2).  Every member is
``x = t^n, y = sum c_e t^e`` with a nonzero coefficient on each beta_i and
optional *free* terms whose exponents leave the characteristic unchanged:

- multiples of n below beta_1 (they only tilt the tangent line), and
- exponents e between beta_i and beta_{i+1} (or above beta_g) divisible by
  e_i = gcd(n, beta_1, .., beta_i), which keep the gcd chain.

Two members of one family are equisingular, so any two of them form an
isotopy pair.  Only texts leave this module: the program parses them itself.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction


def gcd_chain(n: int, betas) -> list[int]:
    """e_0 = n, e_i = gcd(e_{i-1}, beta_i); raises unless it strictly drops to 1."""
    chain = [n]
    for beta in betas:
        e = math.gcd(chain[-1], beta)
        if e >= chain[-1] or beta <= n:
            raise ValueError(f"({n}; {betas}) is not characteristic data")
        chain.append(e)
    if chain[-1] != 1:
        raise ValueError(f"({n}; {betas}) does not end at gcd 1")
    return chain


def free_exponents(n: int, betas, tail: int) -> list[int]:
    """Exponents that keep the characteristic (n; betas), up to beta_g + tail."""
    chain = gcd_chain(n, betas)
    out = list(range(n, betas[0], n))
    bounds = list(betas[1:]) + [betas[-1] + tail + 1]
    for beta, nxt, e in zip(betas, bounds, chain[1:]):
        out.extend(x for x in range(beta + 1, nxt) if x % e == 0)
    return out


def coefficient(rng: random.Random, height: int) -> Fraction:
    """Nonzero rational p/q with |p| <= height and 1 <= q <= height."""
    p = rng.randint(1, height) * rng.choice((-1, 1))
    return Fraction(p, rng.randint(1, height))


def branch_text(n: int, terms: dict[int, Fraction]) -> str:
    parts = []
    for e in sorted(terms):
        c = terms[e]
        mag = f"{abs(c)} t^{e}"
        if not parts:
            parts.append(mag if c > 0 else f"-{mag}")
        else:
            parts.append(("+ " if c > 0 else "- ") + mag)
    return f"x = t^{n}\ny = " + " ".join(parts) + "\n"


def free_choice(n: int, betas, k: int, index: int, tail: int = 3) -> tuple[int, ...]:
    """The index-th (cyclically) k-subset of the free exponents of (n; betas)."""
    subsets = list(itertools.combinations(free_exponents(n, betas, tail), k))
    return subsets[index % len(subsets)]


def branch(rng: random.Random, n: int, betas, free, height: int) -> str:
    """Family member with random coefficients on betas and the free exponents."""
    return branch_text(n, {e: coefficient(rng, height) for e in sorted([*betas, *free])})
