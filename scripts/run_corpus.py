#!/usr/bin/env python3
"""Resolve every corpus branch, tabulate its invariants, and run the verified
isotopy on each equisingular pair.

Usage: python3 scripts/run_corpus.py [--radius R] [--samples N] [--step H]
"""
import argparse
import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from germflow import (build_plan, char_exponents, delta_mu, dual_graph, invariant_set,
                      parse_branch_file, resolve, verify_isotopy)
from germflow.errors import NotEquisingularError


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--radius", type=float, default=0.05)
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--step", type=float, default=1e-3)
    ap.add_argument("--corpus", default=os.path.join(os.path.dirname(__file__),
                                                     os.pardir, "corpus"))
    args = ap.parse_args()

    branches = {}
    for fn in sorted(os.listdir(args.corpus)):
        if fn.endswith(".branch"):
            b = parse_branch_file(os.path.join(args.corpus, fn))
            branches[b.label] = b.with_precision(64)

    print(f"{'branch':12s} {'r':>2s} {'mult':16s} {'n;betas':12s} "
          f"{'semigroup':12s} {'delta':>5s} {'mu':>4s} weights")
    resolutions = {}
    for name, b in branches.items():
        rd = resolutions[name] = resolve(b)
        g = dual_graph(rd)
        c = char_exponents(b)
        inv = invariant_set(b)
        # cross-oracle: blowup engine vs. Euclidean division on (n; betas)
        if inv.mult_seq != rd.multiplicities() or inv.delta != delta_mu(rd)[0]:
            print(f"{name}: blowup mult={list(rd.multiplicities())} delta={delta_mu(rd)[0]} "
                  f"!= Euclidean mult={list(inv.mult_seq)} delta={inv.delta}",
                  file=sys.stderr)
            return 1
        weights = ",".join(str(w) for _, w in g.vertices)
        print(f"{name:12s} {rd.r:2d} {str(list(rd.multiplicities())):16s} "
              f"{str((c.n, list(c.betas))):12s} {str(list(inv.semigroup_gens)):12s} "
              f"{inv.delta:5d} {inv.milnor:4d} [{weights}]")

    print("\nequisingular pairs and verified isotopies "
          f"(radius={args.radius}, samples={args.samples}, h={args.step}):")
    names = sorted(branches)
    for a, b in itertools.combinations(names, 2):
        # deep pairs need a smaller germ window; shrink until the graphs converge
        radius = args.radius
        if resolutions[a].r > 4 or branches[a].n > 2:
            radius = min(radius, 0.01)
        try:
            plan = build_plan(branches[a], branches[b], sample_radius=radius)
        except NotEquisingularError:
            continue
        rep = verify_isotopy(branches[a], branches[b], plan, n_samples=args.samples,
                             radius=radius, tol=1e-3, h=args.step)
        kinds = ",".join(f"{st.field.kind}@{st.field.level}" for st in plan.stages)
        flag = "PASS" if rep.passed else "FAIL"
        print(f"  {a:12s} -> {b:12s} stages=[{kinds}] radius={radius} "
              f"max_dist={rep.max_distance:.3e} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
