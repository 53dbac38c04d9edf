"""Command-line front end: resolve, invariants, equisingular, isotopy, implicitize."""
from __future__ import annotations

import argparse
import sys
import time

from .bivar import implicitize, poly_to_text
from .branch import DEFAULT_PRECISION, parse_branch_file
from .errors import GermflowError, NotEquisingularError
from .invariants import char_exponents, equisingular, invariant_set
from .isotopy import build_plan, verify_isotopy
from .resolution import dual_graph, resolve


# the settings --show-config prints, in this order, for the subcommands that take them
SETTINGS = ("precision", "samples", "radius", "tol", "exit_status")


def _fmt_list(xs) -> str:
    return "[" + ",".join(str(x) for x in xs) + "]"


def _fmt_complex(z: complex) -> str:
    return repr(z).strip("()")


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GermflowError(f"cannot write {path}: {exc}") from exc


def _dot_text(graph) -> str:
    lines = ["graph dual {"]
    for label, weight in graph.vertices:
        lines.append(f'E{label} [label="E{label} ({weight})"];')
    lines.append("G [shape=point];")
    for i, j in graph.edges:
        lines.append(f"E{i} -- E{j};")
    lines.append(f"G -- E{graph.arrow};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_resolve(args, out) -> int:
    rd = resolve(parse_branch_file(args.file))
    g = dual_graph(rd)
    out.append(f"r={rd.r}")
    out.append(f"mult={_fmt_list(rd.multiplicities())}")
    for rec in rd.steps:
        kind = "satellite" if rec.satellite else "free"
        out.append(f"step={rec.centre} m={rec.multiplicity} "
                   f"prox={_fmt_list(rec.proximate_to)} kind={kind} "
                   f"chart={rec.chart} c={rec.translation}")
    out.append("weights: " + " ".join(f"E{i}={w}" for i, w in g.vertices))
    out.append("edges: " + " ".join(f"E{i}--E{j}" for i, j in g.edges))
    out.append(f"arrow=E{g.arrow}")
    if args.dot:
        _write(args.dot, _dot_text(g))
        out.append(f"dot written to {args.dot}")
    return 0


def cmd_invariants(args, out) -> int:
    b = parse_branch_file(args.file)
    c = char_exponents(b)
    inv = invariant_set(b)
    out.append(f"n={c.n} betas={_fmt_list(c.betas)} "
               f"semigroup={_fmt_list(inv.semigroup_gens)} "
               f"delta={inv.delta} mu={inv.milnor}")
    out.append(f"mult={_fmt_list(inv.mult_seq)}")
    return 0


def cmd_equisingular(args, out) -> int:
    verdict = equisingular(parse_branch_file(args.file_a), parse_branch_file(args.file_b))
    if verdict.equal:
        out.append("EQUISINGULAR")
        out.append(f"certificate: {verdict.certificate}")
        return 0
    out.append(f"NOT EQUISINGULAR: {verdict.certificate}")
    return 2 if args.exit_status else 0


def cmd_isotopy(args, out) -> int:
    a, b = parse_branch_file(args.file_a), parse_branch_file(args.file_b)
    try:
        plan = build_plan(a, b, sample_radius=args.radius, precision=args.precision)
    except NotEquisingularError as exc:
        out.append(f"not equisingular: {exc.certificate}")
        return 2
    report = verify_isotopy(a, b, plan, n_samples=args.samples, radius=args.radius,
                            tol=args.tol)
    out.append(f"stages={len(plan.stages)}")
    for k, stage in enumerate(plan.stages, start=1):
        f = stage.field
        out.append(f"stage={k} level={f.level} kind={f.kind}{f.params()}")
    out.append(f"max_dist={report.max_distance!r}")
    stops = [rec.uncontained_stage for rec in report.records if rec.uncontained_stage]
    for k in sorted(set(stops)):
        out.append(f"uncontained: stage={k} samples={stops.count(k)}")
    out.append("PASS" if report.passed else "FAIL")
    if args.trace:
        lines = [f"sample={i} t={rec.t.real!r},{rec.t.imag!r} "
                 f"start={_fmt_complex(rec.start[0])},{_fmt_complex(rec.start[1])} "
                 f"end={_fmt_complex(rec.end[0])},{_fmt_complex(rec.end[1])} dist={rec.dist!r}"
                 + (f" uncontained_stage={rec.uncontained_stage}" if rec.uncontained_stage
                    else "") + "\n" for i, rec in enumerate(report.records)]
        lines.append(f"max_dist={report.max_distance!r} pass={report.passed}\n")
        _write(args.trace, "".join(lines))
        out.append(f"trace written to {args.trace}")
    if not report.passed and args.exit_status:
        return 2
    return 0


def cmd_implicitize(args, out) -> int:
    out.append(poly_to_text(implicitize(parse_branch_file(args.file))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--no-timing", action="store_true")
    settings = argparse.ArgumentParser(add_help=False)  # equisingular and isotopy
    settings.add_argument("--exit-status", action="store_true")
    settings.add_argument("--show-config", action="store_true")

    p = argparse.ArgumentParser(prog="germflow",
                                description="plane branch germs: resolution, "
                                            "equisingularity and verified isotopies")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("resolve", parents=[common])
    sp.add_argument("file")
    sp.add_argument("--dot", default=None)
    sp.set_defaults(fn=cmd_resolve)

    sp = sub.add_parser("invariants", parents=[common])
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_invariants)

    sp = sub.add_parser("equisingular", parents=[common, settings])
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.set_defaults(fn=cmd_equisingular)

    sp = sub.add_parser("isotopy", parents=[common, settings])
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    sp.add_argument("--samples", type=int, default=40)
    sp.add_argument("--radius", type=float, default=0.05)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--trace", default=None)
    sp.set_defaults(fn=cmd_isotopy)

    sp = sub.add_parser("implicitize", parents=[common])
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_implicitize)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out: list[str] = []
    started = time.perf_counter()
    echo = [args.command] + [getattr(args, name) for name in ("file", "file_a", "file_b")
                             if hasattr(args, name)]
    out.append("command: " + " ".join(str(x) for x in echo))
    try:
        if getattr(args, "show_config", False):
            out.append("config: " + " ".join(
                f"{name.replace('_', '-')}={getattr(args, name)!r}" for name in SETTINGS
                if hasattr(args, name)))
        code = args.fn(args, out)
        out.append("outcome=" + ("ok" if code == 0 else "fail"))
    except GermflowError as exc:
        for line in out:
            print(line)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in out:
        print(line)
    if not args.no_timing:
        print(f"time={time.perf_counter() - started:.3f}s")
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
