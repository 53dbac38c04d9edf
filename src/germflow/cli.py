"""Command-line front end: resolve, invariants, equisingular, isotopy, implicitize."""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from .bivar import implicitize, poly_to_text
from .branch import parse_branch_file
from .errors import GermflowError, NotEquisingularError
from .invariants import char_exponents, equisingular, invariant_set
from .isotopy import build_plan, verify_isotopy
from .resolution import dual_graph, resolve


@dataclass
class Config:
    precision: int = 64
    step: float = 1e-3
    samples: int = 40
    radius: float = 0.05
    tol: float = 1e-3
    exit_status: bool = False
    no_timing: bool = False
    show_config: bool = False

    def warnings(self) -> list[str]:
        out = []
        if min(self.precision, self.samples) < 1 or min(self.step, self.radius, self.tol) <= 0:
            raise GermflowError("config values must be positive")
        budget = 10.0 * self.step ** 4
        if self.tol <= budget:
            out.append(f"warning: tol={self.tol!r} is not above the integrator "
                       f"error budget {budget!r} at step={self.step!r}")
        return out

    def line(self) -> str:
        return (f"config: precision={self.precision} step={self.step!r} "
                f"samples={self.samples} radius={self.radius!r} tol={self.tol!r} "
                f"exit-status={self.exit_status}")


def _fmt_list(xs) -> str:
    return "[" + ",".join(str(x) for x in xs) + "]"


def _fmt_complex(z: complex) -> str:
    return repr(z).strip("()")


def _load(path, cfg: Config):
    b = parse_branch_file(path)
    return b.with_precision(cfg.precision)


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


def cmd_resolve(args, cfg: Config, out) -> int:
    b = _load(args.file, cfg)
    rd = resolve(b)
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


def cmd_invariants(args, cfg: Config, out) -> int:
    b = _load(args.file, cfg)
    c = char_exponents(b)
    inv = invariant_set(b)
    out.append(f"n={c.n} betas={_fmt_list(c.betas)} "
               f"semigroup={_fmt_list(inv.semigroup_gens)} "
               f"delta={inv.delta} mu={inv.milnor}")
    out.append(f"mult={_fmt_list(inv.mult_seq)}")
    return 0


def cmd_equisingular(args, cfg: Config, out) -> int:
    a = _load(args.file_a, cfg)
    b = _load(args.file_b, cfg)
    verdict = equisingular(a, b, precision=cfg.precision)
    if verdict.equal:
        out.append("EQUISINGULAR")
        out.append(f"certificate: {verdict.certificate}")
        return 0
    out.append(f"NOT EQUISINGULAR: {verdict.certificate}")
    return 2 if cfg.exit_status else 0


def cmd_isotopy(args, cfg: Config, out) -> int:
    a = _load(args.file_a, cfg)
    b = _load(args.file_b, cfg)
    try:
        plan = build_plan(a, b, sample_radius=cfg.radius, precision=cfg.precision)
    except NotEquisingularError as exc:
        out.append(f"not equisingular: {exc.certificate}")
        return 2
    report = verify_isotopy(a, b, plan, n_samples=cfg.samples, radius=cfg.radius,
                            tol=cfg.tol, h=cfg.step)
    out.append(f"stages={len(plan.stages)}")
    for k, stage in enumerate(plan.stages, start=1):
        f = stage.field
        extra = ""
        if f.kind == "multiplicative":
            extra = f" ratio={f.ratio} shear={f.shear}"
        elif f.kind == "shear":
            extra = f" amount={f.amount} orientation={f.orientation}"
        out.append(f"stage={k} level={f.level} kind={f.kind}{extra}")
    out.append(f"max_dist={report.max_distance!r}")
    out.append(f"integrator: steps={report.steps_total} "
               f"max_step_error={report.max_step_error!r}")
    out.append("PASS" if report.passed else "FAIL")
    if args.trace:
        lines = [f"sample={i} t={rec.t.real!r},{rec.t.imag!r} "
                 f"start={_fmt_complex(rec.start[0])},{_fmt_complex(rec.start[1])} "
                 f"end={_fmt_complex(rec.end[0])},{_fmt_complex(rec.end[1])} "
                 f"dist={rec.dist!r}\n" for i, rec in enumerate(report.records)]
        lines.append(f"max_dist={report.max_distance!r} pass={report.passed}\n")
        _write(args.trace, "".join(lines))
        out.append(f"trace written to {args.trace}")
    if not report.passed and cfg.exit_status:
        return 2
    return 0


def cmd_implicitize(args, cfg: Config, out) -> int:
    b = _load(args.file, cfg)
    out.append(poly_to_text(implicitize(b)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=64)
    common.add_argument("--step", type=float, default=1e-3)
    common.add_argument("--samples", type=int, default=40)
    common.add_argument("--radius", type=float, default=0.05)
    common.add_argument("--tol", type=float, default=1e-3)
    common.add_argument("--exit-status", action="store_true")
    common.add_argument("--no-timing", action="store_true")
    common.add_argument("--show-config", action="store_true")

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

    sp = sub.add_parser("equisingular", parents=[common])
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.set_defaults(fn=cmd_equisingular)

    sp = sub.add_parser("isotopy", parents=[common])
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--trace", default=None)
    sp.set_defaults(fn=cmd_isotopy)

    sp = sub.add_parser("implicitize", parents=[common])
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_implicitize)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = Config(precision=args.precision, step=args.step, samples=args.samples,
                 radius=args.radius, tol=args.tol, exit_status=args.exit_status,
                 no_timing=args.no_timing, show_config=args.show_config)
    out: list[str] = []
    started = time.perf_counter()
    echo = [args.command] + [getattr(args, name) for name in ("file", "file_a", "file_b")
                             if hasattr(args, name)]
    out.append("command: " + " ".join(str(x) for x in echo))
    try:
        if cfg.show_config:
            out.append(cfg.line())
        out.extend(cfg.warnings())
        code = args.fn(args, cfg, out)
        out.append("outcome=" + ("ok" if code == 0 else "fail"))
    except GermflowError as exc:
        for line in out:
            print(line)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in out:
        print(line)
    if not cfg.no_timing:
        print(f"time={time.perf_counter() - started:.3f}s")
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
