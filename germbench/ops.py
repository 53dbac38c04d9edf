"""Operations of the benchmark workloads and the checks on their outputs.

Every call into germflow goes through a module attribute looked up at call
time (``gf.bivar.implicitize``), so the traced run sees rebound functions.
"""
from __future__ import annotations

import random
import signal
import time
from dataclasses import dataclass

import gen

FAIL_KINDS = ("timeout", "germflow_error", "other_error", "wrong_answer", "verdict_fail")
POOL = 1024  # op inputs generated per run; ops past the end reuse them in order
TOL = 1e-3   # verify_isotopy tolerance on max_distance (the CLI default)


class OpTimeout(BaseException):
    """The per-op deadline expired (raised from the SIGALRM handler)."""


class WrongAnswer(Exception):
    """An output contradicts an independent check."""


_armed = False  # the handler raises only while an op runs


def _on_alarm(signum, frame):
    if _armed:
        raise OpTimeout()


def arm_deadline() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


# -- inputs ----------------------------------------------------------------------

def make_pool(name: str, params: dict, seed: int, size: int = POOL) -> list[tuple[str, ...]]:
    """The workload's op inputs as branch texts.

    The op index fixes the family, the free-term count and which free
    exponents carry terms, so every run walks the same strata; the seed draws
    the coefficients.  Op i depends only on (name, seed, i).
    """
    fams = params["families"]
    counts = params["free_terms"]
    wide_every = params.get("wide_every", 0)
    pool = []
    for i in range(size):
        rng = random.Random(f"{name}/{seed}/{i}")
        n, betas = fams[i % len(fams)]
        visit = i // len(fams)
        k, subset = counts[visit % len(counts)], visit // len(counts)
        if "radius" in params:
            pool.append(tuple(
                gen.branch(rng, n, betas, gen.free_choice(n, betas, k, subset + side),
                           params["height"])
                for side in (0, 1)))
        elif wide_every and i % wide_every == wide_every - 1:
            wide_k = params["wide_free_terms"]
            k = wide_k[(i // wide_every) % len(wide_k)]
            free = gen.free_choice(n, betas, k, i // wide_every)
            pool.append((gen.branch(rng, n, betas, free, params["wide_height"]),))
        else:
            pool.append((gen.branch(rng, n, betas, gen.free_choice(n, betas, k, subset),
                                    params["height"]),))
    return pool


WARM_UP = {"exact": ("x = t^2\ny = t^3\n",),
           "isotopy": ("x = t^2\ny = t^3\n", "x = t^2\ny = 2 t^3\n")}


def kind_of(params: dict) -> str:
    return "isotopy" if "radius" in params else "exact"


# -- operations -------------------------------------------------------------------

def exact_roundtrip(gf, texts, p):
    b = gf.branch.parse_branch(texts[0]).with_precision(p["precision"])
    rd = gf.resolution.resolve(b)
    graph = gf.resolution.dual_graph(rd)
    inv = gf.invariants.invariant_set(b)
    f = gf.bivar.implicitize(b)
    f_text = gf.bivar.poly_to_text(f)
    f_back = gf.bivar.parse_poly(f_text)
    back = gf.puiseux.newton_puiseux(f_back)
    verdict = gf.invariants.equisingular(b, back)
    return b, rd, graph, inv, f, f_back, back, verdict


def isotopy(gf, texts, p):
    a = gf.branch.parse_branch(texts[0]).with_precision(p["precision"])
    b = gf.branch.parse_branch(texts[1]).with_precision(p["precision"])
    plan = gf.isotopy.build_plan(a, b, sample_radius=p["radius"], precision=p["precision"])
    rep = gf.isotopy.verify_isotopy(a, b, plan, n_samples=p["samples"], radius=p["radius"],
                                    tol=TOL, h=p["step"])
    return plan, rep


RUN = {"exact": exact_roundtrip, "isotopy": isotopy}


def _fmt(xs) -> str:
    return "[" + ",".join(str(x) for x in xs) + "]"


def check_exact(gf, out) -> str:
    """Digest of a round trip; raises WrongAnswer when a check fails."""
    b, rd, graph, inv, f, f_back, back, verdict = out
    mult = rd.multiplicities()
    if mult != inv.mult_seq:
        raise WrongAnswer(f"blowup multiplicities {mult} != Euclidean {inv.mult_seq}")
    delta = sum(m * (m - 1) // 2 for m in mult)
    if delta != inv.delta or inv.milnor != 2 * delta:
        raise WrongAnswer(f"delta {inv.delta}/mu {inv.milnor} != {delta} from resolve")
    if f_back != f:
        raise WrongAnswer("parse_poly(poly_to_text(f)) != f")
    if back.n != b.n:
        raise WrongAnswer(f"round trip multiplicity {back.n} != {b.n}")
    want = b.ys.truncate(back.ys.precision)
    if back.ys.terms not in (want.terms, want.flip().terms):
        raise WrongAnswer(f"round trip y = {back.ys} != {want} up to t -> -t")
    if not verdict.equal:
        raise WrongAnswer(f"round trip not equisingular: {verdict.certificate}")
    c = gf.invariants.char_exponents(b)
    return (f"n={c.n} betas={_fmt(c.betas)} mult={_fmt(mult)} "
            f"semigroup={_fmt(inv.semigroup_gens)} delta={inv.delta} mu={inv.milnor} "
            f"weights={_fmt(w for _, w in graph.vertices)} exact={back.exact}")


def _stage_text(stage) -> str:
    f = stage.field
    if f.kind == "multiplicative":
        return f"multiplicative@{f.level}:ratio={f.ratio}:shear={f.shear}"
    if f.kind == "shear":
        return f"shear@{f.level}:{f.orientation}={f.amount}"
    return f"{f.kind}@{f.level}"


def check_isotopy(out, p) -> tuple[str, bool]:
    """(digest, passed) of a verified plan; raises WrongAnswer on a bad report.

    A PASS needs max_distance < TOL and dist_implicit <= 10 * max(dist, 1e-12)
    on every sample (the implicit-equation cross-check).  The digest also
    carries the Richardson estimate max_step_error (h against h/2), which
    tells integrator error apart from a plan that misses the target branch.
    """
    plan, rep = out
    if rep.passed != (rep.max_distance < TOL):
        raise WrongAnswer(f"verdict {rep.passed} disagrees with max_distance {rep.max_distance!r}")
    if len(rep.records) != p["samples"]:
        raise WrongAnswer(f"{len(rep.records)} sample records, asked for {p['samples']}")
    implicit_ok = all(r.dist_implicit <= 10.0 * max(r.dist, 1e-12) for r in rep.records)
    passed = rep.passed and implicit_ok
    verdict = "PASS" if passed else "FAIL" if not rep.passed else "FAIL(implicit)"
    stages = ",".join(_stage_text(s) for s in plan.stages)
    return (f"stages={stages} max_dist={rep.max_distance!r} "
            f"step_err={rep.max_step_error!r} {verdict}", passed)


@dataclass
class Outcome:
    op_id: int
    kind: str            # "ok" or one of FAIL_KINDS
    latency: float       # seconds spent in germflow calls, deadline included
    digest: str
    max_distance: float | None = None
    max_step_error: float | None = None
    stages: tuple[str, ...] = ()


def run_op(gf, kind: str, p: dict, texts, op_id: int, rec=None, speed=1.0) -> Outcome:
    """One op under the per-op deadline, then its checks (not timed).

    The deadline is p["deadline_s"] at the reference host speed, so on a host
    running at `speed` times that speed it is p["deadline_s"] / speed.  An
    alarm that fires while the deadline is being disarmed is still caught
    here as a timeout; once _armed is cleared a late alarm does nothing.
    """
    global _armed
    span = rec.begin("op") if rec is not None else None
    exc = None
    start = time.perf_counter()
    try:
        _armed = True
        signal.setitimer(signal.ITIMER_REAL, p["deadline_s"] / speed)
        try:
            out = RUN[kind](gf, texts, p)
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (OpTimeout, Exception) as e:
        exc = e
    latency = time.perf_counter() - start
    if rec is not None:
        rec.end(span, exc)
    if isinstance(exc, OpTimeout):
        return Outcome(op_id, "timeout", latency, "timeout")
    if isinstance(exc, gf.errors.GermflowError):
        return Outcome(op_id, "germflow_error", latency, f"error {type(exc).__name__}")
    if exc is not None:
        return Outcome(op_id, "other_error", latency, f"raised {type(exc).__name__}")
    try:
        if kind == "exact":
            return Outcome(op_id, "ok", latency, check_exact(gf, out))
        digest, passed = check_isotopy(out, p)
    except WrongAnswer as e:
        return Outcome(op_id, "wrong_answer", latency, f"wrong {e}")
    plan, rep = out
    stages = tuple(s.field.kind for s in plan.stages)
    return Outcome(op_id, "ok" if passed else "verdict_fail", latency, digest,
                   rep.max_distance, rep.max_step_error, stages)


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile."""
    xs = sorted(values)
    k = max(0, min(len(xs) - 1, -(-len(xs) * q // 100) - 1))
    return xs[int(k)]
