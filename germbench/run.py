#!/usr/bin/env python3
"""germflow benchmark: one closed-loop caller, one thread, one process.

    python3 germbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``; the
benchmark generates branch texts from the seed and times calls into the
public functions of each germflow module.  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics; with ``--trace 1``
the functions of every layer are wrapped from outside the package and the
JSON carries per-layer metrics instead, and the spans are written to
``.germbench/``.  Workload parameters live in ``germbench/spec.json``.

Counts that must repeat exactly for a seed (the output digest, ok_share,
the failure kinds and the result line's ``attempted`` and ``failed``) are
taken over the first PREFIX_OPS ops, which every run completes however fast
the host is; rates and latencies cover the whole window, and ``correct`` is
false if any op of the window gave a wrong answer.

Times in the end-to-end metrics are scaled to a reference host speed: each
op's (and each set-up's) wall time is multiplied by CAL_REF_S over the mean
time of a fixed calibration loop run just before and just after it.  Shared
hosts change speed by up to 2x within seconds, for germflow and for the
loop alike, so the scaled times repeat far better than wall times.  The
window (``--seconds``) and the per-op deadline are in scaled seconds too.
The stdout ``ops`` line also gives the wall figures and the host speed.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("errors", "series", "branch", "bivar", "resolution", "invariants",
           "puiseux", "isotopy")
SETUP_REPEATS = 5     # setup_s is the median of this many set-ups
PREFIX_OPS = 100      # ops every run completes; the digest and counts cover them
TAIL_PERCENTILE = 90  # op_tail_s; a run attempts well over 100 ops
CAL_REF_S = 0.0025    # calibration loop time at the reference host speed

sys.path.insert(0, HERE)
import ops  # noqa: E402
import spans  # noqa: E402


class Germflow:
    """The package's modules, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "germflow" or m.startswith("germflow.")]:
            del sys.modules[name]
        importlib.import_module("germflow")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"germflow.{name}"))


def calibrate() -> float:
    """Seconds that a fixed loop of Fraction and complex arithmetic takes now."""
    gc.disable()
    start = time.perf_counter()
    q, z = Fraction(0), 0.3 + 0.2j
    for i in range(1, 600):
        q += Fraction(i % 7 + 1, i % 5 + 1)
        z = z * (0.999 + 0.001j) + 0.001
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


def set_up(name: str, params: dict, seed: int):
    """Import the package, generate the inputs and warm up.

    Returns (gf, pool, seconds scaled to the reference host speed).
    """
    before = calibrate()
    start = time.perf_counter()
    gf = Germflow()
    pool = ops.make_pool(name, params, seed)
    kind = ops.kind_of(params)
    warm = ops.run_op(gf, kind, params, ops.WARM_UP[kind], -1)
    seconds = time.perf_counter() - start
    if warm.kind != "ok":
        raise SystemExit(f"warm-up op failed: {warm.kind} {warm.digest}")
    return gf, pool, seconds * 2 * CAL_REF_S / (before + calibrate())


def run_window(gf, params: dict, pool, seconds: float, rec=None):
    """Closed loop over the pool for `seconds` of scaled time, and at least
    over PREFIX_OPS ops.

    So a run covers the same ops of a seed however fast the host is.
    Returns the outcomes, each op's speed scale (CAL_REF_S over the mean of
    the calibrations just before and after it), and the window's wall and
    scaled seconds; calibration time is in neither.  The deadline follows
    the median of the last nine calibrations, which one outlier cannot move.
    """
    kind = ops.kind_of(params)
    outcomes, scale, cals = [], [], [calibrate()]
    wall = scaled = 0.0
    while scaled < seconds or len(outcomes) < PREFIX_OPS:
        i = len(outcomes)
        if rec is not None:
            rec.op_id = i
        speed = CAL_REF_S / statistics.median(cals[-9:])
        t = time.perf_counter()
        outcomes.append(ops.run_op(gf, kind, params, pool[i % len(pool)], i, rec, speed))
        t = time.perf_counter() - t
        cals.append(calibrate())
        scale.append(2 * CAL_REF_S / (cals[-2] + cals[-1]))
        wall += t
        scaled += t * scale[-1]
    return outcomes, scale, wall, scaled


def counts(outcomes) -> dict[str, int]:
    out = {k: 0 for k in ("ok",) + ops.FAIL_KINDS}
    for o in outcomes:
        out[o.kind] += 1
    return out


def print_digest(outcomes) -> None:
    lines = [f"op={o.op_id} {o.kind} {o.digest}" for o in outcomes[:PREFIX_OPS]]
    for line in lines:
        print("digest " + line)
    c = counts(outcomes[:PREFIX_OPS])
    sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"digest ops={len(lines)} " + " ".join(f"{k}={v}" for k, v in c.items())
          + f" sha256={sha}")


def end_to_end(outcomes, scale, window_s, setup_s) -> dict[str, tuple[float, str]]:
    """Scaled times: see the module docstring."""
    lat = [o.latency * k for o, k in zip(outcomes, scale)]
    return {
        "setup_s": (setup_s, "s"),
        "ok_ops_per_s": (counts(outcomes)["ok"] / window_s, "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (ops.percentile(lat, TAIL_PERCENTILE), "s"),
        "ok_share": (counts(outcomes[:PREFIX_OPS])["ok"] / PREFIX_OPS, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def outermost_time(spans_, names) -> float:
    """Summed duration of spans named in `names` that have no such ancestor."""
    total = 0.0
    for s in spans_:
        if s.name not in names:
            continue
        parent = s.parent
        while parent >= 0 and spans_[parent].name not in names:
            parent = spans_[parent].parent
        if parent < 0:
            total += s.duration
    return total


def per_layer(params, outcomes, rec, steps, overhead) -> dict[str, tuple[float, str]]:
    op_total = sum(s.duration for s in rec.spans if s.name == "op")
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in rec.spans:
        busy[s.name] = busy.get(s.name, 0.0) + s.self_s
        calls[s.name] = calls.get(s.name, 0) + 1

    m: dict[str, tuple[float, str]] = {}
    for layer, names in spans.LAYERS.items():
        for qual in names:
            name = f"{layer}.{qual.split('.')[-1]}"
            m[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
            m[f"{name}.calls"] = (calls.get(name, 0), "count")
    np_spans = [s for s in rec.spans if s.name == "puiseux.newton_puiseux"]
    m["puiseux.newton_puiseux.timeouts"] = (sum(s.outcome == "timeout" for s in np_spans), "count")
    m["puiseux.newton_puiseux.refused"] = (sum(s.outcome == "refused" for s in np_spans), "count")
    m["resolution.resolve.calls_per_op"] = (calls.get("resolution.resolve", 0) / len(outcomes),
                                            "count")
    m["isotopy.rk4_steps"] = (steps, "count")
    for kind in ("shear", "multiplicative", "graph-match"):
        m[f"isotopy.stages.{kind.replace('-', '_')}"] = (
            sum(o.stages.count(kind) for o in outcomes), "count")
    reports = [o for o in outcomes if o.max_distance is not None]
    fails = [o for o in reports if o.kind == "verdict_fail"]
    m["isotopy.verdict.pass"] = (sum(o.kind == "ok" for o in reports), "count")
    m["isotopy.verdict.fail"] = (len(fails), "count")
    m["isotopy.verdict.fail_converged"] = (
        sum(o.max_step_error < ops.TOL for o in fails), "count")
    m["isotopy.verdict.raised"] = (
        sum(o.kind in ("timeout", "germflow_error", "other_error") for o in outcomes)
        if ops.kind_of(params) == "isotopy" else 0, "count")
    m["isotopy.max_dist_p50"] = (
        statistics.median(o.max_distance for o in reports) if reports else 0.0, "1")
    m["isotopy.step_error_p50"] = (
        statistics.median(o.max_step_error for o in reports) if reports else 0.0, "1")
    c = counts(outcomes[:PREFIX_OPS])
    for kind in ("ok",) + ops.FAIL_KINDS:
        m[f"ops.{kind}"] = (c[kind], "count")
    m["ops.fail_share"] = (1.0 - c["ok"] / PREFIX_OPS, "share")
    for key, names in (("newton_puiseux", {"puiseux.newton_puiseux"}),
                       ("integrate_flow", {"isotopy.integrate_flow"}),
                       ("build_plan", {"isotopy.build_plan"}),
                       ("series", {"series.compose", "series.invert_parameter"}),
                       ("verify_isotopy", {"isotopy.verify_isotopy"})):
        m[f"share.{key}"] = (outermost_time(rec.spans, names) / op_total, "share")
    m["trace.spans"] = (len(rec.spans), "count")
    m["trace.overhead_share"] = (overhead, "share")
    return m


def traced_window(gf, params, pool, seconds):
    """Run the window with every layer wrapped; then measure the tracing overhead."""
    steps = [0]

    def count_steps(args, kwargs):
        h = args[2] if len(args) > 2 else kwargs.get("h", 1e-3)
        steps[0] += max(1, round(1.0 / h))

    def traced(fn):
        rec = spans.Recorder(gf.errors.GermflowError, ops.OpTimeout)
        undo = spans.install(rec, counters={"isotopy.integrate_flow": count_steps})
        try:
            return fn(rec), rec
        finally:
            spans.uninstall(undo)

    (outcomes, scale, elapsed, _), rec = traced(
        lambda r: run_window(gf, params, pool, seconds, r))
    run_steps = steps[0]
    # overhead: replay finished ops untraced and traced, in alternating order,
    # for about a quarter of the window; each replay is scaled by the
    # calibrations around it
    kind = ops.kind_of(params)

    def replay(o, traced_mode: int) -> float:
        texts = pool[o.op_id % len(pool)]
        if traced_mode:
            return traced(lambda r: ops.run_op(gf, kind, params, texts, o.op_id, r))[0].latency
        return ops.run_op(gf, kind, params, texts, o.op_id).latency

    sums = [0.0, 0.0]  # untraced, traced
    wall = 0.0
    cal = calibrate()
    for k, o in enumerate(o for o in outcomes if o.kind != "timeout"):
        if wall > seconds / 4:
            break
        for mode in (k % 2, 1 - k % 2):
            t = replay(o, mode)
            nxt = calibrate()
            sums[mode] += t * 2 / (cal + nxt)
            wall += t
            cal = nxt
    overhead = sums[1] / sums[0] - 1.0 if sums[0] > 0 else 0.0
    return outcomes, scale, elapsed, rec, run_steps, overhead


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "germflow", "__init__.py")):
        print(f"error: germflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"]
    if args.workload not in spec:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(spec)}",
              file=sys.stderr)
        return 2
    params = spec[args.workload]

    ops.arm_deadline()
    setups = [set_up(args.workload, params, args.seed) for _ in range(SETUP_REPEATS)]
    gf, pool, _ = setups[-1]
    if args.trace:
        outcomes, scale, elapsed, rec, steps, overhead = traced_window(
            gf, params, pool, args.seconds)
        metrics = per_layer(params, outcomes, rec, steps, overhead)
        out_dir = os.path.join(ROOT, ".germbench")
        os.makedirs(out_dir, exist_ok=True)
        rec.dump(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        outcomes, scale, elapsed, scaled = run_window(gf, params, pool, args.seconds)
        metrics = end_to_end(outcomes, scale, scaled,
                             statistics.median(t for _, _, t in setups))

    print_digest(outcomes)
    c = counts(outcomes)
    lat = [o.latency for o in outcomes]
    print("ops " + " ".join(f"{k}={v}" for k, v in c.items()) + f" wall_s={elapsed!r} "
          + " ".join(f"p{q}={ops.percentile(lat, q):.4f}" for q in (50, 75, 90, 95))
          + f" host_speed={statistics.median(scale):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name}={value!r} {unit}")
    # attempted/failed cover the prefix, so they repeat exactly for a seed;
    # correct covers every op of the window
    prefix = counts(outcomes[:PREFIX_OPS])
    print(json.dumps({
        "correct": c["wrong_answer"] == 0,
        "attempted": PREFIX_OPS,
        "failed": PREFIX_OPS - prefix["ok"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
