"""Span recorder for the traced run.

Layers are the modules of the germflow package.  Their public functions are
wrapped from outside the package by rebinding every module attribute (and
the TruncatedSeries class attributes) that refers to the original function,
so calls between modules are recorded as well as calls from the benchmark.
Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# layer (module) -> wrapped callables; "Class.method" names a class attribute
LAYERS = {
    "branch": ("parse_branch",),
    "series": ("TruncatedSeries.compose", "TruncatedSeries.invert_parameter"),
    "resolution": ("resolve", "dual_graph"),
    "invariants": ("invariant_set", "equisingular"),
    "bivar": ("implicitize", "parse_poly", "poly_to_text", "poly_on_branch"),
    "puiseux": ("newton_puiseux",),
    "isotopy": ("build_plan", "verify_isotopy", "apply_plan", "integrate_flow",
                "distance_to_branch"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op_id", "outcome", "child_s")

    def __init__(self, name, start, parent, op_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op_id = op_id
        self.outcome = "ok"
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by direct children."""
        return self.duration - self.child_s


class Recorder:
    """In-memory span list with a parent stack (single thread)."""

    def __init__(self, refused: type[BaseException], timeout: type[BaseException]):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._refused = refused
        self._timeout = timeout
        self.op_id = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.op_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, exc: BaseException | None = None) -> None:
        """Close span idx, and any span inside it that a timeout left open."""
        now = time.perf_counter()
        while idx in self._stack:
            span = self.spans[self._stack.pop()]
            span.end = now
            if isinstance(exc, self._timeout):
                span.outcome = "timeout"
            elif isinstance(exc, self._refused):
                span.outcome = "refused"
            elif exc is not None:
                span.outcome = "raised"
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.duration

    def wrap(self, name: str, fn, count=None):
        """fn recorded as span `name`; count(args, kwargs) sees each call first."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(idx, exc)
                raise
            self.end(idx)
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op_id,
                                     "outcome": s.outcome}) + "\n")


def install(rec: Recorder, counters=None):
    """Rebind every layer function in every loaded germflow module.

    counters maps a span name to a count(args, kwargs) hook.  Returns the
    list of (owner, attribute, original) needed by uninstall.
    """
    counters = counters or {}
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "germflow" or name.startswith("germflow."))]
    undo = []
    for layer, names in LAYERS.items():
        home = sys.modules[f"germflow.{layer}"]
        for qual in names:
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                name = f"{layer}.{attr}"
                setattr(cls, attr, rec.wrap(name, original, counters.get(name)))
                undo.append((cls, attr, original))
                continue
            original = getattr(home, qual)
            name = f"{layer}.{qual}"
            wrapped = rec.wrap(name, original, counters.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
