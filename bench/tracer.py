"""Outside-in layer tracing for the benchmark.

The library has no instrumentation of its own, so the tracer wraps the
public functions of every ``contextuality.*`` module from the outside.
Modules bind each other's functions with ``from .scenario import restrict``,
so one wrapper per function is installed in *every* module namespace that
binds it.  A few class methods are patched in place on their classes.

Spans (name, start, end, parent, op id) are kept in memory and written out
once at the end.  The hottest functions, ``restrict``, ``sections_over`` and
``as_fraction``, get count-only wrappers: they are called hundreds of
thousands of times in one pass of a cycle workload, and a span each would
swamp the numbers being measured.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "contextuality"

# Wrapped with a counter only, never a span.
COUNT_ONLY = frozenset({"scenario.restrict", "scenario.sections_over", "distribution.as_fraction"})

# Class methods patched in place: (module, class, method).
METHODS = (
    ("feasibility", "FarkasCertificate", "verify"),
    ("classifier", "GlobalDistributionCertificate", "verify"),
    ("extensions", "CoverExtension", "__init__"),
    ("extensions", "CoverExtension", "value"),
    ("extensions", "EnvelopeExtension", "__init__"),
    ("extensions", "EnvelopeExtension", "value"),
)


def _probe_sections_over(counts, args, kwargs, result):
    counts["scenario.sections_over.sections"] += len(result)


def _probe_solve(counts, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    counts["feasibility.solve_nonnegative.rows"] += n_rows
    counts["feasibility.solve_nonnegative.cols"] += n_cols
    counts["feasibility.solve_nonnegative.cells"] += n_rows * n_cols
    counts["feasibility.solve_nonnegative.infeasible"] += 0 if result.feasible else 1


def _probe_rep(counts, args, kwargs, result):
    counts["wps.points"] += len(result.points)
    counts["wps.events"] += len(result.sigma)
    counts["wps.transfer"] += len(result.transfer)


# Extra counters read off arguments or results at a layer boundary.
PROBES = {
    "scenario.sections_over": _probe_sections_over,
    "feasibility.solve_nonnegative": _probe_solve,
    "wps.build_combinatorial_rep": _probe_rep,
}


class Tracer:
    """Span and counter store for one process; records only between begin_op and end_op."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.op = None
        self.active = False
        self._wrappers: dict[int, object] = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        counts = self.counts
        tracer = self
        if name in COUNT_ONLY:
            calls = name + ".calls"

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.active:
                    counts[calls] += 1
                    if probe is not None:
                        probe(counts, args, kwargs, result)
                return result
        else:
            spans = self.spans
            stack = self.stack

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
                if probe is not None:
                    probe(counts, args, kwargs, result)
                return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap public functions in every loaded ``contextuality`` module namespace."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                wrapper = self._wrappers.get(id(obj))
                if wrapper is None:
                    layer = home[len(PACKAGE) + 1:]
                    wrapper = self._wrap(f"{layer}.{obj.__name__}", obj)
                    self._wrappers[id(obj)] = wrapper
                self._originals.append((module, attr, obj))
                setattr(module, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[method]
            label = "init" if method == "__init__" else method
            self._originals.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{label}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        self._wrappers.clear()

    def begin_op(self, op) -> None:
        """Open the root span of one op; library spans under it are its children."""
        self.op = op
        self.active = True
        self.stack.append(len(self.spans))
        self.spans.append(["op", perf_counter(), 0.0, -1, op])

    def end_op(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()
        self.active = False
        self.op = None

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(), handle)


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus that of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


def call_counts(spans) -> Counter:
    return Counter(span[0] for span in spans)


def op_wall(spans) -> float:
    """Total duration of the root op spans."""
    return sum(end - start for name, start, end, parent, _ in spans if parent < 0 and name == "op")
