"""Span tracing of segbasis from outside, without editing the package.

Every public function defined in a layer module is wrapped, and the wrapper
is bound in every ``segbasis.*`` namespace that holds the original: ``cli``
and ``selection`` import names directly, and modules call their own
functions through their globals, so each binding needs its own rebinding.

A wrapped call inside a job records a span (name, parent span, start, end);
the job itself is the root span and belongs to the ``cli`` layer.  Outside a
job the wrappers pass calls straight through.  A span's self time is its
duration minus the time its child spans cover, so the self times of one job
add up to the job's wall time by construction.  What can go wrong is the
nesting: ``job_stats`` counts the spans that do not lie inside their
parent's [start, end] or whose self time is negative, and a sound trace has
none.

Numeric-health counts, input digests and computed work counts are taken from
the arguments and results of the wrapped calls after the job has ended, so
they cost no traced time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("io", "synth", "core", "costs", "solver", "selection")
# calls whose arguments and results are examined after the job
OBSERVED = {
    "costs.build_sse_table", "costs.loo_table", "costs.build_linear_table",
    "solver.fill_dp", "synth.generate", "synth.add_noise",
}


def _digest(a: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(a).data, digest_size=16).digest()


def dp_candidates(m: int, k_max: int) -> int:
    """Candidate splits a full DP fill scans: sum over p=2..k_max of (m-p+1)*m."""
    return sum((m - p + 1) * m for p in range(2, k_max + 1))


class Tracer:
    """Wraps the layer modules of an imported segbasis package."""

    def __init__(self) -> None:
        self.spans: list = []   # (name, parent, t0, t1) of the current job
        self.stack: list[int] = []
        self.calls: list = []   # (name, args, kwargs, result) of OBSERVED calls
        self.signatures: dict = {}
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"segbasis.{layer}")
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        self.bindings = []  # (namespace, attribute, original, wrapper)
        for name, module in list(sys.modules.items()):
            if name != "segbasis" and not name.startswith("segbasis."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    self.bindings.append((module, attr, *originals[id(value)]))

    def _wrap(self, fn, name: str):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter_ns
        observed = name in OBSERVED
        self.signatures[name] = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, parent, t0, t1)
            if observed:
                calls.append((name, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def run(self, fn, argv):
        """Call ``fn(argv)`` as one traced job, the root span."""
        self.spans.clear()
        self.calls.clear()
        self.spans.append(None)
        self.stack.append(0)
        t0 = time.perf_counter_ns()
        try:
            rc = fn(argv)
        finally:
            t1 = time.perf_counter_ns()
            self.stack.clear()
            self.spans[0] = ("cli.main", None, t0, t1)
        return rc

    def job_stats(self) -> tuple[dict, list]:
        """Per-job totals of the last traced job, and its spans; drops the
        references the job's observed calls held."""
        child_ns = [0] * len(self.spans)
        stats: dict = defaultdict(float)
        stats["span_faults"] = 0
        for name, parent, t0, t1 in self.spans[1:]:
            child_ns[parent] += t1 - t0
            _, _, p0, p1 = self.spans[parent]
            stats["span_faults"] += not p0 <= t0 <= t1 <= p1
        for sid, (name, _, t0, t1) in enumerate(self.spans):
            self_ns = t1 - t0 - child_ns[sid]
            stats["span_faults"] += self_ns < 0
            stats[f"self_ns:{name}"] += self_ns
            stats[f"layer_ns:{name.split('.')[0]}"] += self_ns
            stats[f"calls:{name}"] += 1
        stats["job_ns"] = self.spans[0][3] - self.spans[0][2]
        keys: dict[str, set] = defaultdict(set)
        for name, args, kwargs, result in self.calls:
            a = self.signatures[name].bind(*args, **kwargs).arguments
            if name.startswith("costs."):
                values = result.values
                stats["table_bytes"] += 8 * result.m * result.m
                stats["nonfinite_upper"] += np.count_nonzero(~np.isfinite(
                    np.triu(values, 1 if name == "costs.loo_table" else 0)))
                if name == "costs.build_sse_table":
                    keys["build_sse"].add((_digest(a["dataset"].values), "sse"))
            elif name == "solver.fill_dp":
                stats["dp_candidates"] += dp_candidates(result.m, a["k_max"])
                stats["infeasible_k"] += np.count_nonzero(
                    ~np.isfinite(result.costs[:, 0]))
                keys["fill_dp"].add((_digest(a["table"].values), a["k_max"]))
            elif name == "synth.generate":
                stats["draws"] += a["spec"].n * len(a["spec"].bumps)
            elif name == "synth.add_noise" and a["sigma"] > 0:
                stats["draws"] += a["dataset"].n * a["dataset"].m
        for group, seen in keys.items():
            stats[f"distinct:{group}"] = len(seen)
        spans = list(self.spans)
        self.calls.clear()
        return dict(stats), spans

