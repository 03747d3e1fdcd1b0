"""Span tracing of the library from outside: no library file changes.

``Tracer`` replaces every public function of each package module, and
``InclusionProbability.at``, with a wrapper that records a span (id, parent,
name, thread, start, end, attributes). The replacement is made in every
module namespace that holds a reference to the function, because modules
import each other's functions by name. ``restore`` puts every original back.

Span stacks are per thread. A span that starts on an empty stack in a worker
thread takes as parent the innermost open span of the thread that installed
the tracer (the one waiting on the pool), so worker spans are children of the
call that caused them. A span's self time is its duration minus the union of
its children's intervals; children in parallel threads may overlap.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("domain", "kernels", "gp_gaussian", "lgcp", "designs", "evaluation", "cli")

GENERATORS = frozenset(
    f"designs.{n}" for n in (
        "random_design", "halton", "sobol", "fibonacci_lattice_3d", "simple_inhibitory",
        "inhibitory_close_pairs", "min_dist_discrete", "coffee_house", "rejection_wrap",
        "space_fill_rejection",
    )
)
EVALUATION_LOOPS = frozenset(
    f"evaluation.{n}" for n in ("expected_apv", "expected_kl", "compare_designs", "condition_on_data")
)


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rejection_attrs(args, kwargs, design):
    return {"accepted": design.n,
            "proposals": design.provenance["accepted_proposals"][-1] + 1}


# Attributes recorded on a span from the call's arguments and result.
ATTRS = {
    "kernels.cov_matrix": lambda a, k, r: {
        "entries": _rows(_arg(a, k, 0, "points_a")) * _rows(_arg(a, k, 1, "points_b"))},
    "lgcp.laplace_predict": lambda a, k, r: {"query_rows": _rows(_arg(a, k, 1, "query"))},
    "lgcp.fit_lgcp": lambda a, k, r: {"iterations": r.iterations},
    "designs.rejection_wrap": _rejection_attrs,
}


class Tracer:
    """Install with ``with Tracer(package) as tracer:``; spans land in ``tracer.spans``."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []  # (id, parent, name, thread, start, end, attrs, error)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._home_stack: list[int] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _targets(self):
        pkg = self.package.__name__
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                obj = getattr(mod, n)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield f"{layer}.{n}", obj

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._home_stack
        pkg = self.package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if name == pkg or name.startswith(pkg + ".")]
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self._targets()}
        for mod in modules:
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, hit[1])
        incl = sys.modules[f"{pkg}.designs"].InclusionProbability
        original = incl.__dict__["at"]
        self._patches.append((incl, "at", original))
        incl.at = self._wrap("designs.InclusionProbability.at", original)

    def restore(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def _wrap(self, name, fn):
        local, spans, ids, home = self._local, self.spans, self._ids, self._home_stack
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = home[-1] if home else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(), start, end, None,
                              type(exc).__name__))
                raise
            end = clock()
            stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else None
            spans.append((sid, parent, name, threading.get_ident(), start, end, attrs, None))
            return result

        return traced


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def by_name(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, errors."""
    children = defaultdict(list)
    for sid, parent, _n, _t, start, end, _a, _e in spans:
        if parent is not None:
            children[parent].append((start, end))
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
    for sid, _p, name, _t, start, end, _a, error in spans:
        row = table[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - _union_length(children.get(sid, ()))
        row["errors"] += error is not None
    return dict(table)


def layer_metrics(spans, wall_s: float, workers: int, replicates: int) -> dict:
    """The per-layer metrics of one traced workload run."""
    table = by_name(spans)

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    def attr_sum(name, key):
        return sum(s[6][key] for s in spans if s[2] == name and s[6] is not None)

    def self_of(names):
        return sum(row["self_s"] for n, row in table.items() if n in names)

    proposals = attr_sum("designs.rejection_wrap", "proposals")
    # busy time: spans whose parent ran in another thread (or has none), in
    # the threads doing the work; with a pool that excludes the waiting caller
    thread_of = {s[0]: s[3] for s in spans}
    roots = [s for s in spans if s[1] is None or thread_of.get(s[1]) != s[3]]
    worker_roots = [s for s in roots if s[1] is not None]
    busy = sum(s[5] - s[4] for s in (worker_roots or roots))
    return {
        "kernels.cov_matrix.calls": get("kernels.cov_matrix", "calls"),
        "kernels.cov_matrix.self_s": get("kernels.cov_matrix", "self_s"),
        "kernels.cov_matrix.entries": attr_sum("kernels.cov_matrix", "entries"),
        "gp_gaussian.sample_prior.calls": get("gp_gaussian.sample_prior", "calls"),
        "gp_gaussian.sample_prior.self_s": get("gp_gaussian.sample_prior", "self_s"),
        "lgcp.fit_lgcp.calls": get("lgcp.fit_lgcp", "calls"),
        "lgcp.fit_lgcp.self_s": get("lgcp.fit_lgcp", "self_s"),
        "lgcp.fit_lgcp.failed": get("lgcp.fit_lgcp", "errors"),
        "lgcp.fit_lgcp.newton_iters": attr_sum("lgcp.fit_lgcp", "iterations"),
        "lgcp.laplace_predict.calls": get("lgcp.laplace_predict", "calls"),
        "lgcp.laplace_predict.self_s": get("lgcp.laplace_predict", "self_s"),
        "lgcp.laplace_predict.query_rows": attr_sum("lgcp.laplace_predict", "query_rows"),
        "lgcp.kl_lemma1.self_s": get("lgcp.kl_lemma1", "self_s"),
        "lgcp.sample_counts.self_s": get("lgcp.sample_counts", "self_s"),
        "designs.generate.self_s": self_of(GENERATORS),
        "designs.InclusionProbability.at.calls": get("designs.InclusionProbability.at", "calls"),
        "designs.InclusionProbability.at.s": get("designs.InclusionProbability.at", "s"),
        "designs.rejection.accept_ratio": (
            attr_sum("designs.rejection_wrap", "accepted") / proposals if proposals else 0.0),
        "domain.is_admissible.calls": get("domain.is_admissible", "calls"),
        "evaluation.self_s": self_of(EVALUATION_LOOPS),
        "evaluation.fits_per_replicate": get("lgcp.fit_lgcp", "calls") / replicates,
        "cli.self_s": sum(row["self_s"] for n, row in table.items() if n.startswith("cli.")),
        "cli.parallel_efficiency": busy / (wall_s * workers),
    }
