"""Span tracing of calls into the gwboot modules, installed from outside.

Each traced function is replaced, in every gwboot module that holds a
reference to it, by a wrapper that records one span: name, start, end,
parent span and the operation (workload item) it ran under.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer counts and self times
and ``write`` dumps them once the run is over.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from collections import defaultdict

CHECK_OP = -1  # spans recorded outside the timed workload items

# module -> public functions wrapped by name wherever they were imported
FUNCTIONS = {
    "offspring": ("make_distribution",),
    "kernels": ("make_context", "G_minus_1", "max_G", "h"),
    "critical": ("pc_exact", "q_limit", "q_iterate"),
    "bounds": ("bounds_report",),
    "simulate": ("estimate_qn",),
}

MOMENTS = (
    "mean",
    "second_factorial_moment",
    "alpha_moment",
    "harmonic_tail_moment",
    "fort_upper_moment",
    "inverse_square_moment",
)
# methods wrapped on every offspring class that defines them
METHODS = ("sample", "support_probs") + MOMENTS


# counts read off a result once its span has ended
INFO = {
    "offspring.sample": lambda res: (len(res), int(res.sum())),  # draws, children born
    "simulate.estimate_qn": lambda res: (res.replicates, res.truncated, res.effective),
    "critical.q_limit": lambda res: (res.iterations, res.converged),
}


class Tracer:
    """Records spans for the gwboot calls made while it is installed."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, op, info)
        self.spans: list = []
        self.op = CHECK_OP
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        info_fn = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, None)
            if info_fn is not None:
                spans[idx] = spans[idx][:5] + (info_fn(res),)
            return res

        return wrapper

    def install(self) -> None:
        import gwboot.offspring as offspring

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gwboot" or n.startswith("gwboot."))]
        for mod_name, names in FUNCTIONS.items():
            home = sys.modules[f"gwboot.{mod_name}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{mod_name}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))
        for cls in vars(offspring).values():
            if not (isinstance(cls, type) and issubclass(cls, offspring.OffspringDistribution)):
                continue
            for meth in METHODS:
                if meth in vars(cls):
                    orig = vars(cls)[meth]
                    label = f"offspring.moments.{meth}" if meth in MOMENTS else f"offspring.{meth}"
                    setattr(cls, meth, self._wrap(label, orig))
                    self._undo.append((cls, meth, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path: str, labels: list[str]) -> None:
        """Spans as gzipped CSV, after one ``# op <i> <label>`` line per item."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.writelines(f"# op {i} {label}\n" for i, label in enumerate(labels))
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for i, (name, t0, t1, parent, op, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{name},{t0},{t1}\n")


def unit_of(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("us_per_call", "us"),
                         ("ns_per_vertex", "ns"), ("_pct", "%"), ("_frac", "fraction"),
                         ("_share", "fraction")):
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(spans: list, executions: dict[int, int]) -> dict[str, float]:
    """Per-layer counts and self times for one pass over the workload items.

    ``executions[op]`` is how often item ``op`` ran while tracing; spans of
    an item are weighted by its inverse so every item counts once, and the
    once-per-run correctness checks (``CHECK_OP``) count with weight one.
    """
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, op, info in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    calls = defaultdict(float)
    self_ns = defaultdict(float)
    total_ns = defaultdict(float)
    draws = born = replicates = truncated = effective = 0.0
    iterations = converged = max_g_evals = pc_in_bounds_ns = 0.0
    for i, (name, t0, t1, parent, op, info) in enumerate(spans):
        w = 1.0 if op == CHECK_OP else 1.0 / executions[op]
        key = "offspring.moments" if name.startswith("offspring.moments.") else name
        calls[key] += w
        self_ns[key] += w * (t1 - t0 - child_ns[i])
        total_ns[key] += w * (t1 - t0)
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "offspring.sample":
            draws += w * info[0]
            if parent_name == "simulate.estimate_qn":
                born += w * info[1]
        elif name == "simulate.estimate_qn":
            replicates += w * info[0]
            truncated += w * info[1]
            effective += w * info[2]
        elif name == "critical.q_limit":
            iterations += w * info[0]
            converged += w * info[1]
        elif name == "kernels.G_minus_1" and parent_name == "kernels.max_G":
            max_g_evals += w
        elif name == "critical.pc_exact" and parent_name == "bounds.bounds_report":
            pc_in_bounds_ns += w * (t1 - t0)

    def ms(key):
        return self_ns[key] / 1e6

    def us_per_call(key):
        return self_ns[key] / 1e3 / calls[key] if calls[key] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "offspring.sample.calls": calls["offspring.sample"],
        "offspring.sample.self_ms": ms("offspring.sample"),
        "offspring.sample.draws": draws,
        "offspring.make_distribution.self_ms": ms("offspring.make_distribution"),
        "offspring.support_probs.self_ms": ms("offspring.support_probs"),
        "offspring.moments.calls": calls["offspring.moments"],
        "offspring.moments.self_ms": ms("offspring.moments"),
        "kernels.make_context.calls": calls["kernels.make_context"],
        "kernels.make_context.self_ms": ms("kernels.make_context"),
        "kernels.G_minus_1.calls": calls["kernels.G_minus_1"],
        "kernels.G_minus_1.self_ms": ms("kernels.G_minus_1"),
        "kernels.G_minus_1.us_per_call": us_per_call("kernels.G_minus_1"),
        "kernels.max_G.calls": calls["kernels.max_G"],
        "kernels.max_G.evals_per_call": ratio(max_g_evals, calls["kernels.max_G"]),
        "kernels.h.calls": calls["kernels.h"],
        "kernels.h.self_ms": ms("kernels.h"),
        "kernels.h.us_per_call": us_per_call("kernels.h"),
        "critical.pc_exact.calls": calls["critical.pc_exact"],
        "critical.pc_exact.self_ms": ms("critical.pc_exact"),
        "critical.q_limit.calls": calls["critical.q_limit"],
        "critical.q_limit.iterations": iterations,
        "critical.q_limit.converged_frac": ratio(converged, calls["critical.q_limit"]),
        "critical.q_iterate.calls": calls["critical.q_iterate"],
        "critical.q_iterate.self_ms": ms("critical.q_iterate"),
        "bounds.bounds_report.calls": calls["bounds.bounds_report"],
        "bounds.bounds_report.self_ms": ms("bounds.bounds_report"),
        "bounds.pc_ref_share": ratio(pc_in_bounds_ns, total_ns["bounds.bounds_report"]),
        "simulate.estimate_qn.calls": calls["simulate.estimate_qn"],
        "simulate.estimate_qn.self_ms": ms("simulate.estimate_qn"),
        "simulate.replicates": replicates,
        "simulate.truncated": truncated,
        "simulate.effective_frac": ratio(effective, replicates),
        "simulate.vertices": replicates + born,
        "simulate.ns_per_vertex": ratio(total_ns["simulate.estimate_qn"], replicates + born),
    }
